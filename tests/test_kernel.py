"""The period-table kernel: accuracy, its edges, independence of the checks
that use it, and its cost in coefficient evaluations."""

from __future__ import annotations

import dataclasses
import decimal
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsive_logistic import analysis, cli, closed_form
from impulsive_logistic.analysis import (
    trajectory_closed_form,
    verify_impulse_condition,
    verify_periodicity,
)
from impulsive_logistic.closed_form import (
    ModelParams,
    derive_constants,
    legacy_grid,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
    solution_grid,
)
from impulsive_logistic.coefficients import (
    CoefficientPair,
    ConstantCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    compute_B,
    forcing_integrals,
    forcing_panels,
)
from impulsive_logistic.integrator import integrate

from helpers import corrupt_period_table, golden_params, random_params, reference_integral

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
KINDS = (ConstantCoefficient, SinusoidCoefficient, PiecewiseConstantCoefficient)

# Fixed seed and a bounded example count keep the suite fast and repeatable.
PROPERTY = settings(max_examples=50, derandomize=True, deadline=None, database=None)

# Dyadic t0, offsets and breakpoints: t0 + s is exact, so the kernel (at
# frac(t0) + s) and the scalar quadrature (at t0 + s) integrate over the
# same window, on the same panels.
dyadic_t0 = st.integers(1, 3 * 1024).map(lambda i: i / 1024.0)
dyadic_offsets = st.lists(
    st.integers(0, 2**20).map(lambda i: i / 2.0**20), min_size=1, max_size=8
).map(sorted)


def coefficient_kinds(low: float, high: float) -> dict:
    """A strategy per coefficient kind, values inside [low, high]."""
    constant = st.floats(low, high).map(ConstantCoefficient)
    sinusoid = st.builds(
        lambda mean, frac, phase: SinusoidCoefficient(mean=mean, amp=frac * mean, phase=phase),
        st.floats(low, high),
        st.floats(-0.6, 0.6),
        st.floats(0.0, 2.0 * math.pi),
    )
    piecewise = st.lists(st.integers(1, 63), min_size=1, max_size=3, unique=True).flatmap(
        lambda cuts: st.builds(
            PiecewiseConstantCoefficient,
            st.just((0.0, *sorted(c / 64.0 for c in cuts), 1.0)),
            st.tuples(*[st.floats(low, high)] * (len(cuts) + 1)),
        )
    )
    return {"constant": constant, "sinusoid": sinusoid, "piecewise": piecewise}


def coefficient(low: float, high: float):
    return st.one_of(*coefficient_kinds(low, high).values())


@st.composite
def models(draw) -> ModelParams:
    pair = CoefficientPair(r=draw(coefficient(0.2, 3.0)), K=draw(coefficient(10.0, 500.0)))
    e_crit = 1.0 - math.exp(-reference_integral(pair.r, 0.0, 1.0))
    E = draw(st.floats(0.0, 0.95)) * e_crit
    return ModelParams(pair=pair, E=E, t0=draw(dyadic_t0))


# ---------------------------------------------------------------------------
# accuracy against the scalar quadrature
# ---------------------------------------------------------------------------


@PROPERTY
@given(params=models(), offsets=dyadic_offsets)
def test_table_matches_scalar_quadrature(params, offsets):
    table = period_table(params, offsets)
    for s, decay, forcing in zip(offsets, table.decay, table.forcing):
        growth = reference_integral(params.pair.r, params.t0, params.t0 + s)
        assert decay == pytest.approx(math.exp(-growth), rel=1e-14)
        window = forcing_integrals(params.pair, params.t0, (s,), 64)[0][0]
        assert forcing == pytest.approx(window, rel=1e-12)


def test_table_holds_a_forcing_ratio_near_the_float_range():
    # r/K = 5.6e186 times exp(R - G/2) up to 1e122 overflowed the quadrature
    # table until r/K was scaled by a power of two; B = 1e184 itself fits a
    # float.  A sinusoid K takes that table; a constant K, the sum of
    # exponentials, whose terms are at most 1/K
    for K in (SinusoidCoefficient(1e-184, 2e-185), ConstantCoefficient(1e-184)):
        params = ModelParams(
            pair=CoefficientPair(r=ConstantCoefficient(562.341325190349), K=K), E=0.0, t0=1.0
        )
        with np.errstate(all="raise"):
            table = period_table(params, [0.0, 0.5, 1.0])
        half = forcing_integrals(params.pair, 0.0, (0.5,), forcing_panels(params.pair))[0][0]
        want = [0.0, half, compute_B(params.pair, 0.0)]
        np.testing.assert_allclose(table.forcing, want, rtol=1e-12)


@pytest.mark.parametrize("r_kind", ["constant", "sinusoid", "piecewise"])
@pytest.mark.parametrize("k_kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_legacy_grid_is_d_over_the_moving_window_integral(r_kind, k_kind, data):
    # J(s), the forcing integral over [s, s + 1], split at the impulse is
    # B exp(-R(s)) + E* C(s): the legacy formula d / J read from a table
    pair = CoefficientPair(
        r=data.draw(coefficient_kinds(0.2, 50.0)[r_kind]),
        K=data.draw(coefficient_kinds(10.0, 500.0)[k_kind]),
    )
    e_crit = -math.expm1(-reference_integral(pair.r, 0.0, 1.0))
    E = data.draw(st.floats(0.0, 0.95)) * e_crit
    params = ModelParams(pair=pair, E=E, t0=data.draw(dyadic_t0))
    offsets = data.draw(dyadic_offsets)
    c = derive_constants(params)
    got = legacy_grid(c, period_table(params, offsets))
    a = params.phase
    want = [c.d / forcing_integrals(pair, a + s, (1.0,), 128)[0][0] for s in offsets]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_legacy_grid_at_growth_700():
    # at G = 700, 64 panels left B and C 2.2e-11 off 4096 panels; at the
    # panel rule's 175 the two forms of the legacy formula agree to 3.5e-14,
    # and both are within 2.6e-14 of 4096 panels
    params = ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(700.0), K=SinusoidCoefficient(100.0, 40.0)),
        E=0.25,
        t0=0.5,
    )
    c = derive_constants(params)
    offsets = [0.0, 0.125, 0.5, 0.875, 1.0]
    got = legacy_grid(c, period_table(params, offsets))
    a = params.phase
    for s, value in zip(offsets, got):
        panels = (forcing_panels(params.pair), 4096)
        window = [forcing_integrals(params.pair, a + s, (1.0,), n)[0][0] for n in panels]
        assert value == pytest.approx(c.d / window[0], rel=1e-12)
        assert value == pytest.approx(c.d / window[1], rel=1e-12)


def _rate_with_mean(rng: np.random.Generator, kind: str, G: float):
    """A growth rate of the given kind whose period mean is G."""
    if kind == "constant":
        return ConstantCoefficient(G)
    if kind == "sinusoid":
        amp = float(rng.uniform(-0.9, 0.9)) * G
        return SinusoidCoefficient(mean=G, amp=amp, phase=float(rng.uniform(0.0, 2.0 * math.pi)))
    breakpoints = (0.0, *sorted(rng.uniform(0.05, 0.95, 2).tolist()), 1.0)
    weights = rng.uniform(0.2, 1.8, 3)
    scale = G / float(np.dot(weights, np.diff(breakpoints)))
    return PiecewiseConstantCoefficient(breakpoints, tuple((scale * weights).tolist()))


@pytest.mark.parametrize("G", [650.0, 709.0])
@pytest.mark.parametrize("r_kind", ["constant", "sinusoid", "piecewise"])
def test_B_of_a_sinusoid_K_holds_at_large_growth(r_kind, G):
    # exp(R) rises by exp(G) over the period: at 64 panels per unit B was
    # up to 1.9e-7 off a 16384-panel quadrature (piecewise r at G = 709);
    # at the panel rule's ceil(G / 4) it stays within 1e-13, and so does
    # the C(1) of a table, which lays the same panels; so do the periodicity
    # reference's 17 windows at twice that, whose ends j/16 cut its panels
    # wherever 16 does not divide them
    rng = np.random.default_rng([int(G), len(r_kind)])
    offsets = [*analysis._PERIODICITY_OFFSETS, 1.0]
    for _ in range(10):
        K = SinusoidCoefficient(
            float(rng.uniform(50.0, 150.0)), float(rng.uniform(-40.0, 40.0)),
            float(rng.uniform(0.0, 2.0 * math.pi)),
        )
        pair = CoefficientPair(r=_rate_with_mean(rng, r_kind, G), K=K)
        params = ModelParams(pair=pair, E=0.0, t0=float(rng.uniform(0.05, 0.95)))
        fine = forcing_integrals(pair, params.phase, offsets, 16384)[0]
        assert compute_B(pair, params.phase) == pytest.approx(fine[-1], rel=1e-12, abs=0.0)
        table = period_table(params, [0.5, 1.0])
        assert table.forcing[-1] == pytest.approx(fine[-1], rel=1e-12, abs=0.0)
        reference = forcing_integrals(pair, params.phase, offsets, 2 * forcing_panels(pair))[0]
        np.testing.assert_allclose(reference, fine, rtol=1e-12, atol=0.0)


@PROPERTY
@given(params=models(), offsets=dyadic_offsets)
def test_offset_zero_is_the_anchor_bit_for_bit(params, offsets):
    c = derive_constants(params)
    orbit = periodic_grid(c, period_table(params, [0.0, *offsets]))
    assert orbit[0] == c.x0_star
    assert periodic_grid(c, period_table(params, [0.0]))[0] == c.x0_star


@PROPERTY
@given(params=models(), offsets=dyadic_offsets, x0=st.floats(1.0, 1000.0))
def test_far_period_lands_on_the_orbit(params, offsets, x0):
    # every start has converged to the orbit by k = 1e9 (q > 1), and no
    # absolute time t0 + k + s is ever formed.
    c, table = derive_constants(params), period_table(params, offsets)
    far = solution_grid(c, x0, [10**9], table)[0]
    np.testing.assert_allclose(far, periodic_grid(c, table), rtol=1e-12)


@pytest.mark.parametrize("k", [501, 900])
def test_log_space_branch_matches_direct_formula(k):
    # q close to 1 keeps q**k finite, so the reciprocal formula with its
    # explicit geometric sum is available as an independent check.
    params = ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(0.01), K=SinusoidCoefficient(100.0, 20.0)),
        E=0.005,
        t0=0.5,
    )
    consts = derive_constants(params)
    q, x0 = consts.q, 37.0
    offsets = [0.0, 0.25, 0.5, 0.875]
    table = period_table(params, offsets)
    got = solution_grid(consts, x0, [k], table)[0]
    for s, value in zip(offsets, got):
        decay = math.exp(-reference_integral(params.pair.r, params.t0, params.t0 + s))
        forcing = forcing_integrals(params.pair, params.t0, (s,), 64)[0][0]
        geometric = (1.0 - q ** (-k)) / (q - 1.0)
        recip = decay / (x0 * q**k) + consts.A * consts.B * geometric * decay + forcing
        assert value == pytest.approx(1.0 / recip, rel=1e-12)


def test_far_period_without_orbit_goes_extinct_quietly():
    params = golden_params(E=0.6)
    c, table = derive_constants(params), period_table(params, [0.0, 0.5])
    with np.errstate(all="raise"):
        far = solution_grid(c, 50.0, [10**9], table)
    assert far.tolist() == [[0.0, 0.0]]


def _ulps_from(x: float, n: int) -> float:
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


@pytest.mark.parametrize("ulps", [-1000, -3, -1, 0, 1, 3])
def test_solution_grid_near_threshold_matches_a_decimal_reference(ulps):
    # E within a few ulp of E*: the margin d and ln q = log1p(d exp(G)) carry
    # the same rounding, so (1 - q**-k) / d stays accurate as d -> 0.  The
    # reference takes the same float G, B, R and C and evaluates the closed
    # form to 50 digits.
    r, big_k, x0 = 0.7, 100.0, 50.0
    pair = CoefficientPair(r=ConstantCoefficient(r), K=ConstantCoefficient(big_k))
    E = _ulps_from(-math.expm1(-r), ulps)
    params = ModelParams(pair=pair, E=E, t0=0.5)
    ks = [1, 10, 1000, 10**6]
    table = period_table(params, [0.0, 0.25, 0.5, 1.0])
    got = solution_grid(derive_constants(params), x0, ks, table)

    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        G, B = D(reference_integral(params.pair.r, 0.0, 1.0)), D(derive_constants(params).B)
        d = (1 - D(E)) - (-G).exp()
        ln_q = (1 - D(E)).ln() + G
        for k, row in zip(ks, got):
            lead = (-k * ln_q).exp()
            total = (1 - lead) / d
            for value, decay, forcing in zip(row, table.decay, table.forcing):
                den = D(decay) * (lead + D(x0) * B * total) + D(x0) * D(forcing)
                rel = abs(D(value) / (D(x0) / den) - 1)
                assert rel <= D(1e-15 + k * 2.0**-52), (k, value)


@pytest.mark.parametrize("G", [1e-300, 1e-16, 2.0**-52, 1e-10, 1e-6])
def test_harvest_next_to_one_keeps_ln_q_accurate(G):
    # E = 1 - 2**-53 makes q = 2**-53 exp(G); d exp(G) = q - 1 sits within
    # rounding of -1, where 1 + (q - 1) has lost q's digits and log1p may have
    # no value, so ln q must come from log(1 - E) + G
    params = ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(G), K=ConstantCoefficient(100.0)),
        E=1.0 - 2.0**-53,
        t0=0.5,
    )
    consts = derive_constants(params)
    assert consts.ln_q == pytest.approx(-53.0 * math.log(2.0) + G, rel=1e-15)
    with np.errstate(all="raise"):
        x = solution_grid(consts, 50.0, [0, 1, 2], period_table(params, [0.0, 1.0]))
    # the period-advance map shares no ln q with the kernel
    x1 = closed_form.poincare_map(consts, 50.0)
    x2 = closed_form.poincare_map(consts, x1)
    assert x[0, 0] == 50.0
    np.testing.assert_allclose(x[1:, 0], [x1, x2], rtol=1e-13, atol=0.0)


def test_trajectory_closed_form_matches_scalar_path():
    params = random_params(np.random.default_rng(11), 2)
    traj = integrate(params, 80.0, 3, 64)
    c = derive_constants(params)
    closed, gap = trajectory_closed_form(traj, c)
    # simulate's row order: the samples row by row, then the end
    assert closed.shape == gap.shape == (traj.values.size + 1,)
    rows, end = closed[:-1].reshape(traj.values.shape), float(closed[-1])
    keep = 1.0 - params.E
    # the pre column: post / (1 - E), post the next row's first value or the end's
    assert rows[:, -1].tolist() == [v / keep for v in [*rows[1:, 0].tolist(), end]]
    for k, row in enumerate(rows[:, :-1].tolist()):
        for s, value in zip(traj.offsets.tolist(), row):
            alone = solution_grid(c, 80.0, [k], period_table(params, [s]))
            assert value == pytest.approx(alone[0, 0], rel=1e-13)
    alone = solution_grid(c, 80.0, [len(rows)], period_table(params, [0.0]))
    assert end == pytest.approx(alone[0, 0], rel=1e-13)
    numeric = [*traj.values.ravel().tolist(), traj.end]
    assert gap.tolist() == [abs(x - y) / y for x, y in zip(numeric, closed.tolist())]


# ---------------------------------------------------------------------------
# one clock: every result depends on frac(t0), never on t0's integer part
# ---------------------------------------------------------------------------


@st.composite
def crowded_jumps(draw) -> ModelParams:
    """Piecewise r and K whose jumps sit 1e-15 to 0.9e-12 from offset 0, from
    offset 1 (the phase, from either side) and from each other, with r/K
    spanning twelve decades."""
    t0 = draw(st.floats(0.01, 3.0))
    phase = t0 - math.floor(t0)
    gap = st.floats(1e-15, 0.9e-12)
    near = st.one_of(
        gap.map(lambda g: phase + g),
        gap.map(lambda g: phase - g),
        st.floats(0.01, 0.99),
    )

    def piecewise(low, high):
        cuts = draw(st.lists(near, min_size=1, max_size=4))
        # a pair of jumps at most 0.9e-12 apart
        cuts += [c + draw(gap) for c in cuts[:1]]
        bp = sorted({c % 1.0 for c in cuts} - {0.0})
        values = st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0**e)
        vals = draw(st.lists(values, min_size=len(bp) + 1, max_size=len(bp) + 1))
        return PiecewiseConstantCoefficient((0.0, *bp, 1.0), tuple(vals))

    return ModelParams(CoefficientPair(r=piecewise(0.2, 3.0), K=piecewise(1e-5, 1e5)), 0.0, t0)


@PROPERTY
@given(params=crowded_jumps())
def test_table_ends_on_B_when_jumps_crowd_a_split(params):
    # C(1) = B is the identity the jump rule rests on: with K constant on
    # pieces, the table and B are one sum over the same pieces of K, cut at
    # the same jump offsets however close, so they agree bit for bit
    table = period_table(params, [0.0, 0.5, 1.0])
    B = compute_B(params.pair, params.phase)
    assert table.forcing[-1] == B


@pytest.mark.parametrize("lag", [-5e-13, 5e-13])
def test_a_grid_offset_merges_no_jump(lag):
    # K jumps 5e-13 from offset 0.5, and B keeps that jump: a table with
    # offset 0.5 keeps it too, as a step of its own, so its C(1) still
    # matches B
    params = ModelParams(
        pair=CoefficientPair(
            r=ConstantCoefficient(1.0),
            K=PiecewiseConstantCoefficient((0.0, 0.5 + lag, 1.0), (1e-5, 1e5)),
        ),
        E=0.0,
        t0=1.0,
    )
    B = compute_B(params.pair, params.phase)
    assert period_table(params, [0.0, 0.5, 1.0]).forcing[-1] == pytest.approx(B, rel=1e-13)


@pytest.mark.parametrize("r_kind", ["constant", "sinusoid", "piecewise"])
@pytest.mark.parametrize("k_kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_integer_shift_of_t0_changes_nothing(r_kind, k_kind, data):
    pair = CoefficientPair(
        r=data.draw(coefficient_kinds(0.2, 3.0)[r_kind]),
        K=data.draw(coefficient_kinds(10.0, 500.0)[k_kind]),
    )
    e_crit = 1.0 - math.exp(-reference_integral(pair.r, 0.0, 1.0))
    E = data.draw(st.floats(0.0, 0.95)) * e_crit
    f = data.draw(st.integers(1, 63)) / 64.0
    n = data.draw(st.integers(1, 2**40))
    base, shifted = (ModelParams(pair=pair, E=E, t0=t0) for t0 in (f, f + n))

    assert derive_constants(shifted) == derive_constants(base)
    offsets = data.draw(dyadic_offsets)
    tables = [period_table(p, offsets) for p in (base, shifted)]
    for got, want in zip(tables[1], tables[0]):
        assert np.array_equal(got, want)
    orbits = [periodic_grid(derive_constants(p), t) for p, t in zip((base, shifted), tables)]
    assert np.array_equal(orbits[1], orbits[0])

    x0 = derive_constants(base).x0_star
    runs = [integrate(p, x0, 2, 32) for p in (base, shifted)]
    assert np.array_equal(runs[1].values, runs[0].values)
    assert runs[1].end == runs[0].end


# ---------------------------------------------------------------------------
# the checks that use the kernel must not read the same table on both sides
# ---------------------------------------------------------------------------

SINUSOID_R = ModelParams(
    pair=CoefficientPair(r=SinusoidCoefficient(mean=0.7, amp=0.2), K=ConstantCoefficient(100.0)),
    E=0.25,
    t0=0.5,
)


@pytest.mark.parametrize("params", [golden_params(), SINUSOID_R], ids=["golden", "sinusoid"])
def test_periodicity_check_catches_a_corrupted_table(monkeypatch, params):
    assert verify_periodicity(params).passed
    corrupt_period_table(monkeypatch, 0.5, lambda c: c * (1.0 + 1e-5))
    report = verify_periodicity(params)
    failed = {rec.location for rec in report.records if not rec.passed}
    assert failed == {f"k={k} offset=0.5" for k in range(5)}


def test_oracle_check_catches_a_corrupted_table(monkeypatch, capsys):
    # C(1/256) is a sample of every period at the default step, but not one
    # of 64 evenly spaced per period: scaled by 1.1 it moves simulate's
    # rel_diff to 1.35e-4, which only a check of every sample sees
    argv = ["verify", "--config", str(CONFIG_DIR / "golden_constant.json"), "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    corrupt_period_table(monkeypatch, 1 / 256, lambda c: c * 1.1)
    assert cli.main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "closed form vs numerical oracle" in {c["check"] for c in checks if not c["passed"]}


@pytest.mark.parametrize(
    "name", ["golden_constant", "overharvest", "piecewise_mixed", "sinusoid_r"]
)
def test_oracle_record_is_the_largest_rel_diff_of_simulate(capsys, name):
    config = str(CONFIG_DIR / f"{name}.json")
    assert cli.main(["simulate", "--config", config]) == 0
    rel_diff = [float(row.split(",")[4]) for row in capsys.readouterr().out.splitlines()[1:]]
    cli.main(["verify", "--config", config, "--format", "json"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    (oracle,) = [c for c in checks if c["check"] == "closed form vs numerical oracle"]
    assert oracle["records"][0]["residual"] == max(rel_diff)


def test_oracle_label_holds_under_a_last_ulp_change(monkeypatch, capsys):
    # on the orbit the largest gap repeats period after period: C(62/128)
    # two ulps lower moves the solution record by one ulp of x, from
    # 5.493134002266222e-11, and its label by no period at all
    argv = ["verify", "--config", str(CONFIG_DIR / "piecewise_mixed.json"), "--periods", "40"]

    def oracle_records():
        cli.main([*argv, "--format", "json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        (oracle,) = [c for c in checks if c["check"] == "closed form vs numerical oracle"]
        return oracle["records"]

    before = oracle_records()
    corrupt_period_table(monkeypatch, 62 / 128, lambda c: np.nextafter(np.nextafter(c, 0), 0))
    after = oracle_records()
    assert before[0]["residual"] == 5.493134002266222e-11
    assert after[0]["residual"] == 5.4931549217967417e-11
    assert [r["location"] for r in after] == [r["location"] for r in before]


@pytest.mark.parametrize("params", [golden_params(), SINUSOID_R], ids=["golden", "sinusoid"])
def test_jump_check_catches_a_corrupted_table(monkeypatch, params):
    # both jump checks read the pre-impulse value at offset 1, where only the
    # table's C(1) against compute_B's B keeps them passing
    assert verify_impulse_condition("corrected", params).passed
    assert verify_impulse_condition("legacy", params).passed
    corrupt_period_table(monkeypatch, 1.0, lambda c: c * (1.0 + 1e-4))
    corrected = verify_impulse_condition("corrected", params)
    assert not any(rec.passed for rec in corrected.records)
    legacy = verify_impulse_condition("legacy", params)
    assert not any(rec.passed for rec in legacy.records if "continuity" in rec.location)


ORBIT_CONFIGS = ["golden_constant", "sinusoid_r", "piecewise_mixed"]


class _ScaledGeometricSum:
    """numpy, but with expm1 scaled by 1 + 1e-7.  In closed_form only the
    geometric sum -expm1(-k ln q) / d of ``solution_grid`` calls expm1."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def expm1(x):
        return np.expm1(x) * (1.0 + 1e-7)


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_verify_catches_a_scaled_geometric_sum(monkeypatch, capsys, name):
    # the sum is 0 at k = 0, so only records computed at their own k >= 1
    # can see it: the periodicity residuals read about 8e-8 against 1e-8
    argv = ["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(closed_form, "np", _ScaledGeometricSum())
    assert cli.main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "periodicity" in {check["check"] for check in checks if not check["passed"]}


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_periodicity_check_catches_a_scaled_B(monkeypatch, capsys, name):
    # the reference side takes its own B from its 128-panel windows, so a
    # kernel B off by 1e-7 shows as residuals of about 1e-7 against 1e-8
    argv = ["verify", "--config", str(CONFIG_DIR / f"{name}.json"), "--format", "json"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    real = closed_form.compute_B
    monkeypatch.setattr(
        closed_form, "compute_B", lambda pair, phase: real(pair, phase) * (1.0 + 1e-7)
    )
    assert cli.main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert "periodicity" in {check["check"] for check in checks if not check["passed"]}
    # with B right and the anchor d / B moved by 1e-7, the solution from it
    # misses the reference orbit by 1e-7, and periodicity alone fails
    monkeypatch.undo()
    constants = closed_form.SolutionConstants

    def moved_anchor(**fields):
        return constants(**fields | {"x0_star": fields["x0_star"] * (1.0 + 1e-7)})

    monkeypatch.setattr(closed_form, "SolutionConstants", moved_anchor)
    assert cli.main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {check["check"] for check in checks if not check["passed"]} == {"periodicity"}


@pytest.mark.parametrize("name", ORBIT_CONFIGS)
def test_solution_from_the_anchor_holds_the_orbit_at_k_one_million(name):
    # the periodicity records stop at k = 4; far out, q**-k and the geometric
    # sum must still carry the anchor along the orbit
    params = cli.load_config(CONFIG_DIR / f"{name}.json").params
    c = derive_constants(params)
    offsets = [j / 16.0 for j in range(17)]
    table = period_table(params, offsets)
    far = solution_grid(c, c.x0_star, [10**6], table)[0]
    np.testing.assert_allclose(far, periodic_grid(c, table), rtol=1e-15, atol=0.0)
    reference = analysis._orbit_by_quadrature(params, c, offsets)
    np.testing.assert_allclose(far, reference, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# cost: coefficient evaluations grow with the output, not output x panels
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluated_nodes(monkeypatch):
    """Count every node at which a coefficient or its growth is evaluated:
    by each kind's own methods, the scalar ``float_growth`` among them, at
    RK4 stages, in the sums over the pieces of K, or in the pair's one
    pass, which counts its nodes once for the three calls it makes."""
    count = [0]
    inside = [False]

    def counted(method):
        # a node per element of the largest argument: the times of
        # piece_values, or the phases or offsets of a growth or of the pass
        def wrapper(self, *args):
            if inside[0]:
                return method(self, *args)
            count[0] += max(map(np.size, args))
            inside[0] = True
            try:
                return method(self, *args)
            finally:
                inside[0] = False

        return wrapper

    for owner, name in [
        *(
            (kind, name)
            for kind in KINDS
            for name in ("piece_values", "growth", "float_growth")
        ),
        (CoefficientPair, "ratio_and_growth"),
    ]:
        monkeypatch.setattr(owner, name, counted(getattr(owner, name)))
    compute_B.cache_clear()  # count the constants' quadrature too
    return count


PIECEWISE_K = {
    "r": {"kind": "sinusoid", "mean": 0.7, "amp": 0.2},
    "K": {"kind": "piecewise", "breakpoints": [0.0, 0.3, 0.71, 1.0], "values": [80, 120, 100]},
    "E": 0.25,
    "t0": 1.37,
}


@pytest.mark.parametrize(
    "scenario",
    [json.loads((CONFIG_DIR / "golden_constant.json").read_text()), PIECEWISE_K],
    ids=["golden_constant", "piecewise-K"],
)
def test_constants_read_a_point_per_piece_of_K(evaluated_nodes, scenario):
    # with K constant on pieces, B is a sum over its pieces: the config
    # check and the constants read r's growth once per piece and once at
    # offset 1, where a quadrature of B reads 640 nodes or more
    config = cli.parse_config(scenario)
    cli.cmd_constants(config, "text")
    pieces = len(config.params.pair.K.pieces(config.params.phase)[0])
    assert 0 < evaluated_nodes[0] <= pieces + 1


# RK4 alone evaluates r and K at 3 stage times per step of one period;
# one quadrature per row, as before the period table, costs about 1000.
NODES_PER_ROW = 16


def test_simulate_cost_is_linear_in_rows(evaluated_nodes):
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    config = dataclasses.replace(config, horizon_periods=40)
    rows = len(cli.cmd_simulate(config, "csv")[0].splitlines()) - 1
    assert rows == 40 * 257 + 1
    assert evaluated_nodes[0] <= NODES_PER_ROW * rows


def test_periodic_cost_is_linear_in_rows(evaluated_nodes):
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    rows = len(cli.cmd_periodic(config, "csv")[0].splitlines()) - 1
    assert rows == 5 * 256
    assert evaluated_nodes[0] <= NODES_PER_ROW * rows


def test_orbit_mean_cost_is_linear_in_its_nodes(evaluated_nodes):
    periodic_orbit_mean(SINUSOID_R, [derive_constants(SINUSOID_R)])
    mean_nodes = 64 * 10  # order-10 Gauss-Legendre on 64 panels
    # one pass over r, K and R at ten table nodes per mean node, plus the
    # table's edges and the constants
    assert evaluated_nodes[0] <= 16 * mean_nodes


SWEEP_FRACTIONS = tuple(j / 500 for j in range(300))


def test_sweep_cost_does_not_grow_with_its_fractions(evaluated_nodes):
    # one mean table serves every fraction, and a fraction's constants are
    # scalar arithmetic on the cached G and B
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    cli.cmd_sweep(dataclasses.replace(config, e_values=(0.25,)), "csv")
    one = evaluated_nodes[0]
    compute_B.cache_clear()
    evaluated_nodes[0] = 0
    cli.cmd_sweep(dataclasses.replace(config, e_values=SWEEP_FRACTIONS), "csv")
    assert evaluated_nodes[0] <= one + 2 * len(SWEEP_FRACTIONS)


@pytest.mark.parametrize("name", ["sinusoid_r", "piecewise_mixed"])
def test_sweep_builds_one_period_table(monkeypatch, name):
    tables = [0]
    real = closed_form.period_table

    def counted(params, offsets):
        tables[0] += 1
        return real(params, offsets)

    monkeypatch.setattr(closed_form, "period_table", counted)
    config = cli.load_config(CONFIG_DIR / f"{name}.json")
    cli.cmd_sweep(dataclasses.replace(config, e_values=SWEEP_FRACTIONS), "csv")
    assert tables[0] == 1


@pytest.mark.parametrize("name", ["sinusoid_r", "piecewise_mixed"])
def test_legacy_check_costs_no_more_than_the_corrected_one(evaluated_nodes, name):
    # both read one two-offset table; the legacy check evaluates no window
    # quadrature of its own
    params = cli.load_config(CONFIG_DIR / f"{name}.json").params
    nodes = {}
    for which in ("corrected", "legacy"):
        compute_B.cache_clear()
        evaluated_nodes[0] = 0
        verify_impulse_condition(which, params)
        nodes[which] = evaluated_nodes[0]
    assert nodes["legacy"] <= nodes["corrected"]


@pytest.mark.parametrize("name", ["sinusoid_r", "piecewise_mixed"])
def test_counterexample_builds_one_period_table(monkeypatch, name):
    # the corrected and the legacy check read the same two-offset table
    tables = [0]
    real = closed_form.period_table

    def counted(params, offsets):
        tables[0] += 1
        return real(params, offsets)

    for module in (cli, analysis):
        monkeypatch.setattr(module, "period_table", counted)
    _, code = cli.cmd_counterexample(cli.load_config(CONFIG_DIR / f"{name}.json"), "json")
    assert code == 0 and tables[0] == 1


def test_periodicity_reference_lays_its_own_panels(monkeypatch):
    # the reference cuts the period by the kernel's rule at twice its panel
    # count, so B's quadrature nodes are almost never reference nodes: on
    # piecewise_mixed 10 of 650, from a panel beside a jump of r that both
    # partitions cut alike; at the kernel's own count all 650 would be
    params = cli.load_config(CONFIG_DIR / "piecewise_mixed.json").params
    consts = derive_constants(params)
    passes = []
    real = CoefficientPair.ratio_and_growth

    def recorded(self, phase, s, key):
        passes.append(np.asarray(s))
        return real(self, phase, s, key)

    monkeypatch.setattr(CoefficientPair, "ratio_and_growth", recorded)
    compute_B.cache_clear()
    compute_B(params.pair, params.phase)
    analysis._orbit_by_quadrature(params, consts, analysis._PERIODICITY_OFFSETS)
    kernel, reference = passes
    nodes = kernel[:-1]  # the last is offset 1, the end of the window
    assert nodes.size == 650
    assert np.isin(nodes, reference).sum() <= nodes.size // 32


def test_periodicity_reference_is_one_quadrature_call(monkeypatch, evaluated_nodes):
    # the 16 reference windows and the unit window of the reference's own B
    # share one evaluation of r and K, and cost no more nodes than the same
    # windows taken one call each
    calls = []
    batched = analysis.forcing_integrals

    def counted(*args):
        calls.append(args)
        return batched(*args)

    monkeypatch.setattr(analysis, "forcing_integrals", counted)
    verify_periodicity(SINUSOID_R)
    assert len(calls) == 1 and len(calls[0][2]) == 17 and calls[0][2][-1] == 1.0

    pair, phase, offsets, panels_per_unit = calls[0]
    evaluated_nodes[0] = 0
    batched(pair, phase, offsets, panels_per_unit)
    together = evaluated_nodes[0]
    evaluated_nodes[0] = 0
    for s in offsets:
        forcing_integrals(pair, phase, (s,), panels_per_unit)
    assert 0 < together <= evaluated_nodes[0]


# r and K at 3 stage times, once per run; a call per stage and step would
# be thousands here, and one table per period 40 times this.
CALLS_PER_RUN = 6


# the default step, and 4 times as many steps for the same count of calls
@pytest.mark.parametrize("steps_per_unit", [None, 1024])
@pytest.mark.parametrize(
    "pair",
    [
        SINUSOID_R.pair,
        CoefficientPair(
            r=PiecewiseConstantCoefficient((0.0, 0.3, 1.0), (0.5, 1.2)),
            K=SinusoidCoefficient(100.0, 20.0),
        ),
    ],
    ids=["sinusoid-constant", "piecewise-sinusoid"],
)
def test_integrate_calls_coefficients_per_stretch_not_per_step(monkeypatch, pair, steps_per_unit):
    calls = [0]

    def counted(method):
        def wrapper(self, t, key):
            calls[0] += 1
            return method(self, t, key)

        return wrapper

    for kind in KINDS:
        monkeypatch.setattr(kind, "piece_values", counted(kind.piece_values))
    params = ModelParams(pair=pair, E=0.25, t0=0.5)
    steps = () if steps_per_unit is None else (steps_per_unit,)
    traj = integrate(params, 60.0, 40, *steps)
    assert traj.values.shape[0] == 40
    assert 0 < calls[0] <= CALLS_PER_RUN
