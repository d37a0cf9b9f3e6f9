"""The period-table kernel: accuracy, its edges, independence of the checks
that use it, and its cost in coefficient evaluations."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsive_logistic import (
    CoefficientPair,
    ConstantCoefficient,
    ModelParams,
    PeriodicCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    StepControl,
    analysis,
    cli,
    closed_form,
    derive_constants,
    forcing_integral,
    integrate,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
    solution_grid,
    trajectory_closed_form,
    verify_impulse_condition,
    verify_periodicity,
)
from impulsive_logistic.analysis import RICHARDSON_OFFSETS

from helpers import golden_params, random_params

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Fixed seed and a bounded example count keep the suite fast and repeatable.
PROPERTY = settings(max_examples=50, derandomize=True, deadline=None, database=None)

# Dyadic t0, offsets and breakpoints: t0 + s is exact, so the kernel (at
# frac(t0) + s) and the scalar quadrature (at t0 + s) integrate over the
# same window.
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
    e_crit = 1.0 - math.exp(-pair.r.integral(0.0, 1.0))
    E = draw(st.floats(0.0, 0.95)) * e_crit
    return ModelParams(pair=pair, E=E, t0=draw(dyadic_t0))


# ---------------------------------------------------------------------------
# accuracy against the scalar quadrature
# ---------------------------------------------------------------------------


@PROPERTY
@given(params=models(), offsets=dyadic_offsets)
def test_table_matches_scalar_quadrature(params, offsets):
    table = period_table(params, offsets)
    for s, growth, forcing in zip(offsets, table.growth, table.forcing):
        a, b = params.t0, params.t0 + s
        assert growth == pytest.approx(params.r.integral(a, b), rel=1e-12, abs=1e-14)
        assert forcing == pytest.approx(forcing_integral(params.pair, a, b), rel=1e-12)


@PROPERTY
@given(params=models(), offsets=dyadic_offsets)
def test_offset_zero_is_the_anchor_bit_for_bit(params, offsets):
    x0_star = derive_constants(params).x0_star
    orbit = periodic_grid(params, period_table(params, [0.0, *offsets]))
    assert orbit[0] == x0_star
    assert periodic_grid(params, period_table(params, [0.0]))[0] == x0_star


@PROPERTY
@given(params=models(), offsets=dyadic_offsets, x0=st.floats(1.0, 1000.0))
def test_far_period_lands_on_the_orbit(params, offsets, x0):
    # k = 1e9 runs the log-space branch; every start has converged to the
    # orbit by then (q > 1), and no absolute time t0 + k + s is ever formed.
    table = period_table(params, offsets)
    far = solution_grid(params, x0, [10**9], table)[0]
    np.testing.assert_allclose(far, periodic_grid(params, table), rtol=1e-12)


@pytest.mark.parametrize("k", [501, 900])
def test_log_space_branch_matches_direct_formula(k):
    # q close to 1 keeps q**k finite, so the direct formula is available
    # beside the log-space one the kernel takes for k > 500.
    params = ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(0.01), K=SinusoidCoefficient(100.0, 20.0)),
        E=0.005,
        t0=0.5,
    )
    consts = derive_constants(params)
    q, x0 = consts.q, 37.0
    offsets = [0.0, 0.25, 0.5, 0.875]
    table = period_table(params, offsets)
    got = solution_grid(params, x0, [k], table)[0]
    for s, value in zip(offsets, got):
        decay = math.exp(-params.r.integral(params.t0, params.t0 + s))
        forcing = forcing_integral(params.pair, params.t0, params.t0 + s)
        geometric = (1.0 - q ** (-k)) / (q - 1.0)
        recip = decay / (x0 * q**k) + consts.A * consts.B * geometric * decay + forcing
        assert value == pytest.approx(1.0 / recip, rel=1e-12)


def test_far_period_without_orbit_goes_extinct_quietly():
    params = golden_params(E=0.6)
    with np.errstate(all="raise"):
        far = solution_grid(params, 50.0, [10**9], period_table(params, [0.0, 0.5]))
    assert far.tolist() == [[0.0, 0.0]]


def test_trajectory_closed_form_matches_scalar_path():
    params = random_params(np.random.default_rng(11), 2)
    traj = integrate(params, 80.0, 3, StepControl(h=1.0 / 64.0))
    closed = trajectory_closed_form(traj)
    keep = 1.0 - params.E
    last = len(traj.pieces) - 1
    for i, (piece, values) in enumerate(zip(traj.pieces, closed)):
        for j, (s, value) in enumerate(zip(piece.offsets.tolist(), values)):
            if i < last and j == len(values) - 1:
                assert value == closed[i + 1][0] / keep  # pre row: post / (1 - E)
            else:
                alone = solution_grid(params, 80.0, [piece.segment], period_table(params, [s]))
                assert value == pytest.approx(alone[0, 0], rel=1e-13)


# ---------------------------------------------------------------------------
# one clock: every result depends on frac(t0), never on t0's integer part
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r_kind", ["constant", "sinusoid", "piecewise"])
@pytest.mark.parametrize("k_kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=8, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_integer_shift_of_t0_changes_nothing(r_kind, k_kind, data):
    pair = CoefficientPair(
        r=data.draw(coefficient_kinds(0.2, 3.0)[r_kind]),
        K=data.draw(coefficient_kinds(10.0, 500.0)[k_kind]),
    )
    e_crit = 1.0 - math.exp(-pair.r.integral(0.0, 1.0))
    E = data.draw(st.floats(0.0, 0.95)) * e_crit
    f = data.draw(st.integers(1, 63)) / 64.0
    n = data.draw(st.integers(1, 2**40))
    base, shifted = (ModelParams(pair=pair, E=E, t0=t0) for t0 in (f, f + n))

    assert derive_constants(shifted) == derive_constants(base)
    offsets = data.draw(dyadic_offsets)
    tables = [period_table(p, offsets) for p in (base, shifted)]
    for got, want in zip(tables[1], tables[0]):
        assert np.array_equal(got, want)
    assert np.array_equal(periodic_grid(shifted, tables[1]), periodic_grid(base, tables[0]))

    x0, ctrl = derive_constants(base).x0_star, StepControl(h=1.0 / 32.0)
    runs = [integrate(p, x0, 2, ctrl) for p in (base, shifted)]
    assert len(runs[1].pieces) == len(runs[0].pieces)
    for got, want in zip(runs[1].pieces, runs[0].pieces):
        assert np.array_equal(got.values, want.values)


# ---------------------------------------------------------------------------
# the checks that use the kernel must not read the same table on both sides
# ---------------------------------------------------------------------------

SINUSOID_R = ModelParams(
    pair=CoefficientPair(r=SinusoidCoefficient(mean=0.7, amp=0.2), K=ConstantCoefficient(100.0)),
    E=0.25,
    t0=0.5,
)


def _corrupt_table_at(monkeypatch, offset: float, factor: float) -> None:
    """Scale C(offset) in every period table built from now on."""
    real = closed_form.period_table

    def corrupted(params, offsets):
        table = real(params, offsets)
        hit = table.offsets == offset
        return table._replace(forcing=np.where(hit, factor * table.forcing, table.forcing))

    for module in (closed_form, analysis):
        monkeypatch.setattr(module, "period_table", corrupted)


@pytest.mark.parametrize("params", [golden_params(), SINUSOID_R], ids=["golden", "sinusoid"])
def test_periodicity_check_catches_a_corrupted_table(monkeypatch, params):
    assert verify_periodicity(params).passed
    _corrupt_table_at(monkeypatch, 0.5, 1.0 + 1e-5)
    report = verify_periodicity(params)
    failed = {rec.location for rec in report.records if not rec.passed}
    assert failed == {f"k={k} offset=0.5" for k in range(5)}


@pytest.mark.parametrize("params", [golden_params(), SINUSOID_R], ids=["golden", "sinusoid"])
def test_jump_check_catches_a_corrupted_table(monkeypatch, params):
    assert verify_impulse_condition("corrected", params).passed
    _corrupt_table_at(monkeypatch, 1.0 - RICHARDSON_OFFSETS[0] / 4.0, 1.0 + 1e-4)
    report = verify_impulse_condition("corrected", params)
    assert not any(rec.passed for rec in report.records)


# ---------------------------------------------------------------------------
# cost: coefficient evaluations grow with the output, not output x panels
# ---------------------------------------------------------------------------


@pytest.fixture
def evaluated_nodes(monkeypatch):
    """Count every node at which a coefficient or its antiderivative is evaluated."""
    count = [0]
    call, antiderivative = PeriodicCoefficient.__call__, PeriodicCoefficient.antiderivative

    def counted(method):
        def wrapper(self, t):
            count[0] += np.size(t)
            return method(self, t)

        return wrapper

    monkeypatch.setattr(PeriodicCoefficient, "__call__", counted(call))
    monkeypatch.setattr(PeriodicCoefficient, "antiderivative", counted(antiderivative))
    closed_form.derive_constants.cache_clear()
    yield count
    closed_form.derive_constants.cache_clear()


# RK4 alone evaluates r and K at 3 stage times per step of one period;
# one quadrature per row, as before the period table, costs about 1000.
NODES_PER_ROW = 16


def test_simulate_cost_is_linear_in_rows(evaluated_nodes):
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    config = dataclasses.replace(config, horizon_periods=40)
    rows = len(cli.cmd_simulate(config).splitlines()) - 1
    assert rows == 40 * 257 + 1
    assert evaluated_nodes[0] <= NODES_PER_ROW * rows


def test_periodic_cost_is_linear_in_rows(evaluated_nodes):
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    rows = len(cli.cmd_periodic(config).splitlines()) - 1
    assert rows == 5 * 256
    assert evaluated_nodes[0] <= NODES_PER_ROW * rows


def test_orbit_mean_cost_is_linear_in_its_nodes(evaluated_nodes):
    periodic_orbit_mean(SINUSOID_R)
    mean_nodes = 64 * 10  # order-10 Gauss-Legendre on 64 panels
    # three evaluations (r, K, antiderivative of r) at ten table nodes per
    # mean node, plus the constants
    assert evaluated_nodes[0] <= 40 * mean_nodes


# r and K at 3 stage times, 3 more for the half steps of the error
# estimate, once per run; a call per stage and step would be thousands here,
# and one table per period 40 times this.
CALLS_PER_RUN = 12


@pytest.mark.parametrize("error_target", [None, 1e-6])
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
def test_integrate_calls_coefficients_per_stretch_not_per_step(monkeypatch, pair, error_target):
    calls = [0]
    call = PeriodicCoefficient.__call__

    def counted(self, t):
        calls[0] += 1
        return call(self, t)

    monkeypatch.setattr(PeriodicCoefficient, "__call__", counted)
    params = ModelParams(pair=pair, E=0.25, t0=0.5)
    traj = integrate(params, 60.0, 40, StepControl(h=1.0 / 256.0, error_target=error_target))
    assert len(traj.pieces) == 41
    assert calls[0] <= CALLS_PER_RUN
