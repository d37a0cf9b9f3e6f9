"""Coefficient families, exact integrals, and the forcing constant B."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsive_logistic import (
    CoefficientPair,
    ConstantCoefficient,
    ModelParams,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    StepControl,
    closed_form,
    coefficient_from_dict,
    compute_B,
    derive_constants,
    integrate,
    period_table,
)
from impulsive_logistic import coefficients
from impulsive_logistic.coefficients import forcing_integrals
from numpy.polynomial.legendre import leggauss

from helpers import exact_B, random_coefficient

LN2 = math.log(2.0)

PWC = PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(1.0, 2.0))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_constant_eval_anywhere():
    c = ConstantCoefficient(0.693147)
    assert c(17.3) == 0.693147
    assert c(-4.25) == 0.693147


def test_sinusoid_eval_quarter_period():
    c = SinusoidCoefficient(mean=0.7, amp=0.2, phase=0.0)
    assert c(0.25) == pytest.approx(0.9, rel=1e-15)


def test_piecewise_eval_interior_values():
    assert PWC(0.25) == 1.0
    assert PWC(0.75) == 2.0
    assert PWC(1.75) == 2.0
    assert PWC(-0.25) == 2.0


def test_piecewise_eval_left_limit_at_jumps():
    # At a jump the periodic extension takes its left-limit value: the
    # first segment's value at the interior breakpoint, and the last
    # segment's value at the period boundary.
    assert PWC(0.5) == 1.0
    assert PWC(0.0) == 2.0
    assert PWC(1.0) == 2.0
    assert PWC(3.5) == 1.0


def test_eval_is_periodic():
    rng = np.random.default_rng(1)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        for t in rng.uniform(-3.0, 7.0, size=50):
            assert c(t + 1.0) == pytest.approx(c(t), rel=1e-12)


def test_vectorized_eval_matches_scalar():
    c = SinusoidCoefficient(mean=0.7, amp=0.2, phase=0.4)
    ts = np.linspace(-1.0, 2.0, 17)
    out = c(ts)
    assert out.shape == ts.shape
    for t, v in zip(ts, out):
        assert v == c(float(t))


def test_stage_values_match_scalar_calls_bit_for_bit():
    # The RK4 stepper evaluates one period's steps at once and must reproduce
    # the per-step scalar calls exactly, at times near 1 and near 1e7.
    rng = np.random.default_rng(5)
    ta = np.concatenate((rng.uniform(0.0, 3.0, 2048), rng.uniform(1e5, 1e7, 2048)))
    h = 2.0 ** -rng.integers(0, 9, ta.size)
    stages = np.stack((ta, ta + 0.5 * h, ta + h))
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        got = c.piece_values(stages, np.broadcast_to(stages[1], stages.shape))
        for times, values in zip(stages, got):
            if kind == "piecewise":  # the midpoint value at every stage
                times = stages[1]
            assert np.array_equal(values, [c(float(t)) for t in times])


# ---------------------------------------------------------------------------
# construction guards
# ---------------------------------------------------------------------------


def test_constant_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        ConstantCoefficient(0.0)
    with pytest.raises(ValueError, match="positive"):
        ConstantCoefficient(-1.0)


def test_sinusoid_must_stay_positive():
    with pytest.raises(ValueError, match="mean > |amp|".replace("|", r"\|")):
        SinusoidCoefficient(mean=0.2, amp=0.2)
    with pytest.raises(ValueError):
        SinusoidCoefficient(mean=0.2, amp=-0.3)
    SinusoidCoefficient(mean=0.2, amp=0.0)  # amp = 0 is fine


def test_piecewise_construction_guards():
    with pytest.raises(ValueError, match="0.0 to 1.0"):
        PiecewiseConstantCoefficient(breakpoints=(0.1, 1.0), values=(1.0,))
    with pytest.raises(ValueError, match="strictly increasing"):
        PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 0.5, 1.0), values=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="expected 2 values"):
        PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(1.0,))
    with pytest.raises(ValueError, match="positive"):
        PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(1.0, -2.0))


# ---------------------------------------------------------------------------
# exact antiderivatives
# ---------------------------------------------------------------------------


def test_antiderivative_constant():
    c = ConstantCoefficient(LN2)
    assert c.integral(0.5, 1.5) == pytest.approx(LN2, rel=1e-15)


def test_antiderivative_sinusoid_full_period():
    c = SinusoidCoefficient(mean=0.7, amp=0.2, phase=0.0)
    assert c.integral(0.0, 1.0) == pytest.approx(0.7, abs=1e-15)


def test_antiderivative_piecewise_two_periods():
    assert PWC.integral(0.0, 2.0) == pytest.approx(3.0, rel=1e-15)


def test_antiderivative_matches_quadrature():
    # Brute-force midpoint-rule check of the analytic antiderivative.  The
    # rule itself carries O(1/N) bias at each jump of a piecewise function,
    # so that kind gets a tolerance matching the oracle's own error.
    rng = np.random.default_rng(7)
    for kind, rel in (("constant", 1e-9), ("sinusoid", 1e-9), ("piecewise", 3e-5)):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        a, b = -0.7, 1.9
        s = np.linspace(a, b, 200_001)
        mid = 0.5 * (s[1:] + s[:-1])
        brute = float(np.sum(c(mid)) * (s[1] - s[0]))
        assert c.integral(a, b) == pytest.approx(brute, rel=rel)


def test_reversed_interval_is_an_error():
    with pytest.raises(ValueError, match="reversed"):
        PWC.integral(1.0, 0.0)


def test_antiderivative_is_additive():
    rng = np.random.default_rng(11)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        for _ in range(20):
            a, b, x = np.sort(rng.uniform(-2.0, 5.0, size=3))
            whole = c.integral(a, x)
            split = c.integral(a, b) + c.integral(b, x)
            assert split == pytest.approx(whole, rel=1e-14, abs=1e-14)


# ---------------------------------------------------------------------------
# the pair's one pass and the exact period mean
# ---------------------------------------------------------------------------

_KIND_STRATEGIES = {
    "constant": st.floats(0.01, 100.0).map(ConstantCoefficient),
    "sinusoid": st.builds(
        lambda mean, frac, phase: SinusoidCoefficient(mean=mean, amp=frac * mean, phase=phase),
        st.floats(0.01, 100.0),
        st.floats(-0.99, 0.99),
        st.floats(-10.0, 10.0),
    ),
    "piecewise": st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=3, unique=True
    ).flatmap(
        lambda inner: st.builds(
            PiecewiseConstantCoefficient,
            st.just((0.0, *sorted(inner), 1.0)),
            st.tuples(*[st.floats(0.01, 100.0)] * (len(inner) + 1)),
        )
    ),
}
_WHOLE = st.integers(0, 10**8)


@st.composite
def _pair_and_times(draw, r_kind: str, k_kind: str):
    pair = CoefficientPair(r=draw(_KIND_STRATEGIES[r_kind]), K=draw(_KIND_STRATEGIES[k_kind]))
    jumps = (0.0, *_breaks(pair))
    time = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        _WHOLE.map(float),
        _WHOLE.map(lambda m: math.nextafter(float(m), -math.inf)),  # one ulp below
        st.tuples(st.sampled_from(jumps), _WHOLE).map(lambda bm: bm[0] + bm[1]),
        st.floats(0.0, 1e8),
    )
    return pair, draw(st.lists(time, min_size=1, max_size=40))


@pytest.mark.parametrize("k_kind", ["constant", "sinusoid", "piecewise"])
@pytest.mark.parametrize("r_kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_pair_pass_is_the_coefficients_own_evaluation(r_kind, k_kind, data):
    pair, times = data.draw(_pair_and_times(r_kind, k_kind))
    t = np.array(times)
    ratio, growth = pair.ratio_and_growth(t, t)
    assert ratio.tobytes() == (pair.r(t) / pair.K(t)).tobytes()
    assert growth.tobytes() == pair.r.antiderivative(t).tobytes()
    for time, got_ratio, got_growth in zip(times, ratio.tolist(), growth.tolist()):
        assert got_ratio == pair.r(time) / pair.K(time)
        assert got_growth == pair.r.antiderivative(time)
    # keyed on other times, a coefficient with jumps reads its value there
    key = t[::-1].copy()
    ratio, keyed_growth = pair.ratio_and_growth(t, key)
    assert keyed_growth.tobytes() == growth.tobytes()
    r_values, K_values = (c(key) if c.kind == "piecewise" else c(t) for c in (pair.r, pair.K))
    assert ratio.tobytes() == (r_values / K_values).tobytes()


@pytest.mark.parametrize("kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_period_mean_is_the_integral_over_one_period(kind, data):
    c = data.draw(_KIND_STRATEGIES[kind])
    assert type(c.mean) is float
    assert c.mean == c.integral(0.0, 1.0)


# ---------------------------------------------------------------------------
# A = exp(growth integral), derived in closed_form.derive_constants
# ---------------------------------------------------------------------------


def test_A_equals_exp_integral_over_any_unit_window():
    rng = np.random.default_rng(3)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        a_ref = _growth_factor(c)
        for start in rng.uniform(-2.0, 4.0, size=25):
            shifted = math.exp(c.integral(start, start + 1.0))
            assert shifted == pytest.approx(a_ref, rel=1e-12)


def test_A_exceeds_one_for_positive_rate():
    rng = np.random.default_rng(5)
    for kind in ("constant", "sinusoid", "piecewise"):
        assert _growth_factor(random_coefficient(rng, kind, 0.05, 1.5)) > 1.0


def _growth_factor(r) -> float:
    pair = CoefficientPair(r=r, K=ConstantCoefficient(100.0))
    return derive_constants(ModelParams(pair=pair, E=0.0, t0=0.5)).A


# ---------------------------------------------------------------------------
# B
# ---------------------------------------------------------------------------


def _pair(r, K):
    return CoefficientPair(r=r, K=K)


def _breaks(pair):
    """Every point in [0, 1) where r or K may jump."""
    return pair.r.breakpoints_mod1() + pair.K.breakpoints_mod1()


def test_compute_B_constant_case():
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    for phase in (0.5, 0.125, 0.6, 0.0):
        G, B = compute_B(pair, phase)
        assert G == LN2  # the growth integral comes with B
        assert B == pytest.approx(0.005, rel=1e-13)
    unit = _pair(ConstantCoefficient(LN2), ConstantCoefficient(1.0))
    assert compute_B(unit, 0.5)[1] == pytest.approx(0.5, rel=1e-13)


def test_compute_B_sinusoid_vs_brute_force():
    # Trapezoid oracle with a million panels, all formulas written inline.
    t0 = 0.5
    s = np.linspace(t0, t0 + 1.0, 1_000_001)
    rate = 0.7 + 0.2 * np.sin(2.0 * np.pi * s)
    antider = 0.7 * s - (0.2 / (2.0 * np.pi)) * (np.cos(2.0 * np.pi * s) - 1.0)
    kernel = rate / 100.0 * np.exp(antider - antider[-1])
    brute = float(np.trapezoid(kernel, s))

    pair = _pair(SinusoidCoefficient(mean=0.7, amp=0.2), ConstantCoefficient(100.0))
    assert compute_B(pair, t0)[1] == pytest.approx(brute, rel=1e-10)

    # 64 panels per unit are converged: doubling them moves B by rounding
    # only, on this pair and on a constant and a jumping one.
    rng = np.random.default_rng(19)
    jumping = _pair(
        random_coefficient(rng, "piecewise", 0.3, 1.5),
        random_coefficient(rng, "sinusoid", 50.0, 200.0),
    )
    for other in (_pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0)), pair, jumping):
        _, b = compute_B(other, t0)
        assert abs(forcing_integrals(other, t0, (1.0,), 128)[0][0] - b) <= 1e-14 * b


def test_compute_B_requires_a_phase_in_the_unit_interval():
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    for phase in (-0.25, 1.0, 2.6):
        with pytest.raises(ValueError, match="phase"):
            compute_B(pair, phase)


def test_B_is_positive():
    rng = np.random.default_rng(13)
    for i in range(12):
        pair = _pair(
            random_coefficient(rng, ("constant", "sinusoid", "piecewise")[i % 3], 0.3, 1.5),
            random_coefficient(rng, ("piecewise", "constant", "sinusoid")[i % 3], 50.0, 200.0),
        )
        assert compute_B(pair, float(rng.uniform(0.0, 1.0)))[1] > 0.0


def test_B_window_shift_invariance():
    rng = np.random.default_rng(17)
    for i in range(6):
        pair = _pair(
            random_coefficient(rng, ("constant", "sinusoid", "piecewise")[i % 3], 0.3, 1.5),
            random_coefficient(rng, ("sinusoid", "piecewise", "constant")[i % 3], 50.0, 200.0),
        )
        t0 = float(rng.uniform(0.1, 0.9))
        base = forcing_integrals(pair, t0, (1.0,))[0][0]
        for k in range(1, 6):
            shifted = forcing_integrals(pair, t0 + k, (1.0,))[0][0]
            assert shifted == pytest.approx(base, rel=1e-12)


@st.composite
def slivers(draw) -> tuple[CoefficientPair, float]:
    """r constant and K piecewise, with pieces down to 1e-15 next to offset
    0, next to offset 1 and next to each other, and K spanning 400 decades;
    and the phase.  A piece spans at least 4 ulps of the times phase + s it
    covers, so that its midpoint, where a panel reads K, lies strictly
    inside it: a piece of 1e-15 only next to time 0."""
    t0 = draw(st.one_of(st.integers(1, 3).map(float), st.floats(0.01, 3.0)))
    phase = t0 - math.floor(t0)

    def width(at):
        return st.floats(max(1e-15, 4.0 * math.ulp(phase + at)), 0.9e-12)

    middle = draw(st.floats(0.01, 0.99))
    offsets = [draw(width(0.0)), 1.0 - draw(width(1.0)), middle, middle + draw(width(middle))]
    kept = draw(st.lists(st.booleans(), min_size=4, max_size=4))
    bp = sorted({(phase + s) % 1.0 for s, keep in zip(offsets, kept) if keep} - {0.0})
    values = st.floats(-200.0, 200.0).map(lambda e: 10.0**e)
    vals = draw(st.lists(values, min_size=len(bp) + 1, max_size=len(bp) + 1))
    r = ConstantCoefficient(draw(st.floats(0.2, 3.0)))
    return _pair(r, PiecewiseConstantCoefficient((0.0, *bp, 1.0), tuple(vals))), phase


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(case=slivers())
def test_B_keeps_every_piece_however_narrow(case):
    pair, phase = case
    assert compute_B(pair, phase)[1] == pytest.approx(exact_B(pair, phase), rel=1e-13)


def _partition(pair, start, n):
    """Offsets i/n, i = 0..n, and every jump offset into the period from start."""
    return sorted({i / n for i in range(n + 1)} | {(b - start) % 1.0 for b in _breaks(pair)})


def _window_alone(pair, start, s, panels_per_unit):
    """One forcing window [start, start + s] and its growth integral, through
    its own panels (one from each partition point below s to the next, the
    last one ending at s) and numpy calls; a piecewise coefficient is read at
    each panel's midpoint."""
    edges = np.array([u for u in _partition(pair, start, panels_per_unit) if u < s] or [0.0])
    lo, hi = edges, np.append(edges[1:], s)
    gl_nodes, gl_weights = leggauss(10)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    t, key, end = start + (mid[:, None] + half[:, None] * gl_nodes), start + mid[:, None], start + s
    r, K = (c(key) if c.kind == "piecewise" else c(t) for c in (pair.r, pair.K))
    decay = np.exp(pair.r.antiderivative(t) - pair.r.antiderivative(end))
    forcing = float(np.dot((half[:, None] * gl_weights).ravel(), (r / K * decay).ravel()))
    return forcing, float(pair.r.antiderivative(end)) - float(pair.r.antiderivative(start))


KINDS = ("constant", "sinusoid", "piecewise")


@pytest.mark.parametrize("r_kind", KINDS)
@pytest.mark.parametrize("k_kind", KINDS)
def test_forcing_integrals_match_each_window_alone(r_kind, k_kind):
    # one evaluation of r and K for all windows, and still every value bit
    # for bit what its window gives alone
    rng = np.random.default_rng(sum(map(ord, r_kind + k_kind)))
    for trial in range(4):
        pair = _pair(
            random_coefficient(rng, r_kind, 0.3, 1.5),
            random_coefficient(rng, k_kind, 50.0, 200.0),
        )
        a = float(rng.uniform(0.0, 3.0))
        jumps = [beta + math.floor(a) + 1.0 for beta in _breaks(pair)]
        panels = (64, 128)[trial % 2]
        # windows from a, and from 5e-13 past a jump: a 5e-13 piece ends the
        # unit window
        for start in [a, *(jump + 5e-13 for jump in jumps)]:
            offsets = [float(s) for s in rng.uniform(0.0, 1.0, size=12)]
            offsets += [0.0, 1.0, 1e-9]  # empty, unit, a sliver
            # ends 5e-13 from a jump, on either side
            cuts = [(beta - start) % 1.0 for beta in _breaks(pair)]
            offsets += [s for u in cuts for s in (u - 5e-13, u + 5e-13) if 0.0 <= s <= 1.0]
            forcing, growth = forcing_integrals(pair, start, offsets, panels)
            alone = [_window_alone(pair, start, s, panels) for s in offsets]
            assert list(zip(forcing, growth)) == alone


def test_forcing_integrals_reject_a_reversed_window():
    # a window [start, start + s] with s < 0 is reversed, and one with s > 1
    # is longer than the period it is split in
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    assert forcing_integrals(pair, 0.7, [0.0, 0.0]) == ([0.0, 0.0], [0.0, 0.0])
    for bad in (-0.5, -5e-324, math.nextafter(1.0, 2.0), 1.5, math.nan):
        with pytest.raises(ValueError, match="offsets must lie in"):
            forcing_integrals(pair, 0.7, [0.5, bad])


def test_forcing_integral_empty_interval():
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    assert forcing_integrals(pair, 0.7, ()) == ([], [])
    assert forcing_integrals(pair, 0.7, (0.0,)) == ([0.0], [0.0])
    forcing, growth = forcing_integrals(pair, 0.7, (0.0, 0.5))
    assert forcing[0] == growth[0] == 0.0 and forcing[1] > 0.0
    assert growth[1] == pair.r.integral(0.7, 0.7 + 0.5)
    with pytest.raises(ValueError, match="offsets must lie in"):
        forcing_integrals(pair, 1.0, (-0.5,))


@pytest.mark.parametrize("k_kind", KINDS)
@pytest.mark.parametrize("r_kind", KINDS)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_steps_and_panels_are_intervals_of_one_partition(r_kind, k_kind, data):
    # the RK4 steps, B's panels and the panels of a [0, 1] table all run
    # between consecutive points of i/n and the jump offsets
    pair = _pair(data.draw(_KIND_STRATEGIES[r_kind]), data.draw(_KIND_STRATEGIES[k_kind]))
    params = ModelParams(pair=pair, E=0.0, t0=data.draw(st.floats(0.01, 3.0)))
    panels = []
    rule = coefficients.panel_rule

    def recorded(lo, hi):
        panels.append((lo.tolist(), hi.tolist()))
        return rule(lo, hi)

    with pytest.MonkeyPatch.context() as patch:
        for module in (coefficients, closed_form):
            patch.setattr(module, "panel_rule", recorded)
        compute_B.cache_clear()
        compute_B(pair, params.phase)
        period_table(params, [0.0, 1.0])
    expected = _partition(pair, params.phase, 64)
    assert len(panels) == 2
    for lo, hi in panels:
        assert lo + hi[-1:] == expected and hi == expected[1:]

    # a tiny state, which grows by at most e**100 over the period
    steps = integrate(params, 1e-300, 1, StepControl(h=1.0 / 128.0)).pieces[0].offsets
    assert steps.tolist() == _partition(pair, params.phase, 128)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_coefficient_dict_round_trip():
    examples = [
        ConstantCoefficient(0.75),
        SinusoidCoefficient(mean=0.7, amp=0.2, phase=1.1),
        PWC,
    ]
    for c in examples:
        assert coefficient_from_dict(c.to_dict()) == c


def test_coefficient_from_dict_rejects_garbage():
    with pytest.raises(ValueError, match="kind"):
        coefficient_from_dict({"kind": "spline"})
    with pytest.raises(ValueError, match="missing"):
        coefficient_from_dict({"kind": "constant"})
    with pytest.raises(ValueError, match="unknown field"):
        coefficient_from_dict({"kind": "constant", "value": 1.0, "valu": 2.0})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "sinusoid", "phase": 0.5}, "missing field(s) ['mean', 'amp']"),
        ({"kind": "piecewise", "values": [1.0]}, "missing field(s) ['breakpoints']"),
        ({"kind": "constant", "value": 1.0, "valu": 2.0}, "unknown field(s) ['valu']"),
    ],
    ids=["sinusoid-missing", "piecewise-missing", "constant-unknown"],
)
def test_coefficient_from_dict_names_the_fields_of_the_kind(data, message):
    with pytest.raises(ValueError) as err:
        coefficient_from_dict(data)
    assert str(err.value) == f"{message} for kind {data['kind']!r}"
