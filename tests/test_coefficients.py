"""Coefficient families, exact integrals, and the forcing constant B."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impulsive_logistic import closed_form, coefficients
from impulsive_logistic.closed_form import ModelParams, derive_constants, period_table
from impulsive_logistic.coefficients import (
    CoefficientPair,
    ConstantCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    coefficient_from_dict,
    compute_B,
    forcing_integrals,
)
from impulsive_logistic.integrator import integrate
from numpy.polynomial.legendre import leggauss

from helpers import exact_B, random_coefficient, reference_integral, reference_value

LN2 = math.log(2.0)

PWC = PiecewiseConstantCoefficient(breakpoints=(0.0, 0.5, 1.0), values=(1.0, 2.0))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _at(c, t: float) -> float:
    """The function itself at t: its piece around t."""
    return float(c.piece_values(t, t))


def test_constant_eval_anywhere():
    c = ConstantCoefficient(0.693147)
    assert _at(c, 17.3) == 0.693147
    assert _at(c, -4.25) == 0.693147


def test_sinusoid_eval_quarter_period():
    c = SinusoidCoefficient(mean=0.7, amp=0.2, phase=0.0)
    assert _at(c, 0.25) == pytest.approx(0.9, rel=1e-15)


def test_piecewise_eval_interior_values():
    assert _at(PWC, 0.25) == 1.0
    assert _at(PWC, 0.75) == 2.0
    assert _at(PWC, 1.75) == 2.0
    assert _at(PWC, -0.25) == 2.0


def test_piecewise_eval_left_limit_at_jumps():
    # At a jump the periodic extension takes its left-limit value: the
    # first segment's value at the interior breakpoint, and the last
    # segment's value at the period boundary.
    assert _at(PWC, 0.5) == 1.0
    assert _at(PWC, 0.0) == 2.0
    assert _at(PWC, 1.0) == 2.0
    assert _at(PWC, 3.5) == 1.0


def test_eval_is_periodic():
    rng = np.random.default_rng(1)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        for t in rng.uniform(-3.0, 7.0, size=50):
            assert _at(c, t + 1.0) == pytest.approx(_at(c, t), rel=1e-12)


def test_vectorized_eval_matches_scalar():
    c = SinusoidCoefficient(mean=0.7, amp=0.2, phase=0.4)
    ts = np.linspace(-1.0, 2.0, 17)
    out = c.piece_values(ts, ts)
    assert out.shape == ts.shape
    for t, v in zip(ts, out):
        assert v == _at(c, float(t))


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
            assert np.array_equal(values, [_at(c, float(t)) for t in times])


# np.sin and np.cos against math.sin and math.cos: each is within an ulp of
# the true value, so two of them differ by at most 2 ulps of a number in
# [-1, 1], that is 2**-52.  A sinusoid's value, mean + amp sin, then sits
# within 4 ulps of mean + |amp| of the reference.  The other kinds take no
# transcendental function and match exactly.
def _value_slack(c) -> float:
    return 4.0 * math.ulp(c.mean + abs(c.amp)) if c.kind == "sinusoid" else 0.0


def _growth_slack(c, t: float) -> float:
    """How far the growth over [t, t + s], s <= 1, may sit from the reference
    F(fl(t + s)) - F(t): each value of F, at most the largest value of c
    times |t| + 1, carries its rounding (and a sinusoid's cosines theirs,
    within |amp|), and fl(t + s) moves the window's end by half an ulp of
    t + s."""
    data = c.to_dict()
    largest = max(data.get("values", [c.mean + abs(data.get("amp", 0.0))]))
    return 4.0 * math.ulp(largest * (abs(t) + 1.0) + abs(data.get("amp", 0.0)))


@pytest.mark.parametrize("kind", ["constant", "sinusoid", "piecewise"])
def test_each_kind_matches_its_stdlib_reference(kind):
    rng = np.random.default_rng(sum(map(ord, kind)))
    for _ in range(8):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        jumps = [b + m for b in _jumps(c) for m in (-2.0, 0.0, 1.0, 1e6)]
        ulp_off = [math.nextafter(u, d) for u in jumps for d in (-math.inf, math.inf)]
        times = [*rng.uniform(-3.0, 7.0, 100).tolist(), *rng.uniform(0.0, 1e8, 20).tolist()]
        spans = rng.uniform(0.0, 1.0, len(times + jumps + ulp_off)).tolist()
        for t, s in zip(times + jumps + ulp_off, spans):
            got, want = _at(c, t), reference_value(c, t)
            assert abs(got - want) <= _value_slack(c), (c, t)
            for span in (s, 1.0, 1e-9):
                got, want = float(c.growth(t, span)), reference_integral(c, t, t + span)
                assert abs(got - want) <= _growth_slack(c, t), (c, t, span)
        t = np.array(times)
        assert c.piece_values(t, t).tolist() == [_at(c, u) for u in times]
        s = np.array(spans[: len(times)])
        assert c.growth(t, s).tolist() == [float(c.growth(u, v)) for u, v in zip(times, s)]


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
# exact integrals: the window growth, R over [a, b] for b - a <= 1
# ---------------------------------------------------------------------------


def _integral(c, a: float, b: float) -> float:
    return float(c.growth(a, b - a))


def test_antiderivative_constant():
    c = ConstantCoefficient(LN2)
    assert _integral(c, 0.5, 1.5) == LN2
    assert float(c.growth(0.5, 0.25)) == LN2 * 0.25


def test_antiderivative_sinusoid_full_period():
    # a whole period's growth is the mean bit for bit, from any phase
    c = SinusoidCoefficient(mean=0.7, amp=0.2, phase=0.0)
    assert float(c.growth(0.0, 1.0)) == 0.7
    rng = np.random.default_rng(23)
    for _ in range(50):
        c = random_coefficient(rng, "sinusoid", 0.3, 1.5)
        phase = rng.uniform(-3.0, 1e6, 20)
        assert c.growth(phase, np.ones(20)).tolist() == [c.mean] * 20


def test_antiderivative_piecewise_two_periods():
    assert _integral(PWC, 0.0, 1.0) + _integral(PWC, 1.0, 2.0) == 3.0
    # a window across the period boundary reads the next period's pieces
    assert _integral(PWC, 0.75, 1.75) == 1.5
    assert _integral(PWC, 0.75, 1.25) == 0.25 * 2.0 + 0.25 * 1.0


def test_antiderivative_matches_quadrature():
    # Brute-force midpoint-rule check of the analytic integral.  The
    # rule itself carries O(1/N) bias at each jump of a piecewise function,
    # so that kind gets a tolerance matching the oracle's own error.
    rng = np.random.default_rng(7)
    for kind, rel in (("constant", 1e-9), ("sinusoid", 1e-9), ("piecewise", 3e-5)):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        for a, b in ((-0.7, 0.3), (1.9, 2.6)):
            s = np.linspace(a, b, 200_001)
            mid = 0.5 * (s[1:] + s[:-1])
            brute = float(np.sum(c.piece_values(mid, mid)) * (s[1] - s[0]))
            assert _integral(c, a, b) == pytest.approx(brute, rel=rel)


def test_antiderivative_is_additive():
    rng = np.random.default_rng(11)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        for _ in range(20):
            a = rng.uniform(-2.0, 5.0)
            b, x = a + np.sort(rng.uniform(0.0, 1.0, size=2))
            whole = _integral(c, a, x)
            split = _integral(c, a, b) + _integral(c, b, x)
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
    """A pair, a start, and offsets in [0, 1] from it: any, 0 and 1, and
    those of the jumps and of one ulp below them."""
    pair = CoefficientPair(r=draw(_KIND_STRATEGIES[r_kind]), K=draw(_KIND_STRATEGIES[k_kind]))
    jumps = (0.0, *_breaks(pair))
    time = st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        _WHOLE.map(float),
        _WHOLE.map(lambda m: math.nextafter(float(m), -math.inf)),  # one ulp below
        st.tuples(st.sampled_from(jumps), _WHOLE).map(lambda bm: bm[0] + bm[1]),
        st.floats(0.0, 1e8),
    )
    start = draw(time)
    cuts = [(b - start) % 1.0 for b in jumps]
    offset = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, *cuts, *(math.nextafter(u, 0.0) for u in cuts)]),
    )
    return pair, start, draw(st.lists(offset, min_size=1, max_size=40))


@pytest.mark.parametrize("k_kind", ["constant", "sinusoid", "piecewise"])
@pytest.mark.parametrize("r_kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_pair_pass_is_the_coefficients_own_evaluation(r_kind, k_kind, data):
    # against the stdlib reference: exact without a sinusoid, and with one
    # within the slack of each sinusoid's values relative to its smallest
    # value, mean - |amp|, and the division's rounding
    pair, start, offsets = data.draw(_pair_and_times(r_kind, k_kind))
    r, K = pair.r, pair.K
    rel = sum(_value_slack(c) / (c.mean - abs(c.amp)) for c in (r, K) if c.kind == "sinusoid")
    rel += math.ulp(1.0) if rel else 0.0
    s = np.array(offsets)
    # keyed on other offsets, a coefficient with jumps reads its value there
    for key in (s, s[::-1].copy()):
        ratio, growth = pair.ratio_and_growth(start, s, key)
        times, keys = (start + s).tolist(), (start + key).tolist()
        rows = zip(offsets, times, keys, ratio.tolist(), growth.tolist())
        for offset, time, at, got, big_r in rows:
            r_at, K_at = (at if c.kind == "piecewise" else time for c in (r, K))
            want = reference_value(r, r_at) / reference_value(K, K_at)
            assert abs(got - want) <= rel * want
            assert big_r == float(r.growth(start, offset))
            want = reference_integral(r, start, time)
            assert abs(big_r - want) <= _growth_slack(r, start)


@pytest.mark.parametrize("kind", ["constant", "sinusoid", "piecewise"])
@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_the_period_mean_is_the_integral_over_one_period(kind, data):
    c = data.draw(_KIND_STRATEGIES[kind])
    assert type(c.mean) is float
    assert c.mean == reference_integral(c, 0.0, 1.0)
    # the growth over a whole period from any phase: the mean, bit for bit
    # where no piece sum is taken, and within the rounding of one otherwise
    phase = data.draw(st.floats(0.0, 1e6))
    slack = 0.0 if kind != "piecewise" else 2 * len(c.values) * math.ulp(c.mean)
    assert abs(float(c.growth(phase, 1.0)) - c.mean) <= slack


# ---------------------------------------------------------------------------
# A = exp(growth integral), derived in closed_form.derive_constants
# ---------------------------------------------------------------------------


def test_A_equals_exp_integral_over_any_unit_window():
    rng = np.random.default_rng(3)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        a_ref = _growth_factor(c)
        for start in rng.uniform(-2.0, 4.0, size=25):
            shifted = math.exp(reference_integral(c, start, start + 1.0))
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


def _jumps(c) -> tuple[float, ...]:
    """Every point in [0, 1) where c may jump."""
    return getattr(c, "breakpoints", ())[:-1]


def _breaks(pair):
    """Every point in [0, 1) where r or K may jump."""
    return _jumps(pair.r) + _jumps(pair.K)


def test_compute_B_constant_case():
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    for phase in (0.5, 0.125, 0.6, 0.0):
        assert compute_B(pair, phase) == pytest.approx(0.005, rel=1e-13)
    unit = _pair(ConstantCoefficient(LN2), ConstantCoefficient(1.0))
    assert compute_B(unit, 0.5) == pytest.approx(0.5, rel=1e-13)


def test_compute_B_sinusoid_vs_brute_force():
    # Trapezoid oracle with a million panels, all formulas written inline.
    t0 = 0.5
    s = np.linspace(t0, t0 + 1.0, 1_000_001)
    rate = 0.7 + 0.2 * np.sin(2.0 * np.pi * s)
    antider = 0.7 * s - (0.2 / (2.0 * np.pi)) * (np.cos(2.0 * np.pi * s) - 1.0)
    kernel = rate / 100.0 * np.exp(antider - antider[-1])
    brute = float(np.trapezoid(kernel, s))

    pair = _pair(SinusoidCoefficient(mean=0.7, amp=0.2), ConstantCoefficient(100.0))
    assert compute_B(pair, t0) == pytest.approx(brute, rel=1e-10)

    # 64 panels per unit are converged: doubling them moves B by rounding
    # only, on this pair and on a constant and a jumping one.
    rng = np.random.default_rng(19)
    jumping = _pair(
        random_coefficient(rng, "piecewise", 0.3, 1.5),
        random_coefficient(rng, "sinusoid", 50.0, 200.0),
    )
    for other in (_pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0)), pair, jumping):
        b = compute_B(other, t0)
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
        assert compute_B(pair, float(rng.uniform(0.0, 1.0))) > 0.0


def test_B_window_shift_invariance():
    rng = np.random.default_rng(17)
    for i in range(6):
        pair = _pair(
            random_coefficient(rng, ("constant", "sinusoid", "piecewise")[i % 3], 0.3, 1.5),
            random_coefficient(rng, ("sinusoid", "piecewise", "constant")[i % 3], 50.0, 200.0),
        )
        t0 = float(rng.uniform(0.1, 0.9))
        base = forcing_integrals(pair, t0, (1.0,), 64)[0][0]
        for k in range(1, 6):
            shifted = forcing_integrals(pair, t0 + k, (1.0,), 64)[0][0]
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
    assert compute_B(pair, phase) == pytest.approx(exact_B(pair, phase), rel=1e-13)


def _partition(pair, start, n):
    """Offsets i/n, i = 0..n, and every jump offset into the period from start."""
    return sorted({i / n for i in range(n + 1)} | {(b - start) % 1.0 for b in _breaks(pair)})


def _window_alone(pair, start, s, partition):
    """One forcing window [start, start + s] and its growth integral, through
    its own panels (one from each partition point below s to the next, the
    last one ending at s) and numpy calls; a piecewise coefficient is read at
    each panel's midpoint."""
    edges = np.array([u for u in partition if u < s] or [0.0])
    lo, hi = edges, np.append(edges[1:], s)
    gl_nodes, gl_weights = leggauss(10)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = mid[:, None] + half[:, None] * gl_nodes
    t, key = start + u, start + mid[:, None]
    r, K = (c.piece_values(t, key) for c in (pair.r, pair.K))
    growth = float(pair.r.growth(start, s))
    decay = np.exp(pair.r.growth(start, u) - growth)
    forcing = float(np.dot((half[:, None] * gl_weights).ravel(), (r / K * decay).ravel()))
    return forcing, growth


KINDS = ("constant", "sinusoid", "piecewise")


def _window_batches(r_kind, k_kind):
    """Pairs of the given kinds, each with a start, the panels per unit and
    the generator to draw window ends from: a random start, and 5e-13 past
    each jump, so that a 5e-13 piece ends the unit window."""
    rng = np.random.default_rng(sum(map(ord, r_kind + k_kind)))
    for trial in range(4):
        pair = _pair(
            random_coefficient(rng, r_kind, 0.3, 1.5),
            random_coefficient(rng, k_kind, 50.0, 200.0),
        )
        a = float(rng.uniform(0.0, 3.0))
        jumps = [beta + math.floor(a) + 1.0 for beta in _breaks(pair)]
        for start in [a, *(jump + 5e-13 for jump in jumps)]:
            yield pair, start, (64, 128)[trial % 2], rng


@pytest.mark.parametrize("r_kind", KINDS)
@pytest.mark.parametrize("k_kind", KINDS)
def test_forcing_integrals_match_each_window_alone(r_kind, k_kind):
    # one evaluation of r and K for all windows, and still every window
    # whose end lies on the period grid bit for bit what it gives alone:
    # the periodicity reference's ends j/16 and 1
    for pair, start, panels, rng in _window_batches(r_kind, k_kind):
        partition = _partition(pair, start, panels)
        offsets = [0.0, 1.0, *rng.choice(partition, size=12).tolist()]
        offsets += [j / 16 for j in range(16)]
        forcing, growth = forcing_integrals(pair, start, offsets, panels)
        alone = [_window_alone(pair, start, s, partition) for s in offsets]
        assert list(zip(forcing, growth)) == alone


@pytest.mark.parametrize("r_kind", KINDS)
@pytest.mark.parametrize("k_kind", KINDS)
def test_forcing_windows_are_prefixes_of_the_grid_and_their_ends(r_kind, k_kind):
    # for any ends, window s is its prefix of the period grid with every
    # end added, with its own decay and sum, bit for bit
    for pair, start, panels, rng in _window_batches(r_kind, k_kind):
        offsets = [float(s) for s in rng.uniform(0.0, 1.0, size=12)]
        offsets += [0.0, 1.0, 1e-9]  # empty, unit, a sliver
        # ends 5e-13 from a jump, on either side
        cuts = [(beta - start) % 1.0 for beta in _breaks(pair)]
        offsets += [s for u in cuts for s in (u - 5e-13, u + 5e-13) if 0.0 <= s <= 1.0]
        partition = sorted(set(_partition(pair, start, panels)) | set(offsets))
        forcing, growth = forcing_integrals(pair, start, offsets, panels)
        alone = [_window_alone(pair, start, s, partition) for s in offsets]
        assert list(zip(forcing, growth)) == alone


def test_forcing_integrals_reject_a_reversed_window():
    # a window [start, start + s] with s < 0 is reversed, and one with s > 1
    # is longer than the period it is split in
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    assert forcing_integrals(pair, 0.7, [0.0, 0.0], 64) == ([0.0, 0.0], [0.0, 0.0])
    for bad in (-0.5, -5e-324, math.nextafter(1.0, 2.0), 1.5, math.nan):
        with pytest.raises(ValueError, match="offsets must lie in"):
            forcing_integrals(pair, 0.7, [0.5, bad], 64)


def test_forcing_integral_empty_interval():
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    assert forcing_integrals(pair, 0.7, (), 64) == ([], [])
    assert forcing_integrals(pair, 0.7, (0.0,), 64) == ([0.0], [0.0])
    forcing, growth = forcing_integrals(pair, 0.7, (0.0, 0.5), 64)
    assert forcing[0] == growth[0] == 0.0 and forcing[1] > 0.0
    assert growth[1] == LN2 * 0.5
    with pytest.raises(ValueError, match="offsets must lie in"):
        forcing_integrals(pair, 1.0, (-0.5,), 64)


@st.composite
def _rate_and_sinusoid_capacity(draw, r_kind: str) -> CoefficientPair:
    """r of the given kind, its growth integral small or past 256 (where
    ``forcing_panels`` grows), and a sinusoid K."""
    G = draw(st.one_of(st.floats(0.01, 5.0), st.floats(256.0, 709.0)))
    if r_kind == "constant":
        r = ConstantCoefficient(G)
    elif r_kind == "sinusoid":
        frac, phase = draw(st.floats(-0.99, 0.99)), draw(st.floats(-10.0, 10.0))
        r = SinusoidCoefficient(mean=G, amp=frac * G, phase=phase)
    else:
        shape = draw(_KIND_STRATEGIES["piecewise"])
        r = PiecewiseConstantCoefficient(shape.breakpoints, tuple(G * v for v in shape.values))
    return _pair(r, draw(_KIND_STRATEGIES["sinusoid"]))


@pytest.mark.parametrize("r_kind", KINDS)
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_B_of_a_sinusoid_K_is_the_unit_forcing_window(r_kind, data):
    # B is its own one-window sum: the panels, nodes and single dot of the
    # window s = 1 of forcing_integrals, in a function of its own
    pair = data.draw(_rate_and_sinusoid_capacity(r_kind))
    phase = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    panels = coefficients.forcing_panels(pair)
    assert compute_B(pair, phase) == forcing_integrals(pair, phase, (1.0,), panels)[0][0]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    inner=st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=4, unique=True
    ),
    data=st.data(),
)
def test_piecewise_tables_match_the_numpy_construction(inner, data):
    # built in plain floats, every table and the mean keep numpy's floats
    bp = (0.0, *sorted(inner), 1.0)
    vals = data.draw(st.tuples(*[st.floats(1e-300, 1e300)] * (len(bp) - 1)))
    c = PiecewiseConstantCoefficient(bp, vals)
    bp_arr = np.asarray(bp)
    cum2 = np.concatenate(([0.0], np.cumsum(np.tile(np.diff(bp_arr) * vals, 2))))
    expected = {
        "_bp2": np.concatenate((bp_arr[:-1], bp_arr + 1.0)),
        "_vals2": np.tile(vals, 2),
        "_cum2": cum2,
    }
    for name, want in expected.items():
        got = getattr(c, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), name
    assert c.mean == float(cum2[len(vals)])


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_float_growth_is_the_array_growth_bit_for_bit(kind, data):
    # B where K is constant on pieces reads r's growth one piece at a time
    # in plain floats; it must be the float that the array form gives, at
    # any window and at windows that end exactly on a jump
    pair, start, offsets = data.draw(_pair_and_times(kind, "constant"))
    c = pair.r
    u = start - math.floor(start)
    jumps = [b + m for b in _jumps(c) for m in (0.0, 1.0, 2.0)]
    ends = [b - u for b in jumps if 0.0 <= b - u <= 1.0]
    windows = [*offsets, 0.0, 1.0, *ends]
    array_growth = c.growth(start, np.array(windows)).tolist()
    assert [c.float_growth(start, s) for s in windows] == array_growth
    assert all(type(c.float_growth(start, s)) is float for s in windows)


@pytest.mark.parametrize("n", [1, 3, 64, 256, 1000])
@pytest.mark.parametrize("phase", [0.0, 0.3])
def test_period_grid_without_a_jump_is_the_plain_grid(n, phase):
    pair = _pair(SinusoidCoefficient(mean=0.7, amp=0.2), ConstantCoefficient(100.0))
    grid = pair.period_grid(phase, n)
    assert grid.tolist() == coefficients.sorted_union(np.arange(n + 1) / n, []).tolist()


@pytest.mark.parametrize("k_kind", KINDS)
@pytest.mark.parametrize("r_kind", KINDS)
@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_steps_and_panels_are_intervals_of_one_partition(r_kind, k_kind, data):
    # the RK4 steps and the panels of the unit forcing window, and for a
    # sinusoid K those of B and of a [0, 1] table, all run between
    # consecutive points of i/n and the jump offsets; with K constant on
    # pieces, B and the table lay no panel at all
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
        assert len(panels) == (2 if k_kind == "sinusoid" else 0)
        forcing_integrals(pair, params.phase, (1.0,), 64)
    expected = _partition(pair, params.phase, 64)
    assert len(panels) == (3 if k_kind == "sinusoid" else 1)
    for lo, hi in panels:
        assert lo + hi[-1:] == expected and hi == expected[1:]

    # a tiny state, which grows by at most e**100 over the period
    steps = integrate(params, 1e-300, 1, 128).offsets
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
