"""Coefficient families, exact integrals, and the A/B constants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from impulsive_logistic import (
    CoefficientPair,
    ConstantCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    coefficient_from_dict,
    compute_A,
    compute_B,
    forcing_integral,
)
from impulsive_logistic.coefficients import gauss_panels
from numpy.polynomial.legendre import leggauss

from helpers import random_coefficient

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
    stages = (ta, ta + 0.5 * h, ta + h)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        got = c.stage_values(stages, stages[1])
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
# A
# ---------------------------------------------------------------------------


def test_compute_A_examples():
    assert compute_A(ConstantCoefficient(LN2)) == pytest.approx(2.0, rel=1e-15)
    assert compute_A(SinusoidCoefficient(mean=0.7, amp=0.2)) == pytest.approx(
        math.exp(0.7), rel=1e-15
    )
    assert compute_A(PWC) == pytest.approx(math.exp(1.5), rel=1e-15)


def test_A_equals_exp_integral_over_any_unit_window():
    rng = np.random.default_rng(3)
    for kind in ("constant", "sinusoid", "piecewise"):
        c = random_coefficient(rng, kind, 0.3, 1.5)
        a_ref = compute_A(c)
        for start in rng.uniform(-2.0, 4.0, size=25):
            shifted = math.exp(c.integral(start, start + 1.0))
            assert shifted == pytest.approx(a_ref, rel=1e-12)


def test_A_exceeds_one_for_positive_rate():
    rng = np.random.default_rng(5)
    for kind in ("constant", "sinusoid", "piecewise"):
        assert compute_A(random_coefficient(rng, kind, 0.05, 1.5)) > 1.0


# ---------------------------------------------------------------------------
# B
# ---------------------------------------------------------------------------


def _pair(r, K):
    return CoefficientPair(r=r, K=K)


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
        assert abs(forcing_integral(other, t0, t0 + 1.0, 128) - b) <= 1e-14 * b


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
        base = forcing_integral(pair, t0, t0 + 1.0)
        for k in range(1, 6):
            shifted = forcing_integral(pair, t0 + k, t0 + k + 1.0)
            assert shifted == pytest.approx(base, rel=1e-12)


def test_forcing_integral_empty_interval():
    pair = _pair(ConstantCoefficient(LN2), ConstantCoefficient(100.0))
    assert forcing_integral(pair, 0.7, 0.7) == 0.0
    with pytest.raises(ValueError, match="reversed"):
        forcing_integral(pair, 1.0, 0.5)


@pytest.mark.parametrize(
    "breaks, a, b, panels_per_unit",
    [
        ((), 0.5, 1.5, 64),
        ((0.0, 0.25, 0.7), 0.25, 1.25, 64),
        ((0.0, 0.3), 2.37, 4.1, 7),
        ((0.0, 0.6), 12345678.3, 12345679.3, 96),
        ((), 0.1, 0.1 + 1e-7, 651),
    ],
)
def test_gauss_panels_match_per_segment_linspace(breaks, a, b, panels_per_unit):
    # The vectorized panel layout reproduces one np.linspace per smooth
    # segment bit for bit, so B and x0_star keep their exact values.
    shifts = range(math.floor(a) - 1, math.ceil(b) + 1)
    cuts = sorted({a, b} | {beta + m for beta in breaks for m in shifts})
    cuts = [c for c in cuts if a <= c <= b]
    gl_nodes, gl_weights = leggauss(10)
    nodes, weights = [], []
    for c0, c1 in zip(cuts, cuts[1:]):
        edges = np.linspace(c0, c1, max(1, math.ceil((c1 - c0) * panels_per_unit - 1e-9)) + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        nodes.append((mid[:, None] + half[:, None] * gl_nodes).ravel())
        weights.append((half[:, None] * gl_weights).ravel())
    got_nodes, got_weights = gauss_panels(breaks, a, b, panels_per_unit)
    assert np.array_equal(got_nodes, np.concatenate(nodes))
    assert np.array_equal(got_weights, np.concatenate(weights))


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
