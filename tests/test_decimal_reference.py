"""The forcing integrals where K is constant on pieces, measured in ulps
against the high-precision reference of ``decimal_reference``; and that
reference checked against forms it does not compute by."""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from decimal_reference import Reference, ulps
from helpers import exact_B
from impulsive_logistic import (
    CoefficientPair,
    ConstantCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
    cli,
    compute_B,
    derive_constants,
    period_table,
)
from test_coefficients import slivers

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

PIECEWISE_R = json.loads((CONFIG_DIR / "piecewise_mixed.json").read_text())["r"]
OFFSETS = [j / 256 for j in range(257)]


def _piecewise(breakpoints, values) -> dict:
    return {"kind": "piecewise", "breakpoints": breakpoints, "values": values}


# name -> scenario, and the largest errors in ulps of B, x0_star and C(s)
# at the 257 offsets j/256 that the sum of exponentials may make.  The
# 64-panel quadrature, which filled every table before, read 0.254, 0.163
# and 3.67 on golden_constant; 1.23e5, 1.23e5 and 68.5 at r = 709; 1.89,
# 2.22 and 4.3 on the piecewise pair; and 0.839, 2.05 and 3.65 on the sliver
CASES = {
    "golden_constant": (
        json.loads((CONFIG_DIR / "golden_constant.json").read_text()),
        (0.5, 0.5, 2.0),
    ),
    # G = 709, at the top of the float range of A
    "r709": (
        {
            "r": {"kind": "constant", "value": 709.0},
            "K": {"kind": "constant", "value": 1.0},
            "E": 0.5,
            "t0": 1.0,
        },
        (0.5, 0.5, 1.0),
    ),
    # piecewise_mixed's r over a piecewise K spanning five decades
    "piecewise": (
        {
            "r": PIECEWISE_R,
            "K": _piecewise([0.0, 0.4, 0.55, 1.0], [50.0, 1e-3, 150.0]),
            "E": 0.3,
            "t0": 0.25,
        },
        (0.5, 1.0, 2.0),
    ),
    # a case of ``slivers``: pieces of 1e-15 at offset 0 and at offset 1 and
    # one of 3e-13 inside, K from 1e-160 to 1e80; the last sliver holds
    # almost all of B
    "K-sliver": (
        {
            "r": {"kind": "constant", "value": 1.3},
            "K": _piecewise(
                [0.0, 1e-15, 0.37, 0.37 + 3e-13, 1.0 - 1e-15, 1.0],
                [1e-120, 1e80, 1e-150, 1e10, 1e-160],
            ),
            "E": 0.2,
            "t0": 2.0,
        },
        (1.5, 0.5, 2.0),
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_the_sum_of_exponentials_is_within_its_ulp_bounds(name):
    scenario, (b_ulps, anchor_ulps, c_ulps) = CASES[name]
    scenario = {key: scenario[key] for key in ("r", "K", "E", "t0")}
    params = cli.parse_config(scenario).params
    consts = derive_constants(params)
    ref = Reference(scenario)
    assert ulps(consts.B, ref.B()) <= b_ulps
    assert ulps(consts.x0_star, ref.x0_star()) <= anchor_ulps
    table = period_table(params, OFFSETS)
    worst = max(ulps(c, ref.forcing(s)) for c, s in zip(table.forcing.tolist(), OFFSETS))
    assert worst <= c_ulps


@settings(max_examples=50, derandomize=True, deadline=None, database=None)
@given(case=slivers())
def test_B_of_a_sliver_is_within_three_ulps(case):
    # three roundings on the piece that holds most of B (its growth, the
    # expm1 and the division by K) and the carried sum of the pieces before
    pair, phase = case
    scenario = {**pair.to_dict(), "E": 0.0, "t0": phase or 1.0}
    assert ulps(compute_B(pair, phase), Reference(scenario).B()) <= 3.0


def _numpy_B(pair: CoefficientPair, phase: float) -> float:
    """B as the array form of the piece sum gives it: r's growth over every
    piece in one array call, and the last piece's step, to offset 1, by
    numpy's exp and expm1, which round differently from ``math``'s for a
    few percent of arguments."""
    starts, values = pair.K.pieces(phase)
    begin = np.asarray(starts)
    rise = pair.r.growth(phase + begin, np.append(starts[1:], 1.0) - begin)
    at_start = [0.0]
    for dr, value in zip(rise[:-1].tolist(), values):
        at_start.append(at_start[-1] * math.exp(-dr) - math.expm1(-dr) / value)
    step = rise[-1:]
    return float((at_start[-1] * np.exp(-step) - np.expm1(-step) / values[-1])[0])


def _piecewise_draw(rng: random.Random, low: float, high: float) -> PiecewiseConstantCoefficient:
    inner = sorted({rng.random() for _ in range(rng.randrange(5))} - {0.0})
    values = [10.0 ** rng.uniform(math.log10(low), math.log10(high)) for _ in range(len(inner) + 1)]
    return PiecewiseConstantCoefficient((0.0, *inner, 1.0), tuple(values))


def _draw_pair(rng: random.Random, r_kind: str, k_kind: str) -> CoefficientPair:
    """r of the kind with its growth integral from 0.01 to 709, and K
    constant or on up to five pieces, from 1e-5 to 1e5."""
    G = 10.0 ** rng.uniform(-2.0, math.log10(709.0))
    if r_kind == "constant":
        r = ConstantCoefficient(G)
    elif r_kind == "sinusoid":
        r = SinusoidCoefficient(G, rng.uniform(-0.99, 0.99) * G, rng.uniform(-10.0, 10.0))
    else:
        shape = _piecewise_draw(rng, 0.01, 100.0)
        values = tuple(G / shape.mean * v for v in shape.values)
        r = PiecewiseConstantCoefficient(shape.breakpoints, values)
    if k_kind == "constant":
        return CoefficientPair(r, ConstantCoefficient(10.0 ** rng.uniform(-5.0, 5.0)))
    return CoefficientPair(r, _piecewise_draw(rng, 1e-5, 1e5))


def test_B_in_plain_floats_moves_by_an_ulp_or_two_and_keeps_its_worst_error():
    # B in math's exp and expm1 against B with the last step in numpy's:
    # over these 3000 draws 97 move, 92 by one ulp and 5 by two; against the
    # reference (r constant on pieces) 33 moved closer and 31 further off,
    # by -1 to +1.7 ulps, and the worst error over the draws is the same
    rng = random.Random(34)
    moved, worst = 0, {"math": 0.0, "numpy": 0.0}
    for i in range(3000):
        r_kind = ("constant", "piecewise", "sinusoid")[i % 3]
        pair = _draw_pair(rng, r_kind, ("constant", "piecewise")[i // 3 % 2])
        t0 = rng.uniform(0.01, 3.0)
        phase = t0 - math.floor(t0)
        got, before = compute_B(pair, phase), _numpy_B(pair, phase)
        if got != before:
            moved += 1
            assert abs(got - before) <= 2.0 * math.ulp(before)
        if r_kind != "sinusoid":
            want = Reference({**pair.to_dict(), "E": 0.0, "t0": t0}).B()
            errors = {"math": ulps(got, want), "numpy": ulps(before, want)}
            worst = {key: max(worst[key], errors[key]) for key in worst}
    assert 0 < moved <= 150
    assert worst["math"] <= worst["numpy"]


# ---------------------------------------------------------------------------
# the reference itself
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t0", [0.5, 0.875, 3.0])
def test_reference_with_K_constant_is_one_minus_exp_over_K(t0):
    # with K constant, C(s) = (1 - exp(-R(s))) / K whatever r is; splitting
    # K into pieces of one value, or r into pieces, must not change it
    r = _piecewise([0.0, 0.2, 0.9, 1.0], [0.5, 3.0, 1.25])
    plain = Reference({"r": r, "K": {"kind": "constant", "value": 40.0}, "E": 0.0, "t0": t0})
    split_K = _piecewise([0.0, 0.1, 0.6, 0.95, 1.0], [40.0] * 4)
    split = Reference({"r": r, "K": split_K, "E": 0.0, "t0": t0})
    for s in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
        growth = plain.growth(s)
        want = (1 - math.exp(-growth)) / 40.0
        assert float(plain.forcing(s)) == pytest.approx(want, rel=1e-15)
        gap = abs(split.forcing(s) - plain.forcing(s))
        assert gap <= abs(plain.forcing(s)) * Decimal("1e-60")
    # R over one period is the integral of r over [0, 1], from any phase
    bp = [Fraction(b) for b in r["breakpoints"]]
    pieces = zip(bp, bp[1:], r["values"])
    assert plain.growth(1) == sum(Fraction(v) * (b - a) for a, b, v in pieces)


def test_reference_matches_a_fine_quadrature():
    # piecewise r and K, with the window across the period boundary:
    # Simpson's rule on each stretch where both are constant, in floats
    r = _piecewise([0.0, 0.3, 0.8, 1.0], [0.7, 2.0, 0.4])
    K = _piecewise([0.0, 0.5, 0.65, 1.0], [30.0, 0.5, 90.0])
    ref = Reference({"r": r, "K": K, "E": 0.0, "t0": 1.6})
    cuts = sorted({(b - 0.6) % 1.0 for b in (0.0, 0.3, 0.8, 0.5, 0.65)} | {0.0, 1.0})

    def at(coef, u):
        u %= 1.0
        for lo, hi, v in zip(coef["breakpoints"], coef["breakpoints"][1:], coef["values"]):
            if lo <= u < hi:
                return v

    total = float(ref.growth(1))
    simpson = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        mid = 0.6 + 0.5 * (lo + hi)
        rate, capacity = at(r, mid), at(K, mid)
        n = 2000
        h = (hi - lo) / n
        weights = [1 if i in (0, n) else 4 if i % 2 else 2 for i in range(n + 1)]
        simpson += h / 3 * sum(
            w * rate / capacity * math.exp(float(ref.growth(lo + i * h)) - total)
            for i, w in enumerate(weights)
        )
    assert float(ref.B()) == pytest.approx(simpson, rel=1e-12)


def test_reference_matches_the_float_piece_sum_on_a_sliver():
    scenario = CASES["K-sliver"][0]
    params = cli.parse_config({key: scenario[key] for key in ("r", "K", "E", "t0")}).params
    assert float(Reference(scenario).B()) == pytest.approx(
        exact_B(params.pair, params.phase), rel=1e-14
    )
