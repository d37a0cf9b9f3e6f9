"""A high-precision reference for the forcing integrals where K is constant
on pieces, in stdlib ``decimal`` and ``fractions`` only.

It reads a scenario as plain data, the CLI's JSON form of r, K, E and t0,
and shares no code with the package.  Every input float is exact as a
``Fraction``; the window from an impulse starts at the phase t0 - floor(t0),
and K and r jump at their breakpoints plus whole numbers, exactly.  With R(s)
the integral of r over [phase, phase + s], which is piecewise linear in s
with rational breakpoints, the forcing integral over [0, s] is

    C(s) = sum over the pieces [a, b] of K inside [0, s] of
           exp(-(R(s) - R(b))) (1 - exp(-(R(b) - R(a)))) / K,

since (r/K) exp(R) is (1/K) d(exp(R)) wherever K is constant.  Each
difference of R is formed from exact widths, and every exponential is
taken to ``DIGITS`` significant digits, far past a float's 17, so the
result is the true value for the purposes of an ulp count.  Only the
constant and piecewise kinds are read.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

DIGITS = 80


def _pieces(coef: dict) -> list[tuple[Fraction, Fraction, Fraction]]:
    """(start, end, value) of each piece of one period [0, 1]."""
    if coef["kind"] == "constant":
        return [(Fraction(0), Fraction(1), Fraction(coef["value"]))]
    if coef["kind"] != "piecewise":
        raise ValueError(f"kind {coef['kind']!r} is not constant on pieces")
    bp = [Fraction(b) for b in coef["breakpoints"]]
    return [(a, b, Fraction(v)) for a, b, v in zip(bp, bp[1:], coef["values"])]


def _pieces_of_window(coef: dict, phase: Fraction, length: Fraction):
    """(start, end, value) of each piece met by [phase, phase + length], in
    offsets from phase, clipped to [0, length]; 0 <= phase < 1."""
    out = []
    for shift in (0, 1):
        for a, b, v in _pieces(coef):
            lo = max(a + shift - phase, Fraction(0))
            hi = min(b + shift - phase, length)
            if lo < hi:
                out.append((lo, hi, v))
    return out


def _dec(x: Fraction) -> Decimal:
    return Decimal(x.numerator) / Decimal(x.denominator)


def _one_minus_exp_neg(x: Fraction) -> Decimal:
    """1 - exp(-x) for x >= 0, without losing digits to the subtraction."""
    if x < Fraction(1, 10**6):  # the alternating series x - x^2/2 + ...
        term, total, k = _dec(x), Decimal(0), 1
        while term != 0 and abs(term) > abs(total) * Decimal(10) ** -(DIGITS + 5):
            total += term
            k += 1
            term = -term * _dec(x) / k
        return total
    return 1 - (-_dec(x)).exp()


class Reference:
    """The exact growth and forcing integrals of one scenario."""

    def __init__(self, scenario: dict) -> None:
        self.r, self.K = scenario["r"], scenario["K"]
        self.E = Fraction(scenario["E"])
        t0 = Fraction(scenario.get("t0", 0.5))
        self.phase = t0 - math.floor(t0)

    def growth(self, s) -> Fraction:
        """R(s), exactly."""
        return sum(
            (v * (hi - lo) for lo, hi, v in _pieces_of_window(self.r, self.phase, Fraction(s))),
            Fraction(0),
        )

    def forcing(self, s) -> Decimal:
        """C(s), to ``DIGITS`` digits."""
        s = Fraction(s)
        with localcontext() as ctx:
            ctx.prec = DIGITS
            total = Decimal(0)
            R_s = self.growth(s)
            for lo, hi, k in _pieces_of_window(self.K, self.phase, s):
                rise = self.growth(hi) - self.growth(lo)
                carried = (-_dec(R_s - self.growth(hi))).exp()
                total += carried * _one_minus_exp_neg(rise) / _dec(k)
            return +total

    def B(self) -> Decimal:
        return self.forcing(1)

    def x0_star(self) -> Decimal:
        """d / B, with d = 1 - exp(-G) - E and G the growth over one period."""
        with localcontext() as ctx:
            ctx.prec = DIGITS
            d = _one_minus_exp_neg(self.growth(1)) - _dec(self.E)
            return d / self.B()


def ulps(got: float, want: Decimal) -> float:
    """|got - want| in units of the last place of want rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if want == 0:
            return 0.0 if got == 0.0 else math.inf
        return float(abs(Decimal(got) - want) / Decimal(math.ulp(float(want))))
