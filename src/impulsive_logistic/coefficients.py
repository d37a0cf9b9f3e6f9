"""Period-1 coefficient functions and the forcing constant B.

The growth rate r(t) and the carrying capacity K(t) are strictly positive,
piecewise-continuous functions of period 1.  Three constructible families are
supported (constant, sinusoid, piecewise-constant) so that every
antiderivative is analytic; the only numerical step anywhere in the library
is one well-conditioned quadrature over a piecewise-smooth integrand.

Conventions:
  * Evaluation reduces t to the fundamental period [0, 1) first, so
    eval(t + 1) == eval(t) holds by construction.
  * Where the periodic extension jumps, the function takes its left-limit
    value.  The choice is measure-zero and cannot affect any integral; it
    exists so that evaluation is well defined everywhere.

Derived constants (see also :mod:`impulsive_logistic.closed_form`):
  * ``G = r.mean`` -- the growth integral over one period (the period mean
    of r, exact per kind); the per-period growth factor of the
    linearization at extinction is exp(G).
  * ``B`` -- the unit-window forcing integral of (r/K) weighted by the decay
    ``exp(-integral of r)``; it is the forced response of the reciprocal
    form ``y = 1/x``, whose evolution is ``y' + r y = r / K``.  G and B do
    not depend on E: ``compute_B`` returns both, cached per (pair, phase).

The forcing quadrature is ``forcing_integrals``: any number of windows
[start, start + s] from one start, each with its own decay and sum, and
r/K and the growth integral R evaluated in one pass,
``CoefficientPair.ratio_and_growth``, at the nodes and ends of all of them.
B is its one-window case s = 1; the reference side of the periodicity check
takes its 16 windows from one call.  The period table of
:mod:`impulsive_logistic.closed_form` reads the same pass.

A period is cut one way, in the offset s from an impulse, by
``CoefficientPair.period_grid(phase, n)``: every RK4 step and every order-10
Gauss-Legendre panel is one of its intervals, so each lies inside one smooth
piece of r and K, where a coefficient with jumps is read at the interval's
midpoint (``PeriodicCoefficient.piece_values``).  Panels are laid on offsets
and evaluated at phase + offset, so B and a table that ends at offset 1 read
the same nodes.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import ClassVar, Union

import numpy as np

__all__ = [
    "DEFAULT_PANELS_PER_UNIT",
    "CoefficientPair",
    "ConstantCoefficient",
    "PeriodicCoefficient",
    "PiecewiseConstantCoefficient",
    "SinusoidCoefficient",
    "coefficient_from_dict",
    "compute_B",
    "forcing_integrals",
    "panel_rule",
    "sorted_union",
]

ArrayLike = Union[float, np.ndarray]

#: Quadrature panels per unit of integration length for B and the period table.
DEFAULT_PANELS_PER_UNIT = 64

_TWO_PI = 2.0 * math.pi
# Order-10 Gauss-Legendre rule on [-1, 1], exactly as
# numpy.polynomial.legendre.leggauss(10) returns it; written out so that
# importing the package does not load numpy.polynomial.
_GL_NODES = np.array([float.fromhex(x) for x in (
    "-0x1.f2a3e062af2d8p-1", "-0x1.bae995e9cb2f3p-1", "-0x1.5bdb9228de198p-1",
    "-0x1.bbcc009016adcp-2", "-0x1.30e507891e27ap-3", "0x1.30e507891e27ap-3",
    "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f3p-1",
    "0x1.f2a3e062af2d8p-1",
)])
_GL_WEIGHTS = np.array([float.fromhex(x) for x in (
    "0x1.1115f8b62dc1fp-4", "0x1.32138c878efdep-3", "0x1.c0b059d00bc30p-3",
    "0x1.13baa7a559c01p-2", "0x1.2e9de7014d6eep-2", "0x1.2e9de7014d6eep-2",
    "0x1.13baa7a559c01p-2", "0x1.c0b059d00bc30p-3", "0x1.32138c878efdep-3",
    "0x1.1115f8b62dc1fp-4",
)])


class PeriodicCoefficient:
    """A strictly positive period-1 function with an analytic antiderivative.

    Subclasses evaluate pointwise (scalar or ndarray), expose the exact
    antiderivative F(t) = integral from 0 to t and the exact period mean
    ``mean`` (the integral over one period), and list the points in [0, 1)
    where the periodic extension may jump.

    Each kind writes each of its formulas once, in three helpers on the
    split t = whole + u (whole = floor(t), u in [0, 1)): ``_angle(u)``, what
    the two formulas share (the sinusoid's 2 pi u + phase, else u itself),
    ``_values(angle)`` and ``_antiderivative(t, whole, angle)``.  The public
    methods and ``CoefficientPair.ratio_and_growth`` all read them, so one
    floor serves a pass over both values and antiderivative.
    """

    kind: ClassVar[str] = ""

    def _angle(self, u: np.ndarray) -> np.ndarray:
        return u

    def _values(self, angle: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _antiderivative(
        self, t: np.ndarray, whole: np.ndarray, angle: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        out = self._values(self._angle(arr - np.floor(arr)))
        return float(out) if np.ndim(t) == 0 else out

    def antiderivative(self, t: ArrayLike) -> ArrayLike:
        """Exact integral from 0 to t."""
        arr = np.asarray(t, dtype=float)
        whole = np.floor(arr)
        out = self._antiderivative(arr, whole, self._angle(arr - whole))
        return float(out) if np.ndim(t) == 0 else out

    def piece_values(self, t: np.ndarray, key: np.ndarray) -> np.ndarray:
        """Values at the times t, each on the smooth piece around key[i].

        t[i] lies in the closure of an RK4 step or a quadrature panel, and
        key[i] is its midpoint.  An end can round onto a jump, where direct
        evaluation may land on either side, so a coefficient with jumps,
        constant on each piece, takes its value at key.
        """
        return self._piece_values(self._angle(t - np.floor(t)), key)

    def _piece_values(self, angle: np.ndarray, key: np.ndarray) -> np.ndarray:
        return self._values(angle)

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b]; a > b is an error."""
        if b < a:
            raise ValueError(f"reversed interval: a={a} > b={b}")
        return float(self.antiderivative(b)) - float(self.antiderivative(a))

    def breakpoints_mod1(self) -> tuple[float, ...]:
        """Points in [0, 1) where the periodic extension may jump."""
        return ()

    def to_dict(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantCoefficient(PeriodicCoefficient):
    value: float

    kind: ClassVar[str] = "constant"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(
                f"constant coefficient must be a positive finite number, got {self.value!r}"
            )

    @property
    def mean(self) -> float:
        return self.value

    def _values(self, angle: np.ndarray) -> np.ndarray:
        return np.full_like(angle, self.value)

    def _antiderivative(self, t, whole, angle) -> np.ndarray:
        return self.value * t

    def to_dict(self) -> dict:
        return {"kind": "constant", "value": self.value}


@dataclass(frozen=True)
class SinusoidCoefficient(PeriodicCoefficient):
    """mean + amp * sin(2*pi*t + phase); positivity requires mean > |amp|."""

    mean: float
    amp: float
    phase: float = 0.0

    kind: ClassVar[str] = "sinusoid"

    def __post_init__(self) -> None:
        for name in ("mean", "amp", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"sinusoid {name} must be finite")
        if not self.mean > abs(self.amp):
            raise ValueError(
                "sinusoid must stay strictly positive: need mean > |amp|, "
                f"got mean={self.mean!r}, amp={self.amp!r}"
            )

    def _angle(self, u: np.ndarray) -> np.ndarray:
        # built from the reduced time, so that the integral over any whole
        # number of periods is exactly mean * length
        return _TWO_PI * u + self.phase

    def _values(self, angle: np.ndarray) -> np.ndarray:
        return self.mean + self.amp * np.sin(angle)

    def _antiderivative(self, t, whole, angle) -> np.ndarray:
        osc = np.cos(angle) - math.cos(self.phase)
        return self.mean * t - (self.amp / _TWO_PI) * osc

    def to_dict(self) -> dict:
        return {"kind": "sinusoid", "mean": self.mean, "amp": self.amp, "phase": self.phase}


@dataclass(frozen=True)
class PiecewiseConstantCoefficient(PeriodicCoefficient):
    """Step function on [0, 1): values[i] on [breakpoints[i], breakpoints[i+1]).

    breakpoints must run from exactly 0.0 to exactly 1.0, strictly increasing.
    At a jump of the periodic extension (interior breakpoints, and the period
    boundary when values[0] != values[-1]) evaluation returns the left limit.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    kind: ClassVar[str] = "piecewise"

    # derived lookup tables, excluded from comparison/hash
    _bp: np.ndarray = field(init=False, repr=False, compare=False)
    _vals: np.ndarray = field(init=False, repr=False, compare=False)
    _cum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "breakpoints", tuple(float(b) for b in self.breakpoints))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        bp, vals = self.breakpoints, self.values
        if len(bp) < 2:
            raise ValueError("piecewise coefficient needs at least two breakpoints")
        if bp[0] != 0.0 or bp[-1] != 1.0:
            raise ValueError(
                f"breakpoints must run from 0.0 to 1.0, got {bp[0]!r}..{bp[-1]!r}"
            )
        if any(b1 <= b0 for b0, b1 in zip(bp, bp[1:])):
            raise ValueError(f"breakpoints must be strictly increasing, got {bp!r}")
        if len(vals) != len(bp) - 1:
            raise ValueError(
                f"expected {len(bp) - 1} values for {len(bp)} breakpoints, got {len(vals)}"
            )
        if any(not (math.isfinite(v) and v > 0.0) for v in vals):
            raise ValueError(f"piecewise values must be positive finite numbers, got {vals!r}")
        bp_arr = np.asarray(bp)
        vals_arr = np.asarray(vals)
        cum = np.concatenate(([0.0], np.cumsum(np.diff(bp_arr) * vals_arr)))
        object.__setattr__(self, "_bp", bp_arr)
        object.__setattr__(self, "_vals", vals_arr)
        object.__setattr__(self, "_cum", cum)

    @property
    def mean(self) -> float:
        return float(self._cum[-1])

    def _values(self, u: np.ndarray) -> np.ndarray:
        # side="left" puts u == breakpoint into the segment on its left,
        # and u == 0.0 onto the last segment (index -1): the left limit of
        # the periodic extension at the period boundary.
        idx = np.searchsorted(self._bp, u, side="left") - 1
        return self._vals[idx]

    def _piece_values(self, u: np.ndarray, key: np.ndarray) -> np.ndarray:
        # constant on each piece: the value at key serves every time on it
        return self._values(key - np.floor(key))

    def _antiderivative(self, t, whole, u) -> np.ndarray:
        # u >= 0 always, but it rounds up to 1.0 for t in (-2**-54, 0), the
        # one case whose index falls past the last piece
        idx = np.minimum(np.searchsorted(self._bp, u, side="right") - 1, len(self.values) - 1)
        partial = self._cum[idx] + self._vals[idx] * (u - self._bp[idx])
        return whole * self._cum[-1] + partial

    def breakpoints_mod1(self) -> tuple[float, ...]:
        return (0.0,) + self.breakpoints[1:-1]

    def to_dict(self) -> dict:
        return {
            "kind": "piecewise",
            "breakpoints": list(self.breakpoints),
            "values": list(self.values),
        }


_KINDS = {
    "constant": ConstantCoefficient,
    "sinusoid": SinusoidCoefficient,
    "piecewise": PiecewiseConstantCoefficient,
}

def coefficient_from_dict(data: dict) -> PeriodicCoefficient:
    """Build a coefficient from its ``to_dict`` form (also the CLI schema)."""
    if not isinstance(data, dict):
        raise ValueError(f"coefficient description must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown coefficient kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    # a kind's fields are its constructor's; those without a default are required
    kind_fields = [f for f in fields(_KINDS[kind]) if f.init]
    unknown = set(data) - {f.name for f in kind_fields} - {"kind"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} for kind {kind!r}")
    missing = [f.name for f in kind_fields if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"missing field(s) {missing} for kind {kind!r}")
    kwargs = {f.name: data[f.name] for f in kind_fields if f.name in data}
    for name, value in kwargs.items():
        if kind == "piecewise":
            if not (isinstance(value, (list, tuple)) and all(map(_is_number, value))):
                raise ValueError(f"{kind} {name} must be an array of numbers, got {value!r}")
            kwargs[name] = tuple(value)
        elif not _is_number(value):
            raise ValueError(f"{kind} {name} must be a number, got {value!r}")
    return _KINDS[kind](**kwargs)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoefficientPair:
    """Growth rate r and carrying capacity K for one model instance."""

    r: PeriodicCoefficient
    K: PeriodicCoefficient

    def period_grid(self, phase: float, n: int) -> np.ndarray:
        """The partition of a period that starts at coefficient time phase:
        the sorted union of the grid offsets i/n, i = 0..n, and the offsets
        (beta - phase) % 1 at which r or K may jump.

        Every RK4 step and every quadrature panel is one of its intervals,
        so each lies inside one smooth piece of r and K.
        """
        jumps = [(b - phase) % 1.0 for b in self.r.breakpoints_mod1() + self.K.breakpoints_mod1()]
        return sorted_union(np.arange(n + 1) / n, jumps)

    def ratio_and_growth(self, t: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """r/K at the times t, on the pieces around key (``piece_values``),
        and R, the antiderivative of r, at t.

        One pass for the forcing quadratures: t is split into floor and
        fraction once, and r's values and antiderivative share that split;
        each value equals ``r.piece_values(t, key) / K.piece_values(t, key)``
        and ``r.antiderivative(t)``, bit for bit.
        """
        whole = np.floor(t)
        u = t - whole
        r, K = self.r, self.K
        angle = r._angle(u)
        ratio = r._piece_values(angle, key) / K._piece_values(K._angle(u), key)
        return ratio, r._antiderivative(t, whole, angle)

    def to_dict(self) -> dict:
        return {"r": self.r.to_dict(), "K": self.K.to_dict()}


def sorted_union(a, b) -> np.ndarray:
    """The distinct values of a and b, sorted: ``np.union1d`` without the
    import of numpy.ma (10-15 ms) that its first call makes."""
    both = np.sort(np.concatenate((a, b)))
    keep = np.ones(both.size, dtype=bool)
    keep[1:] = both[1:] != both[:-1]
    return both[keep]


def panel_rule(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order-10 Gauss-Legendre, one panel on each interval [lo[i], hi[i]].

    Returns nodes and weights, each of shape (intervals, 10), and each
    interval's midpoint.
    """
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS, mid


def forcing_integrals(
    pair: CoefficientPair,
    start: float,
    offsets,
    panels_per_unit: int = DEFAULT_PANELS_PER_UNIT,
) -> tuple[list[float], list[float]]:
    """For each s in ``offsets``, a number in [0, 1], the forcing integral
    over [start, start + s] of (r/K)(u) exp(-(R(start + s) - R(u))) du and
    the growth integral R(start + s) - R(start), R the antiderivative of r.

    The first is the forced response of the reciprocal form y = 1/x: the
    inhomogeneous term in y(b) = y(a) exp(-(R(b) - R(a))) + (this integral)
    for the window [a, b] = [start, start + s].  Window s has one order-10
    Gauss-Legendre panel (``panel_rule``) from each point of
    ``pair.period_grid(start, panels_per_unit)`` below s to the next, the
    last one ending at s; s == 0 is one panel of width zero, and gives 0.0
    and 0.0.  A node can round onto its panel's end, and so onto a jump, so
    a coefficient with jumps is read at the panel's midpoint.  Windows are
    prefixes of one grid, so r, K and R are evaluated in one
    ``CoefficientPair.ratio_and_growth`` pass; each window keeps its own
    decay and dot product, so each value is the window computed alone, bit
    for bit.
    """
    offsets = [float(s) for s in offsets]
    if not all(0.0 <= s <= 1.0 for s in offsets):
        raise ValueError(f"window offsets must lie in [0, 1], got {offsets!r}")
    grid = pair.period_grid(start, panels_per_unit)
    # window j: the grid's first last[j] panels, then panel shared + j, from
    # its last grid point below s (0.0 when s == 0) to s
    last = np.searchsorted(grid[1:], offsets)
    shared = int(last.max(initial=0))
    nodes, weights, mid = panel_rule(
        np.concatenate((grid[:shared], grid[last])), np.concatenate((grid[1 : shared + 1], offsets))
    )
    n = nodes.size
    ends = [0.0, *offsets]
    ratio, big_r = pair.ratio_and_growth(
        start + np.concatenate((nodes.ravel(), ends)),
        start + np.concatenate((np.repeat(mid, _GL_NODES.size), ends)),
    )
    # the rows of each window's panels, in order
    count = last + 1
    bounds = np.cumsum(count)
    rows = np.arange(count.sum()) - np.repeat(bounds - count, count)
    rows[bounds - 1] = shared + np.arange(count.size)
    lift = np.repeat(big_r[n + 1 :], count)[:, None]
    integrand = ratio[:n].reshape(nodes.shape)[rows] * np.exp(
        big_r[:n].reshape(nodes.shape)[rows] - lift
    )
    weights = weights[rows]
    forcing = [
        float(np.dot(weights[lo:hi].ravel(), integrand[lo:hi].ravel()))
        for lo, hi in zip((bounds - count).tolist(), bounds.tolist())
    ]
    return forcing, (big_r[n + 1 :] - big_r[n]).tolist()


@lru_cache(maxsize=256)
def compute_B(pair: CoefficientPair, phase: float) -> tuple[float, float]:
    """Growth integral G of r over one period; forcing integral B > 0 over [phase, phase + 1].

    The window starts at an impulse instant reduced to the fundamental
    period, so phase lies in [0, 1): shifting the window by a whole number
    of periods leaves B unchanged (periodicity of r and K).  Cached per
    (pair, phase), the package's one cache: neither value depends on E, so
    the CLI's config check and every harvest fraction share one quadrature.
    """
    if not 0.0 <= phase < 1.0:
        raise ValueError(f"phase must lie in [0, 1), got {phase!r}")
    return pair.r.mean, forcing_integrals(pair, phase, (1.0,))[0][0]
