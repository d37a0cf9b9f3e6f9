"""Period-1 coefficient functions and the growth/forcing constants A and B.

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
  * ``A = exp(integral of r over one period)`` -- the per-period growth
    factor of the linearization at extinction (``compute_A``).
  * ``B`` -- the unit-window forcing integral of (r/K) weighted by the decay
    ``exp(-integral of r)`` (``compute_B``); it is the forced response of the
    reciprocal form ``y = 1/x``, whose evolution is ``y' + r y = r / K``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    "compute_A",
    "compute_B",
    "forcing_integral",
    "gauss_panels",
    "panel_rule",
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

#: A jump closer than this to a cut or grid point does not cut there again:
#: it is merged into the quadrature panels' cuts and into the RK4 step grid.
CUT_TOL = 1e-12


def _fractional(t: np.ndarray) -> np.ndarray:
    """Reduce to the fundamental period [0, 1); exact for any real t."""
    return t - np.floor(t)


class PeriodicCoefficient:
    """A strictly positive period-1 function with an analytic antiderivative.

    Subclasses evaluate pointwise (scalar or ndarray), expose the exact
    antiderivative F(t) = integral from 0 to t, and list the points in
    [0, 1) where the periodic extension may jump.
    """

    kind: ClassVar[str] = ""

    def _values(self, u: np.ndarray) -> np.ndarray:
        """Pointwise values; u is already reduced to [0, 1)."""
        raise NotImplementedError

    def _antiderivative(self, t: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        out = self._values(_fractional(arr))
        return float(out) if np.ndim(t) == 0 else out

    def antiderivative(self, t: ArrayLike) -> ArrayLike:
        """Exact integral from 0 to t."""
        arr = np.asarray(t, dtype=float)
        out = self._antiderivative(arr)
        return float(out) if np.ndim(t) == 0 else out

    def stage_values(
        self, stages: tuple[np.ndarray, ...], mid: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """Values at each array of stage times, on the smooth piece of each step.

        Step i lies strictly inside one piece of this coefficient, the piece
        around its midpoint ``mid[i]``; ``stages`` hold times in the closure
        of step i (its ends included) and the coefficient is extended
        smoothly to that closure.  The ends can sit within rounding of a
        jump, where direct evaluation may land on either side, so a
        coefficient with jumps must key its values on ``mid``.
        """
        return tuple(self(t) for t in stages)

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

    def _values(self, u: np.ndarray) -> np.ndarray:
        return np.full_like(u, self.value)

    def _antiderivative(self, t: np.ndarray) -> np.ndarray:
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

    def _values(self, u: np.ndarray) -> np.ndarray:
        return self.mean + self.amp * np.sin(_TWO_PI * u + self.phase)

    def _antiderivative(self, t: np.ndarray) -> np.ndarray:
        # Phase argument built from the reduced time so that the integral
        # over any whole number of periods is exactly mean * length.
        u = _fractional(t)
        osc = np.cos(_TWO_PI * u + self.phase) - math.cos(self.phase)
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

    def _values(self, u: np.ndarray) -> np.ndarray:
        # side="left" puts u == breakpoint into the segment on its left,
        # and u == 0.0 onto the last segment (index -1): the left limit of
        # the periodic extension at the period boundary.
        idx = np.searchsorted(self._bp, u, side="left") - 1
        return self._vals[idx]

    def stage_values(
        self, stages: tuple[np.ndarray, ...], mid: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        # constant on each piece: the midpoint value serves every stage
        value = self(mid)
        return (value,) * len(stages)

    def _antiderivative(self, t: np.ndarray) -> np.ndarray:
        whole = np.floor(t)
        u = t - whole
        idx = np.clip(np.searchsorted(self._bp, u, side="right") - 1, 0, len(self.values) - 1)
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

_KIND_FIELDS = {
    "constant": {"value": True},
    "sinusoid": {"mean": True, "amp": True, "phase": False},
    "piecewise": {"breakpoints": True, "values": True},
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
    fields = _KIND_FIELDS[kind]
    unknown = set(data) - set(fields) - {"kind"}
    if unknown:
        raise ValueError(f"unknown field(s) {sorted(unknown)} for kind {kind!r}")
    missing = [name for name, required in fields.items() if required and name not in data]
    if missing:
        raise ValueError(f"missing field(s) {missing} for kind {kind!r}")
    kwargs = {name: data[name] for name in fields if name in data}
    if kind == "piecewise":
        kwargs = {
            "breakpoints": tuple(kwargs["breakpoints"]),
            "values": tuple(kwargs["values"]),
        }
    return _KINDS[kind](**kwargs)


@dataclass(frozen=True)
class CoefficientPair:
    """Growth rate r and carrying capacity K for one model instance."""

    r: PeriodicCoefficient
    K: PeriodicCoefficient

    def breakpoints_mod1(self) -> tuple[float, ...]:
        return tuple(sorted(set(self.r.breakpoints_mod1()) | set(self.K.breakpoints_mod1())))

    def to_dict(self) -> dict:
        return {"r": self.r.to_dict(), "K": self.K.to_dict()}


def compute_A(r: PeriodicCoefficient) -> float:
    """Per-period growth factor A = exp(integral of r over one period).

    By periodicity the same value results from any window of length 1;
    A > 1 whenever r is positive.
    """
    return math.exp(r.integral(0.0, 1.0))


def gauss_panels(
    breaks_mod1: tuple[float, ...], a: float, b: float, panels_per_unit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [a, b].

    Panels are split at every translate beta + m of the given mod-1
    breakpoints inside (a, b) that lies more than CUT_TOL from the previous
    cut and from b, so a piecewise-smooth integrand is smooth on each panel;
    nodes are strictly interior, so jump-point value conventions never
    enter an integral.
    """
    shifts = range(math.floor(a) - 1, math.ceil(b) + 1)
    cuts = [a]
    for p in sorted(beta + m for beta in breaks_mod1 for m in shifts):
        if p - cuts[-1] > CUT_TOL and p < b - CUT_TOL:
            cuts.append(p)
    cuts.append(b)

    nodes, weights, _ = panel_rule(np.asarray(cuts), panels_per_unit)
    return nodes.ravel(), weights.ravel()


def panel_rule(
    edges: np.ndarray, panels_per_unit: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre (order 10) between consecutive sorted edges.

    Each interval gets ceil(width * panels_per_unit) equal panels, placed as
    ``np.linspace`` would place them.  Returns nodes and weights, each of
    shape (panels, 10), and the index of each interval's first panel.
    """
    width = np.diff(edges)
    count = np.maximum(1, np.ceil(width * panels_per_unit - 1e-9)).astype(int)
    owner = np.repeat(np.arange(width.size), count)
    first = np.cumsum(count) - count
    lo = (np.arange(owner.size) - first[owner]) * (width / count)[owner] + edges[owner]
    hi = np.append(lo[1:], edges[-1])
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_NODES, half[:, None] * _GL_WEIGHTS, first


def forcing_integral(
    pair: CoefficientPair,
    a: float,
    b: float,
    panels_per_unit: int = DEFAULT_PANELS_PER_UNIT,
) -> float:
    """Integral over [a, b] of (r/K)(s) * exp(-(R(b) - R(s))), R = antiderivative of r.

    This is the forced response of the reciprocal form y = 1/x: it is the
    inhomogeneous term in y(b) = y(a) * exp(-(R(b) - R(a))) + (this integral).
    Composite Gauss-Legendre of order 10; panels are split at every jump of
    r or K so each panel sees a smooth integrand.
    """
    if b < a:
        raise ValueError(f"reversed interval: a={a} > b={b}")
    if b == a:
        return 0.0
    nodes, weights = gauss_panels(pair.breakpoints_mod1(), a, b, panels_per_unit)
    r, K = pair.r, pair.K
    decay = np.exp(r.antiderivative(nodes) - r.antiderivative(b))
    return float(np.dot(weights, r(nodes) / K(nodes) * decay))


def compute_B(pair: CoefficientPair, phase: float) -> float:
    """Unit-window forcing integral B over [phase, phase + 1]; strictly positive.

    The window starts at an impulse instant reduced to the fundamental
    period, so phase lies in [0, 1): shifting the window by a whole number
    of periods leaves B unchanged (periodicity of r and K).
    """
    if not 0.0 <= phase < 1.0:
        raise ValueError(f"phase must lie in [0, 1), got {phase!r}")
    return forcing_integral(pair, phase, phase + 1.0)
