"""Period-1 coefficient functions and the forcing constant B.

The growth rate r(t) and the carrying capacity K(t) are strictly positive,
piecewise-continuous functions of period 1.  Three constructible families are
supported (constant, sinusoid, piecewise-constant) so that every
integral of r is analytic.  Where K is constant on pieces (the constant and
piecewise kinds) the forcing integrals are finite sums of exponentials too,
for any r; the only numerical step anywhere in the library is one
well-conditioned quadrature over a piecewise-smooth integrand, taken only
when K is a sinusoid, and by the independent side of the periodicity check.

A coefficient is read two ways: ``piece_values(t, key)``, its values at t
on the smooth piece around key, and ``growth(phase, s)``, its exact
integral over the window [phase, phase + s], formed in the offset s.  A
kind constant on pieces also lists its pieces from a phase, ``pieces``.

Conventions:
  * Evaluation reduces t to the fundamental period [0, 1) first, so
    ``piece_values(t + 1, key + 1) == piece_values(t, key)`` holds by
    construction.
  * Where the periodic extension jumps, ``piece_values(t, t)`` takes its
    left-limit value.  The choice is measure-zero and cannot affect any
    integral; it exists so that evaluation is well defined everywhere.

Derived constants (see also :mod:`impulsive_logistic.closed_form`):
  * ``G = r.mean`` -- the growth integral over one period (the period mean
    of r, exact per kind); the per-period growth factor of the
    linearization at extinction is exp(G).
  * ``B`` -- the unit-window forcing integral of (r/K) weighted by the decay
    ``exp(-integral of r)``; it is the forced response of the reciprocal
    form ``y = 1/x``, whose evolution is ``y' + r y = r / K``.  G and B do
    not depend on E: ``compute_B`` returns B, cached per (pair, phase).

Where K is constant on pieces, ``piece_forcing`` sums the forcing
integral C(s) over [phase, phase + s] piece by piece: since
d/du exp(R(u)) = r(u) exp(R(u)), the integrand (r/K) exp(R) is
(1/K) d(exp(R)) wherever K is constant.  B is its C(1), in plain floats,
which load no numpy (bound lazily, ``_lazy``), and the period table of
:mod:`impulsive_logistic.closed_form` reads the same sum.

B of a sinusoid K is one order-10 Gauss-Legendre sum over the unit
window, r/K and the growth R read in one pass,
``CoefficientPair.ratio_and_growth``, at its nodes and at offset 1.  The
window quadrature ``forcing_integrals`` is the periodicity reference's: any
number of windows [start, start + s] from one start, each a prefix of the
period grid with every end added, with its own decay and sum, from one
such pass; with every end on the grid, its window s = 1 is B's sum, bit
for bit.  B lays ``forcing_panels(pair)`` panels per unit, the reference
twice that: 64, and more once the growth integral passes 256.

A period is cut one way, in the offset s from an impulse, by
``CoefficientPair.period_grid(phase, n)``: every RK4 step and every order-10
Gauss-Legendre panel is one of its intervals, so each lies inside one smooth
piece of r and K, where a coefficient with jumps is read at the interval's
midpoint (``PeriodicCoefficient.piece_values``).  Panels are laid on offsets
and evaluated at phase + offset, so a sinusoid K's B and a table that ends
at offset 1 read the same nodes.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import ClassVar

from ._lazy import np

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
    "forcing_panels",
    "panel_rule",
    "piece_forcing",
    "sorted_union",
]

#: Quadrature panels per unit of integration length for B and the period
#: table, below a growth integral of 256 (``forcing_panels``).
DEFAULT_PANELS_PER_UNIT = 64


def forcing_panels(pair: CoefficientPair) -> int:
    """Panels per unit of a forcing quadrature over ``pair``: 64, and one
    per 4 units of the growth integral G past G = 256.

    The integrand carries exp(R), which rises by exp(G) over the period.
    Against 16384 panels, with a sinusoid K, B at 64 panels was up to
    1.9e-7 off at G = 709; at this count, within 1e-13.
    """
    return max(DEFAULT_PANELS_PER_UNIT, math.ceil(pair.r.mean / 4))


_TWO_PI = 2.0 * math.pi
# Order-10 Gauss-Legendre rule on [-1, 1], exactly as
# numpy.polynomial.legendre.leggauss(10) returns it; written out as floats,
# made arrays on the first ``panel_rule`` call, so that importing the
# package loads no numpy.
_GL_NODES = tuple(float.fromhex(x) for x in (
    "-0x1.f2a3e062af2d8p-1", "-0x1.bae995e9cb2f3p-1", "-0x1.5bdb9228de198p-1",
    "-0x1.bbcc009016adcp-2", "-0x1.30e507891e27ap-3", "0x1.30e507891e27ap-3",
    "0x1.bbcc009016adcp-2", "0x1.5bdb9228de198p-1", "0x1.bae995e9cb2f3p-1",
    "0x1.f2a3e062af2d8p-1",
))
_GL_WEIGHTS = tuple(float.fromhex(x) for x in (
    "0x1.1115f8b62dc1fp-4", "0x1.32138c878efdep-3", "0x1.c0b059d00bc30p-3",
    "0x1.13baa7a559c01p-2", "0x1.2e9de7014d6eep-2", "0x1.2e9de7014d6eep-2",
    "0x1.13baa7a559c01p-2", "0x1.c0b059d00bc30p-3", "0x1.32138c878efdep-3",
    "0x1.1115f8b62dc1fp-4",
))
_GL_ARRAYS: list = []


class PeriodicCoefficient:
    """A strictly positive period-1 function with an analytic integral.

    A kind is read two ways: ``piece_values``, its values on a smooth
    piece, and ``growth``, the exact integral over a window; neither
    promises a Python float for a scalar argument (wrap it in ``float()``).
    It also gives the exact period mean ``mean`` (the integral over one
    period) and, for a kind constant on pieces, the pieces (``pieces``),
    whose starts are the only offsets at which a kind may jump.
    """

    kind: ClassVar[str] = ""

    def piece_values(self, t: float | np.ndarray, key: float | np.ndarray) -> np.ndarray:
        """Values at the times t, each on the smooth piece around key[i];
        with key = t, the function itself.

        t[i] lies in the closure of an RK4 step or a quadrature panel, and
        key[i] is its midpoint.  An end can round onto a jump, where direct
        evaluation may land on either side, so a coefficient with jumps,
        constant on each piece, takes its value at key.
        """
        raise NotImplementedError

    def growth(self, phase: float | np.ndarray, s: float | np.ndarray) -> np.ndarray:
        """Exact integral over each window [phase, phase + s], s in [0, 1].

        Formed in the offset s, so that a short window keeps its relative
        accuracy wherever it starts; phase and s broadcast against each
        other.  ``float_growth`` is one window in plain floats, operation
        for operation.
        """
        raise NotImplementedError

    def pieces(self, phase: float) -> tuple[list[float], list[float]] | None:
        """For a kind constant on pieces, the offsets from phase at which
        its pieces start within one period, sorted and the first 0.0, and
        the value on each; None for a kind that is not constant on pieces.
        """
        return None

    def to_dict(self) -> dict:
        """The kind and each constructor field, tuples as lists: the schema."""
        data = {"kind": self.kind}
        for f in fields(self):
            if f.init:
                value = getattr(self, f.name)
                data[f.name] = list(value) if isinstance(value, tuple) else value
        return data


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

    def piece_values(self, t, key):
        # in float: an integer value past int64 would make an object array
        return np.full(np.shape(t), self.value, dtype=float)

    def growth(self, phase, s):
        return float(self.value) * np.asarray(s, dtype=float)

    def float_growth(self, phase, s):
        return float(self.value) * s

    def pieces(self, phase):
        return [0.0], [float(self.value)]


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

    def _angle(self, t):
        # built from the reduced time, so that the integral over any whole
        # number of periods is exactly mean * length
        return _TWO_PI * (t - np.floor(t)) + self.phase

    def piece_values(self, t, key):
        return self.mean + self.amp * np.sin(self._angle(t))

    def growth(self, phase, s):
        # mean s - amp/(2 pi) (cos(a + 2 pi s) - cos(a)), a the angle at
        # phase, as a product: no cancellation for a short window.  sin(pi s)
        # is taken as sin(pi (1 - s)) past s = 1/2, which is exact at s = 1,
        # so a whole period's growth is mean bit for bit
        s = np.asarray(s, dtype=float)
        half_turn = np.sin(math.pi * np.minimum(s, 1.0 - s))
        osc = half_turn * np.sin(self._angle(phase) + math.pi * s)
        return self.mean * s + (self.amp / math.pi) * osc

    def float_growth(self, phase, s):
        angle = _TWO_PI * (phase - math.floor(phase)) + self.phase
        osc = math.sin(math.pi * min(s, 1.0 - s)) * math.sin(angle + math.pi * s)
        return self.mean * s + (self.amp / math.pi) * osc


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

    # lookup tables over two periods, from __post_init__'s floats on first use
    _bp2 = cached_property(lambda self: np.array(self._starts2))
    _vals2 = cached_property(lambda self: np.array(self.values * 2))
    _cum2 = cached_property(lambda self: np.array(self._sums2))

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
        # in plain floats, in numpy's order: the second period's pieces have
        # the first period's widths, and a running sum past the float range
        # ends in inf without a warning
        steps = [(b1 - b0) * v for b0, b1, v in zip(bp, bp[1:], vals)] * 2
        object.__setattr__(self, "_starts2", bp[:-1] + tuple(b + 1.0 for b in bp))
        object.__setattr__(self, "_sums2", list(accumulate(steps, initial=0.0)))

    @property
    def mean(self) -> float:
        return self._sums2[len(self.values)]

    def piece_values(self, t, key):
        # constant on each piece: the value at key serves every time on it.
        # side="left" puts a key on a breakpoint into the segment on its
        # left, and one on a whole number onto the last segment (index -1):
        # the left limit of the periodic extension at the period boundary.
        # _bp2 opens with the breakpoints, so a reduced time in [0, 1] finds
        # the same index in it as among the breakpoints alone
        idx = np.searchsorted(self._bp2, key - np.floor(key), side="left") - 1
        return self._vals2[idx]

    def growth(self, phase, s):
        # the pieces of two periods from 0, so that every window from a
        # phase in [0, 1] ends on one of them: the overlap with the
        # phase's piece, the whole pieces after it, and the overlap with
        # the piece of the window's end, each taken as a width in offsets
        s = np.asarray(s, dtype=float)
        u = phase - np.floor(phase)
        # u >= 0 always, but it rounds up to 1.0 for a phase in (-2**-54,
        # 0), the one case whose index falls past the last piece
        first = np.minimum(np.searchsorted(self._bp2, u, side="right") - 1, len(self.values) - 1)
        # an end on a jump lies on the piece to its left
        last = np.maximum(np.searchsorted(self._bp2, u + s, side="left") - 1, first)
        head = self._vals2[first] * np.minimum(s, self._bp2[first + 1] - u)
        body = self._cum2[last] - self._cum2[first + 1]
        tail = self._vals2[last] * (s - (self._bp2[last] - u))
        return np.where(last == first, self._vals2[first] * s, head + body + tail)

    def float_growth(self, phase, s):
        u = phase - math.floor(phase)
        first = min(bisect_right(self.breakpoints, u) - 1, len(self.values) - 1)
        last = max(bisect_left(self._starts2, u + s) - 1, first)
        if last == first:
            return self.values[first] * s
        head = self.values[first] * min(s, self._starts2[first + 1] - u)
        body = self._sums2[last] - self._sums2[first + 1]
        return head + body + self.values[last % len(self.values)] * (s - (self._starts2[last] - u))

    def pieces(self, phase):
        # piece i starts at offset (breakpoints[i] - phase) % 1, the jump
        # offset of ``CoefficientPair.period_grid``; offset 0 lies on the
        # piece that starts last
        starts = sorted(((b - phase) % 1.0, v) for b, v in zip(self.breakpoints, self.values))
        return [0.0] + [u for u, _ in starts], [starts[-1][1]] + [v for _, v in starts]


_KINDS = {
    cls.kind: cls
    for cls in (ConstantCoefficient, SinusoidCoefficient, PiecewiseConstantCoefficient)
}
# a kind's fields are its constructor's; those without a default are required
_KIND_FIELDS = {kind: [f for f in fields(cls) if f.init] for kind, cls in _KINDS.items()}

def coefficient_from_dict(data: dict) -> PeriodicCoefficient:
    """Build a coefficient from its ``to_dict`` form (also the CLI schema)."""
    if not isinstance(data, dict):
        raise ValueError(f"coefficient description must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ValueError(
            f"unknown coefficient kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    kind_fields = _KIND_FIELDS[kind]
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
        at which r or K may jump, the starts of their ``pieces`` after the
        first; the grid offsets themselves when neither jumps.

        Every RK4 step and every quadrature panel is one of its intervals,
        so each lies inside one smooth piece of r and K.
        """
        jumps: list[float] = []
        for c in (self.r, self.K):
            pieces = c.pieces(phase)
            if pieces is not None:
                jumps += pieces[0][1:]
        grid = np.arange(n + 1) / n
        return sorted_union(grid, jumps) if jumps else grid

    def ratio_and_growth(
        self, phase: float, s: np.ndarray, key: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """r/K at the times phase + s, on the pieces around phase + key
        (``piece_values``), and R, the growth of r over [phase, phase + s]:
        the one evaluation pass of the forcing quadratures."""
        r = self.r
        t, key = phase + s, phase + key
        return r.piece_values(t, key) / self.K.piece_values(t, key), r.growth(phase, s)

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
    if not _GL_ARRAYS:
        _GL_ARRAYS.extend((np.array(_GL_NODES), np.array(_GL_WEIGHTS)))
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _GL_ARRAYS[0], half[:, None] * _GL_ARRAYS[1], mid


def forcing_integrals(
    pair: CoefficientPair, start: float, offsets, panels_per_unit: int
) -> tuple[list[float], list[float]]:
    """For each s in ``offsets``, a number in [0, 1], the forcing integral
    over [start, start + s] of (r/K)(u) exp(-(R(s) - R(u - start))) du and
    the growth integral R(s), R(s) the growth of r over [start, start + s].

    The first is the forced response of the reciprocal form y = 1/x: the
    inhomogeneous term in y(b) = y(a) exp(-(R(b) - R(a))) + (this integral)
    for the window [a, b] = [start, start + s].  One order-10 Gauss-Legendre
    panel (``panel_rule``) lies on each interval of one partition,
    ``pair.period_grid(start, panels_per_unit)`` with every s added, and
    window s sums those below s with its own decay and dot product (none for
    s == 0: 0.0 and 0.0).  Where s lies on ``period_grid``, its window is the
    window computed alone, bit for bit; an s off it splits a panel of every
    longer window.  r, K and R are read in one
    ``CoefficientPair.ratio_and_growth`` pass, a coefficient with jumps at
    the panel's midpoint, since a node can round onto its panel's end.  It
    takes no account of the kind of K: the periodicity reference reads it
    for every kind, and at ``forcing_panels`` with every s on the grid its
    window s = 1 is ``compute_B``'s sum for a sinusoid K, bit for bit.
    """
    offsets = [float(s) for s in offsets]
    if not all(0.0 <= s <= 1.0 for s in offsets):
        raise ValueError(f"window offsets must lie in [0, 1], got {offsets!r}")
    grid = sorted_union(pair.period_grid(start, panels_per_unit), offsets)
    nodes, weights, mid = panel_rule(grid[:-1], grid[1:])
    n, keys = nodes.size, np.repeat(mid, len(_GL_NODES))
    ratio, big_r = pair.ratio_and_growth(
        start, np.concatenate((nodes.ravel(), offsets)), np.concatenate((keys, offsets))
    )
    ratio, growth = ratio[:n].reshape(nodes.shape), big_r[:n].reshape(nodes.shape)
    forcing = [
        float(np.dot(weights[:end].ravel(), (ratio[:end] * np.exp(growth[:end] - lift)).ravel()))
        for end, lift in zip(np.searchsorted(grid, offsets).tolist(), big_r[n:].tolist())
    ]
    return forcing, big_r[n:].tolist()


def _forcing_at_starts(pair: CoefficientPair, phase: float, starts, values) -> list[float]:
    """C at the start of each piece of K (``K.pieces``) and, last, at offset
    1: ``piece_forcing``'s step over each whole piece, in plain floats."""
    at_start = [0.0]
    for a, b, value in zip(starts, starts[1:] + [1.0], values):
        dr = pair.r.float_growth(phase + a, b - a)
        at_start.append(at_start[-1] * math.exp(-dr) - math.expm1(-dr) / value)
    return at_start


def piece_forcing(pair: CoefficientPair, phase: float, offsets) -> np.ndarray | None:
    """C(s), the forcing integral over [phase, phase + s], at each offset s
    in [0, 1], when K is constant on pieces; None when it is not.

    On a stretch [a, b] where K is constant, (r/K) exp(R) is
    (1/K) d(exp(R)) for any r, so with dR = r.growth(phase + a, b - a)

        C(b) = C(a) exp(-dR) - expm1(-dR) / K.

    That step runs over each whole piece of K up to offset 1, in floats
    (``_forcing_at_starts``), then in one array pass from the start of the
    piece each offset lies on.  So C(s) reads only the pieces before s and
    its own; offset 1 reads the last whole-piece value, ``compute_B``'s B.
    Every term is at most 1/K, so C overflows only where 1/K does.
    """
    pieces = pair.K.pieces(phase)
    if pieces is None:
        return None
    starts, values = pieces
    at_start = _forcing_at_starts(pair, phase, starts, values)
    s = np.asarray(offsets, dtype=float)
    piece = np.searchsorted(starts, s, side="right") - 1
    begin = np.asarray(starts)[piece]
    step = pair.r.growth(phase + begin, s - begin)
    carried = np.asarray(at_start)[piece] * np.exp(-step)
    forcing = carried - np.expm1(-step) / np.asarray(values)[piece]
    forcing[s == 1.0] = at_start[-1]
    return forcing


@lru_cache(maxsize=256)
def compute_B(pair: CoefficientPair, phase: float) -> float:
    """The forcing integral B over [phase, phase + 1].

    The window starts at an impulse instant reduced to the fundamental
    period, so phase lies in [0, 1): shifting the window by a whole number
    of periods leaves B unchanged (periodicity of r and K).  Where K is
    constant on pieces, B is the C(1) of ``piece_forcing``, in floats; for
    a sinusoid K, one Gauss-Legendre sum at ``forcing_panels`` per unit, on
    the panels and nodes of the window s = 1 of ``forcing_integrals``.  Cached per
    (pair, phase), the package's one cache: B does not depend on E, so
    every harvest fraction shares it.  B > 0 in exact arithmetic; in
    floats it can overflow to inf (a tiny K) or underflow to a subnormal or
    0.0 (a tiny r/K), without a warning: ``derive_constants`` refuses it.
    """
    if not 0.0 <= phase < 1.0:
        raise ValueError(f"phase must lie in [0, 1), got {phase!r}")
    pieces = pair.K.pieces(phase)
    if pieces is not None:
        return _forcing_at_starts(pair, phase, *pieces)[-1]
    grid = pair.period_grid(phase, forcing_panels(pair))
    nodes, weights, mid = panel_rule(grid[:-1], grid[1:])
    n = nodes.size
    with np.errstate(over="ignore", invalid="ignore"):  # derive_constants refuses an inf B
        ratio, big_r = pair.ratio_and_growth(
            phase, np.append(nodes, 1.0), np.append(np.repeat(mid, len(_GL_NODES)), 1.0)
        )
        return float(np.dot(weights.ravel(), ratio[:n] * np.exp(big_r[:n] - big_r[n])))
