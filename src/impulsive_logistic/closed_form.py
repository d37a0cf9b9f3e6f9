"""Analytic solution of the harvested logistic model.

The model: between impulses the population follows x' = r(t) (1 - x/K(t)) x,
and at each impulse instant tau_k = t0 + k (k = 1, 2, ...) a fraction E of
the population is removed, x -> (1 - E) x.

Everything here is closed form up to one quadrature.  Substituting y = 1/x
linearizes the growth law to y' + r y = r/K, so on the interval
[t0 + k, t0 + k + 1) the reciprocal of the solution is an explicit
combination of the per-period growth factor A, the unit-window forcing
integral B, the net per-period multiplier q = (1 - E) A, and one running
forcing integral.  See ``solution_grid`` for the exact expression.

Time is a pair (period index k, offset s in [0, 1]) standing for
t = t0 + k + s.  By periodicity the coefficients there take their values at
the phase frac(t0) + s (``ModelParams.phase``), so the running integrals
depend only on s, never on k or on t0 itself: an integer shift of t0 changes
nothing.  ``period_table`` computes them for a whole grid of offsets in one
cumulative quadrature pass, and ``solution_grid`` / ``periodic_grid``
evaluate the closed form over (period index, offset) pairs from that table,
so the cost grows with the number of output points, not with points times
quadrature panels.  Both sides of an impulse have exact addresses: offset 1
of period k is the pre-impulse value, offset 0 of period k + 1 the
post-impulse value.

When q > 1 the model has a unique positive period-1 orbit; its post-impulse
anchor value is x0_star = (q - 1) / (A B), the fixed point of the
period-advance (Poincare) map.  ``legacy_periodic_at`` evaluates an older
published formula for that orbit which is continuous at the impulse times
and therefore cannot satisfy the jump rule; it is provided so the
discrepancy is checkable (see :mod:`impulsive_logistic.analysis`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .coefficients import (
    DEFAULT_PANELS_PER_UNIT,
    CoefficientPair,
    compute_A,
    compute_B,
    forcing_integral,
    gauss_panels,
    panel_rule,
)

__all__ = [
    "ImpulseLimits",
    "ModelParams",
    "NoPeriodicSolutionError",
    "PeriodTable",
    "SolutionConstants",
    "derive_constants",
    "legacy_periodic_at",
    "one_sided_limits",
    "period_table",
    "periodic_grid",
    "periodic_orbit_mean",
    "poincare_map",
    "solution_grid",
]

# |q - 1| below this routes the geometric sum to its q = 1 limit.
_Q_ONE_TOL = 1e-12

# k beyond which the k-dependent terms are evaluated in log space.
_LOG_SPACE_K = 500

_EXP_MAX = 709.0  # math.exp overflows just above this


class NoPeriodicSolutionError(ValueError):
    """Raised when (1 - E) A <= 1: no positive periodic orbit exists."""


@dataclass(frozen=True)
class ModelParams:
    """One problem instance: coefficients, harvest fraction, anchor time.

    Impulses occur at tau_k = t0 + k for k = 1, 2, ...; the solution is
    defined forward from t0 only.  E = 0 is allowed (impulses degenerate to
    no-ops); E must stay below 1 so harvesting never removes everything.
    """

    pair: CoefficientPair
    E: float
    t0: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.E < 1.0):
            raise ValueError(f"harvest fraction must satisfy 0 <= E < 1, got {self.E!r}")
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ValueError(f"anchor time t0 must be positive, got {self.t0!r}")

    @property
    def r(self):
        return self.pair.r

    @property
    def K(self):
        return self.pair.K

    @property
    def phase(self) -> float:
        """frac(t0): the impulses fall at this point of the coefficients' period.

        Offset s into any period is the coefficient time phase + s.
        """
        return self.t0 - math.floor(self.t0)

    @property
    def jump_offsets(self) -> tuple[float, ...]:
        """Sorted offsets into a period at which r or K may jump."""
        return tuple(sorted((b - self.phase) % 1.0 for b in self.pair.breakpoints_mod1()))

    def time(self, k, s):
        """Absolute time of offset s (a float or an array) into period k.

        For printing only: no computation reads it.  Formed as t0 + (k + s),
        so offset 1 of period k and offset 0 of period k + 1 give the same
        float and times never run backwards; at a large t0 it is only as
        fine as that float.
        """
        return self.t0 + (k + s)

    def to_dict(self) -> dict:
        d = self.pair.to_dict()
        d.update({"E": self.E, "t0": self.t0})
        return d


class ImpulseLimits(NamedTuple):
    """One-sided values of the periodic orbit at an impulse instant."""

    pre: float
    post: float


@dataclass(frozen=True)
class SolutionConstants:
    """Derived constants of a model instance.

    A: per-period growth factor exp(integral of r over one period).
    B: unit-window forcing integral (see ``compute_B``).
    q: net per-period multiplier (1 - E) A near extinction.
    x0_star: post-impulse value of the periodic orbit, (q - 1) / (A B);
        present exactly when q > 1.
    """

    A: float
    B: float
    q: float
    x0_star: Optional[float]


@lru_cache(maxsize=256)
def derive_constants(params: ModelParams) -> SolutionConstants:
    """Compute A, B, q and (when q > 1) the fixed-point anchor x0_star.

    Cached per params; safe for concurrent readers (the cached value is
    immutable and fully constructed before it is published).
    """
    A = compute_A(params.pair.r)
    B = compute_B(params.pair, params.phase)
    q = (1.0 - params.E) * A
    x0_star = (q - 1.0) / (A * B) if q > 1.0 else None
    return SolutionConstants(A=A, B=B, q=q, x0_star=x0_star)


def _require_orbit(params: ModelParams, consts: SolutionConstants) -> None:
    if consts.x0_star is None:
        e_crit = 1.0 - 1.0 / consts.A
        raise NoPeriodicSolutionError(
            "no positive periodic solution: (1-E)A = "
            f"{consts.q!r} <= 1 (need E < {e_crit!r})"
        )


def _geometric_sum(q: float, k: int) -> float:
    """Sum of q**-j for j = 1..k, with the q -> 1 limit handled explicitly."""
    if k == 0:
        return 0.0
    if abs(q - 1.0) < _Q_ONE_TOL:
        return float(k)
    if q > 1.0:
        return (1.0 - q ** (-k)) / (q - 1.0)
    # q < 1: q**-k grows; compute through exp so huge k saturates to inf
    # instead of raising.
    ln = -k * math.log(q)
    grow = math.exp(ln) if ln <= _EXP_MAX else math.inf
    return (grow - 1.0) / (1.0 - q)


class PeriodTable(NamedTuple):
    """Running integrals from an impulse instant, at sorted offsets s.

    growth = R(s), the integral of r over [phase, phase + s]; decay =
    exp(-R(s)); forcing = C(s), the forcing integral over the same window.
    By periodicity these hold from every impulse instant t0 + k.
    """

    offsets: np.ndarray
    growth: np.ndarray
    decay: np.ndarray
    forcing: np.ndarray


def period_table(params: ModelParams, offsets) -> PeriodTable:
    """R(s) and C(s) at every offset of a sorted grid in [0, 1], in one pass.

    The grid points, offset 0 and every coefficient jump between them bound
    the steps of one cumulative pass; each step gets
    ceil(width * DEFAULT_PANELS_PER_UNIT) order-10 Gauss-Legendre panels, all
    evaluated in one numpy call.  With R(s) the growth integral,

        C(s) = exp(-R(s)) * integral over [0, s] of (r/K)(u) exp(R(u)) du,

    so the step integrals of (r/K) exp(R) are summed cumulatively.  They are
    scaled by exp(-R/2) at the largest offset first, which keeps every term
    within float range for any growth integral that A itself survives.
    Coefficients are evaluated at the phase frac(t0) + s.
    """
    s = np.asarray(offsets, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("offsets must be a non-empty 1-d sequence")
    if not (s[0] >= 0.0 and s[-1] <= 1.0) or np.any(np.diff(s) < 0.0):
        raise ValueError("offsets must be sorted and lie in [0, 1]")
    pair = params.pair
    phase = params.phase

    cuts = [c for c in params.jump_offsets if c < s[-1]]
    edges = np.unique(np.concatenate(([0.0], s, cuts)))
    nodes, weights, first = panel_rule(edges, DEFAULT_PANELS_PER_UNIT)
    u = phase + nodes

    big_r = pair.r.antiderivative(phase + edges)
    growth = big_r - big_r[0]
    shift = 0.5 * growth[-1]
    weighted = pair.r(u) / pair.K(u) * np.exp(pair.r.antiderivative(u) - big_r[0] - shift)
    steps = np.add.reduceat((weights * weighted).sum(axis=1), first) if first.size else first
    forcing = np.concatenate(([0.0], np.cumsum(steps))) * np.exp(shift - growth)

    at = np.searchsorted(edges, s)
    growth = growth[at]
    return PeriodTable(offsets=s, growth=growth, decay=np.exp(-growth), forcing=forcing[at])


def solution_grid(
    params: ModelParams, x0: float, periods, table: PeriodTable
) -> np.ndarray:
    """Solution started at x(t0) = x0, at t = t0 + k + s for every period
    index k in ``periods`` and every offset s of ``table``.

    Returns an array of shape (len(periods), len(table.offsets)).  With
    q = (1 - E) A, R and C from the table and S = sum of q**-j, j = 1..k,

        1/x = exp(-R) / (x0 q**k)  +  A B S exp(-R)  +  C.

    The decaying exponential multiplies the middle term as well as the
    first; see the sign-regression tests before touching it.  For large k
    the first term is formed in log space.
    """
    if not x0 > 0.0:
        raise ValueError(f"x0 must be positive, got {x0!r}")
    consts = derive_constants(params)
    q = consts.q
    ln_q = math.log(q)
    recip = np.empty((len(periods), table.offsets.size))
    for row, k in enumerate(periods):
        k = int(k)
        if k > _LOG_SPACE_K or k * abs(ln_q) > 600.0:
            ln_lead = -math.log(x0) - k * ln_q - table.growth
            lead = np.where(
                ln_lead <= _EXP_MAX, np.exp(np.minimum(ln_lead, _EXP_MAX)), math.inf
            )
        else:
            lead = table.decay / (x0 * q**k)
        recip[row] = (
            lead + consts.A * consts.B * _geometric_sum(q, k) * table.decay + table.forcing
        )
    return 1.0 / recip


def periodic_grid(params: ModelParams, table: PeriodTable) -> np.ndarray:
    """The period-1 orbit at every offset of ``table``; requires q > 1.

        x*(s) = (q - 1) / (A B exp(-R) + (q - 1) C),

    which is ``solution_grid`` at the fixed-point anchor x0_star, for any k.
    At offset 0 (R = C = 0) it returns x0_star bit for bit.
    """
    consts = derive_constants(params)
    _require_orbit(params, consts)
    qm1 = consts.q - 1.0
    return qm1 / (consts.A * consts.B * table.decay + qm1 * table.forcing)


def legacy_periodic_at(params: ModelParams, t: float) -> float:
    """The older published periodic-orbit formula (kept for its refutation).

    Evaluates (q - 1) / (A * J(t)) where J(t) is the forcing integral over
    the moving window [t, t + 1].  J is continuous in t, so this expression
    has equal one-sided limits at the impulse instants and cannot satisfy
    the jump rule x(tau+) = (1 - E) x(tau-) for any E > 0.  Defined for any
    real t; requires q > 1.  J has period 1, so the window is integrated
    from frac(t), where its nodes keep full precision at any t.
    """
    consts = derive_constants(params)
    _require_orbit(params, consts)
    u = t - math.floor(t)
    window = forcing_integral(params.pair, u, u + 1.0)
    return (consts.q - 1.0) / (consts.A * window)


def one_sided_limits(params: ModelParams) -> ImpulseLimits:
    """Pre/post values of the periodic orbit at every impulse instant.

        pre  = (q - 1) / (A B (1 - E)),    post = (q - 1) / (A B) = x0_star,

    so post = (1 - E) * pre: the orbit loses exactly the harvested fraction.
    """
    consts = derive_constants(params)
    _require_orbit(params, consts)
    post = consts.x0_star
    return ImpulseLimits(pre=post / (1.0 - params.E), post=post)


def periodic_orbit_mean(params: ModelParams) -> float:
    """Average of the periodic orbit over one period; errors when q <= 1.

    Split-panel Gauss-Legendre over the period, with the orbit at every node
    from one ``period_table``.  The orbit relaxes at rate r after each
    impulse, so the mean uses at least one panel per unit of growth
    integral: max(DEFAULT_PANELS_PER_UNIT, ceil(ln A)) panels.
    """
    consts = derive_constants(params)
    _require_orbit(params, consts)
    panels = max(DEFAULT_PANELS_PER_UNIT, math.ceil(params.r.integral(0.0, 1.0)))
    nodes, weights = gauss_panels(params.jump_offsets, 0.0, 1.0, panels)
    table = period_table(params, nodes)
    return float(np.dot(weights, periodic_grid(params, table)))


def poincare_map(params: ModelParams, x0: float | np.ndarray) -> float | np.ndarray:
    """Post-impulse state one period after starting at post-impulse state x0.

        P(x0) = (1 - E) A x0 / (1 + x0 A B)

    (flow the reciprocal form across one window, then apply the jump).  Its
    unique positive fixed point, when q = (1 - E) A > 1, is x0_star.  x0 is
    a float or an array of states, mapped elementwise.
    """
    if not np.all(np.greater(x0, 0.0)):
        raise ValueError(f"x0 must be positive, got {x0!r}")
    consts = derive_constants(params)
    return (1.0 - params.E) * consts.A * x0 / (1.0 + x0 * consts.A * consts.B)
