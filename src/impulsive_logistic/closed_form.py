"""Analytic solution of the harvested logistic model.

The model: between impulses the population follows x' = r(t) (1 - x/K(t)) x,
and at each impulse instant tau_k = t0 + k (k = 1, 2, ...) a fraction E of
the population is removed, x -> (1 - E) x.

Everything here is closed form up to one quadrature, and where K is
constant on pieces, without it.  Substituting y = 1/x linearizes the growth
law to y' + r y = r/K, so on the interval [t0 + k, t0 + k + 1) the solution
is an explicit combination of the growth integral G of r over one period,
the unit-window forcing integral B, the harvest margin d = E* - E below the
critical harvest E* = 1 - exp(-G), and one running forcing integral
C(s).  Since d/du exp(R(u)) = r(u) exp(R(u)), the forcing integrand
(r/K) exp(R) is (1/K) d(exp(R)) on every stretch where K is constant, for
any r: there C(s) and B are finite sums of exponentials
(``coefficients.piece_forcing``), and only a sinusoid K needs the
quadrature.  See ``solution_grid`` for the exact expression.  The growth
factor A = exp(G) enters only ln q and the printed constants; A B, which
can exceed the float range, is never formed.

G, B and the period table do not depend on E; ``derive_constants`` adds the
numbers that do, and the algebra takes its ``SolutionConstants``.  Only the
functions that integrate take ``params``.

Time is a pair (period index k, offset s in [0, 1]) standing for
t = t0 + k + s.  By periodicity the coefficients there take their values at
the phase frac(t0) + s (``ModelParams.phase``), so the running integrals
depend only on s, never on k or on t0 itself: an integer shift of t0 changes
nothing.  ``period_table`` computes them for a whole grid of offsets, as
that sum or in one cumulative quadrature pass, and ``solution_grid`` /
``periodic_grid`` evaluate the closed form over (period index, offset)
pairs from that table, so the cost grows with the number of output points,
not with points times quadrature panels.  Both sides of an impulse have
exact addresses: offset 1 of period k is the pre-impulse value, offset 0
of period k + 1 the post-impulse value.

When d > 0 (equivalently q = (1 - E) A > 1) the model has a unique
positive period-1 orbit; its post-impulse anchor value is x0_star = d / B,
the fixed point of the Poincare map, returned by ``require_orbit``, and

    x*(s) = d / (B exp(-R(s)) + d C(s)).

An older published formula for that orbit, d / J with J the forcing
integral over a moving one-period window, is the same expression with E*
in place of d in front of C (``legacy_grid``).  It is continuous at the
impulse times and therefore cannot satisfy the jump rule; it is kept so the
discrepancy is checkable (see :mod:`impulsive_logistic.analysis`).  Both
formulas are read from one period table, and no function here takes an
absolute time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from ._lazy import np
from .coefficients import (
    DEFAULT_PANELS_PER_UNIT,
    CoefficientPair,
    compute_B,
    forcing_panels,
    panel_rule,
    piece_forcing,
    sorted_union,
)

__all__ = [
    "AnchorUnderflowError",
    "ModelParams",
    "NoPeriodicSolutionError",
    "PeriodTable",
    "SolutionConstants",
    "derive_constants",
    "legacy_grid",
    "period_table",
    "periodic_grid",
    "periodic_orbit_mean",
    "poincare_map",
    "require_orbit",
    "solution_grid",
]

class NoPeriodicSolutionError(ValueError):
    """Raised when E >= E* (d <= 0): no positive periodic orbit exists."""


class AnchorUnderflowError(ValueError):
    """Raised when d > 0 but the orbit anchor d / B underflows to 0.0."""


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
    def phase(self) -> float:
        """frac(t0): the impulses fall at this point of the coefficients' period.

        Offset s into any period is the coefficient time phase + s.
        """
        return self.t0 - math.floor(self.t0)

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


@dataclass(frozen=True)
class SolutionConstants:
    """Derived constants of a model instance, in harvest-margin form.

    E: the harvest fraction they were derived for.
    G: growth integral of r over one period.
    B: unit-window forcing integral (see ``compute_B``).
    e_star: critical harvest E* = 1 - exp(-G) = -expm1(-G).
    d: harvest margin E* - E; the orbit exists exactly when d > 0.
    ln_q: log of the net per-period multiplier q = (1 - E) exp(G) = 1 + d exp(G).
    x0_star: post-impulse value of the periodic orbit, d / B; present
        exactly when d > 0.

    ``A`` and ``q`` are derived from G and ln_q for printing only.
    """

    E: float
    G: float
    B: float
    e_star: float
    d: float
    ln_q: float
    x0_star: Optional[float]

    @property
    def A(self) -> float:
        """Per-period growth factor exp(G)."""
        return math.exp(self.G)

    @property
    def q(self) -> float:
        """Net per-period multiplier (1 - E) A."""
        return math.exp(self.ln_q)


def derive_constants(params: ModelParams) -> SolutionConstants:
    """Compute G, B, E*, the margin d, ln q and (when d > 0) the anchor x0_star.

    G is the period mean of r and B comes from ``compute_B``, cached per
    (pair, phase); the rest is scalar arithmetic in E.  Raises
    ``ValueError`` when B is 0.0 (the forcing quadrature underflows), and
    ``AnchorUnderflowError`` when the orbit exists but its anchor d / B
    rounds to 0.0, which no computation can start from.
    """
    E = params.E
    G, B = params.pair.r.mean, compute_B(params.pair, params.phase)
    if B == 0.0:
        raise ValueError("the forcing integral B of r/K underflows to 0.0 (r/K is too small)")
    e_star = -math.expm1(-G)
    # d = E* - E = (1 - E) - exp(-G).  For E >= 1/2, 1 - E is exact and the
    # second form carries only the rounding of exp(-G), while E* - E carries
    # the half ulp of E* (1e-16 absolute), which is most of d near E* once G
    # is large.  Below 1/2 the E* form is the finer one.
    d = (1.0 - E) - math.exp(-G) if E >= 0.5 else e_star - E
    qm1 = d * math.exp(G)  # q - 1
    # log1p(q - 1) keeps ln q and d consistent, which the geometric sum needs
    # as d -> 0; for q < 1/2 (so E > 1/2 and 1 - E exact) q - 1 has lost q's
    # digits and log(1 - E) + G is the accurate form.
    ln_q = math.log1p(qm1) if qm1 > -0.5 else math.log1p(-E) + G
    x0_star = d / B if d > 0.0 else None
    if x0_star == 0.0:
        raise AnchorUnderflowError(
            f"E={E!r}: the orbit anchor x0_star = d/B underflows to 0.0 "
            f"(d={d!r}, B={B!r}; K is too small for r at this E)"
        )
    return SolutionConstants(E=E, G=G, B=B, e_star=e_star, d=d, ln_q=ln_q, x0_star=x0_star)


def require_orbit(consts: SolutionConstants) -> float:
    """The orbit anchor x0_star; raises ``NoPeriodicSolutionError`` when d <= 0."""
    if consts.x0_star is None:
        raise NoPeriodicSolutionError(
            "no positive periodic solution: (1-E)A = "
            f"{consts.q!r} <= 1 (need E < {consts.e_star!r})"
        )
    return consts.x0_star


class PeriodTable(NamedTuple):
    """Running integrals from an impulse instant, at sorted offsets s.

    decay = exp(-R(s)), R(s) the integral of r over [phase, phase + s];
    forcing = C(s), the forcing integral over the same window.  By
    periodicity these hold from every impulse instant t0 + k.
    """

    decay: np.ndarray
    forcing: np.ndarray


def period_table(params: ModelParams, offsets) -> PeriodTable:
    """R(s) and C(s) at every offset of a sorted grid in [0, 1].

    R(s) is ``r.growth(phase, s)``, with the phase frac(t0).  Where K is
    constant on pieces, C(s) is ``piece_forcing``'s sum of exponentials,
    whose C(1) is ``compute_B``'s B bit for bit; no quadrature.  For a
    sinusoid K, C(s) comes from one cumulative quadrature pass:

        C(s) = exp(-R(s)) * integral over [0, s] of (r/K)(u) exp(R(u)) du.

    The points of B's partition, ``pair.period_grid(phase,
    forcing_panels(pair))``, below the largest offset, and the offsets,
    are the edges of one order-10 Gauss-Legendre panel each, all evaluated
    in one numpy call; a table that ends at offset 1 with no other offset
    inside has B's panels and nodes, so its C(1) differs from B only in how
    the two sum.  The panel integrals of (r/K) exp(R) are summed
    cumulatively.  They are scaled by exp(-R/2) at the largest offset
    first, which keeps every term within float range for any growth
    integral that A itself survives, and r/K by the power of two that
    brings its largest value into [1/2, 1), which keeps a huge r/K (a tiny
    K) in range and scales every sum exactly.  Edges and nodes are read in
    one ``CoefficientPair.ratio_and_growth`` pass, a coefficient with jumps
    at each panel's midpoint.
    """
    s = np.asarray(offsets, dtype=float)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("offsets must be a non-empty 1-d sequence")
    if not (s[0] >= 0.0 and s[-1] <= 1.0) or np.any(np.diff(s) < 0.0):
        raise ValueError("offsets must be sorted and lie in [0, 1]")
    pair, phase = params.pair, params.phase
    forcing = piece_forcing(pair, phase, s)
    if forcing is not None:
        return PeriodTable(decay=np.exp(-pair.r.growth(phase, s)), forcing=forcing)

    grid = pair.period_grid(phase, forcing_panels(pair))
    edges = sorted_union(grid[: np.searchsorted(grid, s[-1])], s)
    nodes, weights, mid = panel_rule(edges[:-1], edges[1:])
    # edges[0] is offset 0, where R is 0.0
    ratio, big_r = pair.ratio_and_growth(
        phase,
        np.concatenate((edges, nodes.ravel())),
        np.concatenate((edges, np.repeat(mid, nodes.shape[1]))),
    )
    m = edges.size
    ratio = ratio[m:].reshape(nodes.shape)
    growth = big_r[:m]
    shift = 0.5 * growth[-1]
    scale = math.frexp(ratio.max(initial=0.0))[1]
    weighted = np.ldexp(ratio, -scale) * np.exp(big_r[m:].reshape(nodes.shape) - shift)
    steps = (weights * weighted).sum(axis=1)
    forcing = np.concatenate(([0.0], np.cumsum(steps))) * np.exp(shift - growth)
    forcing = np.ldexp(forcing, scale)

    at = np.searchsorted(edges, s)
    return PeriodTable(decay=np.exp(-growth[at]), forcing=forcing[at])


def solution_grid(
    consts: SolutionConstants, x0: float, periods, table: PeriodTable
) -> np.ndarray:
    """Solution started at x(t0) = x0, at t = t0 + k + s for every period
    index k in ``periods`` and every offset s of ``table``.

    Returns an array of shape (len(periods), len(table.decay)).  With R
    and C from the table, d the harvest margin and q the net multiplier,

        x = x0 / (exp(-R) (q**-k + x0 B (1 - q**-k) / d) + x0 C),

    where (1 - q**-k) / d = -expm1(-k ln q) / d tends to k / (1 - E) as
    d -> 0 (it is exp(G) times the sum of q**-j for j = 1..k).  x0 is never
    inverted, so a subnormal anchor stays exact.  The decaying exponential
    multiplies the middle term as well as the first; see the sign-regression
    tests before touching it.  When q < 1, q**-k overflows to inf for large
    k and x reads 0.0.  Where the denominator underflows to 0.0 (a tiny x0
    against a tiny exp(-R)), x is the same form divided through by x0,
    1 / (exp(-R) (q**-k / x0 + B (1 - q**-k) / d) + C), as in ``poincare_map``.
    """
    if not x0 > 0.0:
        raise ValueError(f"x0 must be positive, got {x0!r}")
    k = np.asarray(periods, dtype=float)[:, None]
    with np.errstate(over="ignore"):  # q**-k = inf is the intended limit
        lead = np.exp(-k * consts.ln_q)
        if consts.d != 0.0:
            total = -np.expm1(-k * consts.ln_q) / consts.d
        else:
            total = k / (1.0 - consts.E)
        den = table.decay * (lead + x0 * consts.B * total) + x0 * table.forcing
        with np.errstate(divide="ignore"):  # replaced below
            x = x0 / den
        under = den == 0.0
        if under.any():
            scaled = table.decay * (lead / x0 + consts.B * total) + table.forcing
            x[under] = 1.0 / scaled[under]
        return x


def periodic_grid(consts: SolutionConstants, table: PeriodTable) -> np.ndarray:
    """The period-1 orbit at every offset of ``table``; requires d > 0.

        x*(s) = d / (B exp(-R) + d C),

    which is ``solution_grid`` at the fixed-point anchor x0_star = d / B, for
    any k.  At offset 0 (R = C = 0) it returns x0_star bit for bit.
    """
    require_orbit(consts)
    return consts.d / (consts.B * table.decay + consts.d * table.forcing)


def legacy_grid(consts: SolutionConstants, table: PeriodTable) -> np.ndarray:
    """The older published orbit formula at every offset of ``table`` (kept
    for its refutation); requires d > 0.

    The formula is (q - 1) / (A J) = d / J, with J(s) the forcing integral
    over the moving window [s, s + 1].  Splitting the window at the impulse
    instant, offset 1: the part past it is C(s), and the part before it is
    the unit-window integral B less its part over [0, s], carried forward by
    exp(-R(s)), that is B exp(-R(s)) - exp(-G) C(s).  So

        J(s) = B exp(-R(s)) + E* C(s),    x_legacy(s) = d / J(s),

    which is ``periodic_grid`` with E* in place of d in front of C.  At
    s = 1, R = G and C(1) = B give J(1) = B = J(0): the formula takes the
    same value d / B on both sides of every impulse, so it cannot satisfy
    the jump rule x(tau+) = (1 - E) x(tau-) for any E > 0.
    """
    require_orbit(consts)
    return consts.d / (consts.B * table.decay + consts.e_star * table.forcing)


def periodic_orbit_mean(
    params: ModelParams, constants: Sequence[SolutionConstants]
) -> list[float]:
    """Average of the periodic orbit over one period for each of ``constants``,
    harvest fractions on ``params``' coefficients and phase; errors when d <= 0.

    Order-10 Gauss-Legendre with one panel on each interval of the
    partition ``pair.period_grid(phase, n)``, and the orbit at every node
    from one ``period_table`` that serves every fraction.  The orbit relaxes
    at rate r after each impulse, so n = max(DEFAULT_PANELS_PER_UNIT,
    ceil(G)): at least one panel per unit of growth integral.
    """
    if not constants:
        return []
    panels = max(DEFAULT_PANELS_PER_UNIT, math.ceil(constants[0].G))  # G does not depend on E
    grid = params.pair.period_grid(params.phase, panels)
    nodes, weights, _ = panel_rule(grid[:-1], grid[1:])
    table = period_table(params, nodes.ravel())
    return [float(np.dot(weights.ravel(), periodic_grid(consts, table))) for consts in constants]


def poincare_map(consts: SolutionConstants, x0: float | np.ndarray) -> float | np.ndarray:
    """Post-impulse state one period after starting at post-impulse state x0.

        P(x0) = (1 - E) x0 / (exp(-G) + x0 B)

    (flow the reciprocal form across one window, then apply the jump).  Its
    unique positive fixed point, when d > 0, is x0_star; the map has no
    E* - E subtraction, so the fixed-point scan does not share the anchor's
    formula.  x0 is a float, mapped in plain float arithmetic, or an array
    of states, mapped elementwise.  Where x0 B overflows, the map is the
    same expression divided through by x0, (1 - E) / (B + exp(-G) / x0),
    which is (1 - E) / B exactly.
    """
    is_array = isinstance(x0, np.ndarray)
    if not (np.all(x0 > 0.0) if is_array else x0 > 0.0):
        raise ValueError(f"x0 must be positive, got {x0!r}")
    keep, decay, forcing = 1.0 - consts.E, math.exp(-consts.G), consts.B
    with np.errstate(over="ignore"):  # replaced below
        load = x0 * forcing
    mapped = keep * x0 / (decay + load)
    # x0 B overflows only when x0 > DBL_MAX / B, so exp(-G) / x0 < B 2**-1023,
    # far below half an ulp of B: B + exp(-G) / x0 rounds to B itself
    if is_array:
        mapped[np.isinf(load)] = keep / forcing
    elif math.isinf(load):
        mapped = keep / forcing
    return mapped
