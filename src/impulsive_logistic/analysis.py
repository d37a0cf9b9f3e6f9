"""Machine-checked verification of the model's structural claims.

Each check produces a :class:`VerificationReport`: named, self-describing
(the metadata is enough to re-run it), and passing exactly when every
recorded residual is within its tolerance.

The checks:
  * ``verify_impulse_condition`` -- one-sided limits at the impulse
    instants.  The corrected periodic formula must jump by the harvested
    fraction; the legacy formula is expected to be continuous there, which
    is precisely why it is wrong whenever E > 0.
  * ``verify_periodicity`` -- x*(t + 1) = x*(t) at the 16 offsets j/16,
    in each of the first few periods.
  * ``compare_solutions`` -- closed form against the RK4 oracle.
  * ``fixed_point_scan`` -- sign changes of the period-advance map against
    the identity: exactly one positive fixed point when E < E*, none
    otherwise.

Both sides of an impulse are read at exact addresses of one period table
with offsets 0 and 1: the pre-impulse value at offset 1 of period k - 1,
the post-impulse value at offset 0 of period k.  No limit is estimated.

Which side of each check is independent of the code it checks:
  * periodicity -- the kernel side is the solution started at x0_star,
    through ``solution_grid`` at period index k; the independent side is
    the forcing quadrature over the 16 windows [phase, phase + offset],
    each with its own decay and its own sum, on twice the kernel's panels
    per unit (``forcing_panels``, so 128 below a growth integral of 256),
    evaluated in one ``forcing_integrals`` call that also takes the unit
    window, whose integral is the reference's own B; it reads no period
    table, no cumulative pass, no k and not the kernel's B, only its margin
    d, and it shares no function with the kernel's B (``compute_B``).  For
    a sinusoid K it shares with the kernel the partition rule
    (``CoefficientPair.period_grid``) at twice the resolution, not the
    panels or the sum; where K is constant on pieces the kernel lays no
    panel, and the two share only the coefficients' readings.  Each
    (k, offset) record is computed at its own k, so the k-dependent part
    of the kernel (q**-k and the geometric sum) must hold the orbit for the
    record to pass.
  * corrected jump -- both sides come from ``solution_grid`` at x0_star,
    the pre value at offset 1 of period k - 1, the post value at offset 0
    of period k.  The jump rule appears in no formula of the kernel, so
    what is independent is the rule itself: it holds only if the table's
    C(1) matches ``compute_B``'s B, and the algebra carries the anchor
    across the period boundary at that k.  For a sinusoid K, B and a table
    that ends at offset 1 read the same nodes and differ only in how they
    sum; where K is constant on pieces they are one sum of exponentials,
    equal bit for bit, and the check tests the algebra alone.  The side
    independent of both is the periodicity check's reference.
  * legacy -- ``legacy_grid`` at offsets 1 and 0; it has period 1 by
    construction, so one (pre, post) pair serves every k.  Its continuity
    residual is E* |C(1) - B| / B, so it too hinges on the table's C(1)
    against ``compute_B``'s B, which K constant on pieces makes exact.
  * oracle -- RK4 on its own stage tables, against the kernel, at every
    sample: the trajectory's (period, offset) array on its one offset grid,
    then the post-impulse value at its end.  The closed form reads one
    period table on that grid, and the residual is the largest gap of
    ``trajectory_closed_form``, the ``rel_diff`` that ``simulate`` prints.
  * fixed-point scan -- the period-advance map, which has no E* - E
    subtraction, against the anchor d / B.

Like the kernel, every check works in phase time: a location is a period
index k and an offset s, the coefficients are read at ``params.phase + s``,
and the absolute time t0 + k + s (``ModelParams.time``) appears only in
record labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ._lazy import np
from .closed_form import (
    ModelParams,
    PeriodTable,
    SolutionConstants,
    derive_constants,
    legacy_grid,
    period_table,
    periodic_grid,
    poincare_map,
    require_orbit,
    solution_grid,
)
from .coefficients import forcing_integrals, forcing_panels
from .integrator import DEFAULT_STEPS_PER_UNIT, Trajectory, integrate

__all__ = [
    "CheckRecord",
    "VerificationReport",
    "compare_solutions",
    "fixed_point_scan",
    "trajectory_closed_form",
    "verify_impulse_condition",
    "verify_periodicity",
]

#: Default tolerances of the checks; the CLI's ``Tolerances`` reads them.
DEFAULT_IMPULSE_TOL = 1e-6
DEFAULT_PERIODICITY_TOL = 1e-8
DEFAULT_ORACLE_TOL = 1e-5
DEFAULT_FIXED_POINT_TOL = 1e-6

# the offsets j/16 into each period at which verify_periodicity checks the orbit
_PERIODICITY_OFFSETS = tuple(j / 16.0 for j in range(16))

# the log-spaced grid points of fixed_point_scan
_SCAN_POINTS = 512


@dataclass(frozen=True)
class CheckRecord:
    """One measured residual; passing means residual <= tolerance."""

    location: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "location": self.location,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """Outcome of one named check over a set of locations."""

    check: str
    records: tuple[CheckRecord, ...]
    metadata: dict

    @property
    def passed(self) -> bool:
        return all(rec.passed for rec in self.records)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "passed": self.passed,
            "records": [rec.to_dict() for rec in self.records],
            "metadata": self.metadata,
        }

    def to_text(self) -> str:
        lines = [f"[{'PASS' if self.passed else 'FAIL'}] {self.check}"]
        if self.records:
            width = max(len(rec.location) for rec in self.records)
            for rec in self.records:
                lines.append(
                    f"  {rec.location:<{width}}  residual={rec.residual: .6e}  "
                    f"tol={rec.tolerance:.1e}  {'pass' if rec.passed else 'FAIL'}"
                )
        return "\n".join(lines)


def _kernel_panels(params: ModelParams) -> dict:
    """The kernel's panels per unit as report metadata, where its period
    table is a quadrature (a sinusoid K); where K is constant on pieces the
    kernel lays no panel, and the field is left out."""
    if params.pair.K.pieces(params.phase) is None:
        return {"panels_per_unit": forcing_panels(params.pair)}
    return {}


def _orbit_by_quadrature(
    params: ModelParams, consts: SolutionConstants, offsets: Sequence[float]
) -> list[float]:
    """x* at each offset s into any period, from the forcing quadrature over
    the phase window [phase, phase + s], each window with its own decay
    and sum, and the growth integral over it from the same pass.

    The unit window, one more window of the same call, gives the reference
    its own B in place of ``consts.B``, so a fault in the kernel's B shows
    as a residual.  Shares no period table and no B with the kernel: the
    independent side of the periodicity check.
    """
    forcing, growth = forcing_integrals(
        params.pair, params.phase, [*offsets, 1.0], 2 * forcing_panels(params.pair)
    )
    B, d = forcing.pop(), consts.d
    growth.pop()
    return [d / (B * math.exp(-g) + d * f) for g, f in zip(growth, forcing)]


def verify_impulse_condition(
    which: str,
    params: ModelParams,
    ks: Iterable[int] = (1, 2, 3, 4, 5),
    tol: float = DEFAULT_IMPULSE_TOL,
    table: PeriodTable | None = None,
) -> VerificationReport:
    """Check the jump behavior of a periodic formula at the impulse instants.

    which="corrected": for each k, the pre-impulse value (offset 1 of
    period k - 1) and the post-impulse value (offset 0 of period k) of the
    solution started at x0_star must satisfy post = (1 - E) pre within tol
    (relative to pre).

    which="legacy": the report instead records (a) the continuity residual
    |post - pre| / pre of ``legacy_grid`` at offsets 1 and 0, which must be
    within tol, and (b) the jump-rule shortfall E/2 - violation with
    tolerance 0, where violation = |post - (1 - E) pre| / pre.  Both passing
    means the legacy formula is demonstrably continuous at the impulses and
    misses the required jump by at least half the harvest fraction.

    One period table with offsets 0 and 1 serves every k of either check:
    ``table`` when given (``period_table(params, [0.0, 1.0])``, so that both
    checks can share it), else one built here.
    """
    if which not in ("corrected", "legacy"):
        raise ValueError(f"which must be 'corrected' or 'legacy', got {which!r}")
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"impulse indices must be positive, got {ks!r}")

    consts = derive_constants(params)
    anchor = require_orbit(consts)
    if table is None:
        table = period_table(params, [0.0, 1.0])
    if which == "corrected":
        rows = solution_grid(consts, anchor, [k - 1 for k in ks] + list(ks), table)
        limits = zip(rows[: len(ks), 1].tolist(), rows[len(ks) :, 0].tolist())
    else:
        post, pre = legacy_grid(consts, table).tolist()
        limits = [(pre, post)] * len(ks)
    records: list[CheckRecord] = []
    estimates = {}
    for k, (pre, post) in zip(ks, limits):
        # pre is 0.0 only when C(1) is out of all scale with B (x0_star C(1)
        # or E* C(1) overflows): no relative residual exists, and it fails
        jump = abs(post - (1.0 - params.E) * pre) / pre if pre else math.inf
        estimate = estimates[f"k={k}"] = {"pre": pre, "post": post}
        if which == "corrected":
            records.append(CheckRecord(f"k={k} jump", jump, tol))
            continue
        estimate["jump_violation"] = jump
        continuity = abs(post - pre) / pre if pre else math.inf
        records.append(CheckRecord(f"k={k} continuity", continuity, tol))
        records.append(CheckRecord(f"k={k} jump shortfall", params.E / 2.0 - jump, 0.0))

    metadata = {
        "which": which,
        "params": params.to_dict(),
        "ks": list(ks),
        "tolerance": tol,
        **_kernel_panels(params),
        "estimates": estimates,
    }
    if which == "corrected":
        metadata["analytic_pre"] = anchor / (1.0 - params.E)
        metadata["analytic_post"] = anchor
    return VerificationReport(
        check=f"impulse condition ({which})", records=tuple(records), metadata=metadata
    )


def verify_periodicity(
    params: ModelParams,
    periods: int = 5,
    tol: float = DEFAULT_PERIODICITY_TOL,
) -> VerificationReport:
    """Check x*(t + 1) = x*(t) at t = t0 + k + j/16 for k < periods, j < 16.

    The kernel side is the solution started at x0_star, at period index k
    and the offset, from ``solution_grid`` over one period table; the
    reference is the orbit at that offset from the window quadrature
    ``forcing_integrals`` at twice ``forcing_panels``, with its own B, which
    holds in every period.  The report keeps one record per (k, offset),
    each from its own k.
    """
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods!r}")

    consts = derive_constants(params)
    table = period_table(params, _PERIODICITY_OFFSETS)
    kernel = solution_grid(consts, require_orbit(consts), range(periods), table)
    reference = _orbit_by_quadrature(params, consts, _PERIODICITY_OFFSETS)
    # a kernel value of 0.0 (C(s) out of all scale with B) has no relative
    # residual, and fails
    records = [
        CheckRecord(f"k={k} offset={off:g}", abs(ref - now) / now if now else math.inf, tol)
        for k, row in enumerate(kernel.tolist())
        for off, now, ref in zip(_PERIODICITY_OFFSETS, row, reference)
    ]
    metadata = {
        "params": params.to_dict(),
        "grid": list(_PERIODICITY_OFFSETS),
        "periods": periods,
        "tolerance": tol,
        **_kernel_panels(params),
        "reference_panels_per_unit": 2 * forcing_panels(params.pair),
    }
    return VerificationReport(check="periodicity", records=tuple(records), metadata=metadata)


def trajectory_closed_form(
    traj: Trajectory,
    consts: SolutionConstants,
    periodic: bool = False,
    table: PeriodTable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The closed form at every sample of an integrated path, and the
    relative gap |x_numeric - x_closed_form| / x_closed_form of each sample
    from it: the one comparison with the oracle, which ``simulate`` prints
    as ``rel_diff`` and ``compare_solutions`` reads.

    Both are flat, in ``simulate``'s row order: ``traj.values`` row by row,
    then ``traj.end``.  The closed form is the solution from ``traj.x0``,
    or with ``periodic=True`` the periodic orbit; ``consts`` are the
    constants of ``traj.params``.  A whole trajectory costs one period
    table on ``traj.offsets``, ``table`` when given: trajectories on one
    step grid share it.  The last sample of each row, at an impulse, is
    the pre-impulse value, post / (1 - E) with post the next row's first
    value (or the end's).
    """
    params = traj.params
    periods = len(traj.values)
    if table is None:
        table = period_table(params, traj.offsets)
    if periodic:
        rows = np.tile(periodic_grid(consts, table), (periods + 1, 1))
    else:
        rows = solution_grid(consts, traj.x0, range(periods + 1), table)
    rows[:-1, -1] = rows[1:, 0] / (1.0 - params.E)
    closed = np.append(rows[:-1], rows[-1, 0])
    # against a closed form of 0.0, or one out of all scale with the
    # sample, the gap reads inf
    with np.errstate(divide="ignore", over="ignore"):
        gap = np.abs(np.append(traj.values, traj.end) - closed) / closed
    return closed, gap


def _worst_deviation(traj: Trajectory, gap: np.ndarray) -> tuple[float, float]:
    """The largest gap of ``trajectory_closed_form``, and the time of the
    first sample that reaches it: sample i is offset j of period k, with
    (k, j) = divmod(i, len(traj.offsets)), and the end is offset 0 of the
    period after the last."""
    worst = int(np.argmax(gap))
    k, j = divmod(worst, traj.offsets.size)
    return float(gap[worst]), traj.params.time(k, float(traj.offsets[j]))


def compare_solutions(
    params: ModelParams,
    x0: float,
    horizon_periods: int,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
    tol: float = DEFAULT_ORACLE_TOL,
) -> VerificationReport:
    """Closed form against the RK4 oracle over a whole horizon.

    Records the largest relative gap between the closed form and the
    integrated trajectory started at x0, over every sample (each step
    boundary, the pre/post values at every impulse, and the end): the
    largest ``rel_diff`` of ``simulate``.  When the orbit exists, records
    the same for the periodic formula against a trajectory started at the
    fixed-point anchor.
    """
    if horizon_periods < 1:
        raise ValueError(f"horizon_periods must be >= 1, got {horizon_periods!r}")
    consts = derive_constants(params)

    traj = integrate(params, x0, horizon_periods, steps_per_unit)
    # the orbit's trajectory below runs on the same step grid
    table = period_table(params, traj.offsets)
    worst, worst_t = _worst_deviation(traj, trajectory_closed_form(traj, consts, table=table)[1])
    records = [CheckRecord(f"solution vs oracle (worst at t={worst_t:.6g})", worst, tol)]
    metadata = {
        "params": params.to_dict(),
        "x0": float(x0),
        "horizon_periods": horizon_periods,
        "h": 1.0 / steps_per_unit,
        "tolerance": tol,
        **_kernel_panels(params),
        "x0_star": consts.x0_star,
    }
    if consts.x0_star is not None:
        # started at the anchor, the first trajectory is the orbit's, float for float
        if x0 == consts.x0_star:
            orbit_traj = traj
        else:
            orbit_traj = integrate(params, consts.x0_star, horizon_periods, steps_per_unit)
        gap = trajectory_closed_form(orbit_traj, consts, periodic=True, table=table)[1]
        worst_p, worst_pt = _worst_deviation(orbit_traj, gap)
        records.append(
            CheckRecord(f"periodic orbit vs oracle (worst at t={worst_pt:.6g})", worst_p, tol)
        )
    return VerificationReport(
        check="closed form vs numerical oracle", records=tuple(records), metadata=metadata
    )


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """A root of f in [lo, hi] by at most 100 bisections.

    Stops once the midpoint is no longer strictly inside the bracket (lo
    and hi are adjacent floats): every further step would return it too.
    """
    flo = f(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def fixed_point_scan(
    params: ModelParams,
    x_min: float,
    x_max: float,
    tol: float = DEFAULT_FIXED_POINT_TOL,
) -> VerificationReport:
    """Scan the period-advance map for fixed points on a 512-point log-spaced grid.

    When the orbit exists there must be exactly one sign change of
    P(x) - x in (x_min, x_max) and its refined abscissa must match the
    anchor value within tol (relative).  Otherwise there must be no sign
    change, with P(x) < x everywhere on the grid.  Both bounds are finite.
    """
    if not (0.0 < x_min < x_max < math.inf):
        raise ValueError(f"need 0 < x_min < x_max < inf, got {x_min!r}, {x_max!r}")
    consts = derive_constants(params)
    # a bound near the float maximum can overflow inside geomspace, which
    # then sets both ends to the bounds themselves
    with np.errstate(over="ignore"):
        grid = np.geomspace(x_min, x_max, _SCAN_POINTS)
    gap = poincare_map(consts, grid) - grid

    # on Python floats: poincare_map of a float makes no numpy call
    xs, gaps = grid.tolist(), gap.tolist()
    crossings: list[float] = []
    for x, x_next, g, g_next in zip(xs, xs[1:], gaps, gaps[1:]):
        if g == 0.0:
            crossings.append(x)
        elif g < 0.0 < g_next or g_next < 0.0 < g:
            crossings.append(_bisect(lambda u: poincare_map(consts, u) - u, x, x_next))
    if gaps[-1] == 0.0:
        crossings.append(xs[-1])

    records = []
    if consts.x0_star is not None:
        records.append(
            CheckRecord("sign changes (expect exactly 1)", float(abs(len(crossings) - 1)), 0.0)
        )
        if len(crossings) == 1:
            records.append(
                CheckRecord(
                    "crossing vs fixed-point anchor",
                    float(abs(crossings[0] - consts.x0_star) / consts.x0_star),
                    tol,
                )
            )
    else:
        records.append(CheckRecord("sign changes (expect none)", float(len(crossings)), 0.0))
        records.append(CheckRecord("map stays below identity", float(np.max(gap)), 0.0))

    metadata = {
        "params": params.to_dict(),
        "x_min": float(x_min),
        "x_max": float(x_max),
        "n": _SCAN_POINTS,
        "tolerance": tol,
        "crossings": crossings,
        "x0_star": consts.x0_star,
    }
    return VerificationReport(
        check="fixed-point scan of the period-advance map",
        records=tuple(records),
        metadata=metadata,
    )
