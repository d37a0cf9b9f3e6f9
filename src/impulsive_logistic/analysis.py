"""Machine-checked verification of the model's structural claims.

Each check produces a :class:`VerificationReport`: named, self-describing
(the metadata is enough to re-run it), and passing exactly when every
recorded residual is within its tolerance.

The checks:
  * ``verify_impulse_condition`` -- one-sided limits at the impulse
    instants.  The corrected periodic formula must jump by the harvested
    fraction; the legacy formula is expected to be continuous there, which
    is precisely why it is wrong whenever E > 0.
  * ``verify_periodicity`` -- x*(t + 1) = x*(t) on a grid of offsets.
  * ``compare_solutions`` -- closed form against the RK4 oracle.
  * ``fixed_point_scan`` -- sign changes of the period-advance map against
    the identity: exactly one positive fixed point when (1-E)A > 1, none
    otherwise.

Pre-impulse limits are estimated by evaluating just before the instant and
extrapolating the offset to zero (two Richardson stages over offsets
1e-4, 5e-5, 2.5e-5, or smaller ones right of a coefficient jump that lies
among them), which pushes the O(offset) bias far below the default
tolerances.

The corrected jump check and the periodicity check compare the period-table
kernel of :mod:`impulsive_logistic.closed_form` on one side against the
scalar forcing quadrature at twice the panel count on the other, so neither
check can pass by reading the same table twice.

Like the kernel, every check works in phase time: a location is a period
index k and an offset s, the coefficients are read at ``params.phase + s``,
and the absolute time t0 + k + s (``ModelParams.time``) appears only in
record labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .closed_form import (
    ModelParams,
    SolutionConstants,
    derive_constants,
    legacy_periodic_at,
    one_sided_limits,
    period_table,
    periodic_grid,
    poincare_map,
    solution_grid,
)
from .coefficients import (
    DEFAULT_PANELS_PER_UNIT,
    PeriodicCoefficient,
    compute_A,
    forcing_integral,
)
from .integrator import StepControl, Trajectory, integrate

__all__ = [
    "CheckRecord",
    "RICHARDSON_OFFSETS",
    "VerificationReport",
    "compare_solutions",
    "critical_harvest",
    "fixed_point_scan",
    "left_limit",
    "trajectory_closed_form",
    "verify_impulse_condition",
    "verify_periodicity",
]

#: Offsets used to extrapolate one-sided limits (largest first, halving).
RICHARDSON_OFFSETS = (1e-4, 5e-5, 2.5e-5)

#: Default tolerances of the checks; the CLI's ``Tolerances`` reads them.
DEFAULT_IMPULSE_TOL = 1e-6
DEFAULT_PERIODICITY_TOL = 1e-8
DEFAULT_ORACLE_TOL = 1e-5
DEFAULT_FIXED_POINT_TOL = 1e-6

# A coefficient jump this close before the impulse instants counts as at
# them: it leaves the orbit smooth on every extrapolation window.
_AT_IMPULSE = 1e-9

#: Panel count of the independent side of the periodicity and jump checks.
REFERENCE_PANELS_PER_UNIT = 2 * DEFAULT_PANELS_PER_UNIT

# compare_solutions decimates the oracle's samples to this many per period.
_GRID_PER_PERIOD = 64


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

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def left_limit(values: Sequence[float]) -> float:
    """Extrapolated left limit of f at t from f(t - d), f(t - d/2), f(t - d/4).

    Two Richardson stages over the halving offsets cancel the linear and
    quadratic terms in d, leaving an O(d**3) bias.
    """
    u1, u2, u3 = values
    return (8.0 * u3 - 6.0 * u2 + u1) / 3.0


def _orbit_by_quadrature(params: ModelParams, consts: SolutionConstants, s: float) -> float:
    """x* at offset s into any period, from the scalar forcing quadrature
    over the phase window [phase, phase + s].

    Shares no period table with the kernel: the independent side of the
    periodicity and jump checks.
    """
    a = params.phase
    qm1 = consts.q - 1.0
    decay = math.exp(-params.r.integral(a, a + s))
    forcing = forcing_integral(params.pair, a, a + s, REFERENCE_PANELS_PER_UNIT)
    return qm1 / (consts.A * consts.B * decay + qm1 * forcing)


def _pre_impulse_offsets(params: ModelParams) -> tuple[float, float, float]:
    """``RICHARDSON_OFFSETS``, or smaller ones when r or K jumps among them.

    The extrapolation needs the orbit smooth on [tau - d, tau); a
    coefficient jump there puts a kink in it.  A jump between _AT_IMPULSE
    and d before the impulse instants sets d to half its distance from them.
    """
    d = RICHARDSON_OFFSETS[0]
    lags = [(params.phase - beta) % 1.0 for beta in params.pair.breakpoints_mod1()]
    near = [lag for lag in lags if _AT_IMPULSE < lag < d]
    if not near:
        return RICHARDSON_OFFSETS
    d = 0.5 * min(near)
    return (d, d / 2.0, d / 4.0)


def _corrected_limits(params: ModelParams, offsets: Sequence[float]) -> tuple[float, float]:
    """One-sided values of the corrected orbit at every impulse instant.

    Pre side: the period table just below the end of a period, extrapolated
    by ``left_limit``.  Post side: the scalar quadrature at offset 0.
    """
    below = [1.0 - o for o in offsets]
    pre = left_limit(periodic_grid(params, period_table(params, below)).tolist())
    return pre, _orbit_by_quadrature(params, derive_constants(params), 0.0)


def _legacy_limits(params: ModelParams, offsets: Sequence[float]) -> tuple[float, float]:
    """One-sided values of the legacy formula at every impulse instant.

    Its window integral has period 1, so it is read at phase + 1, where each
    instant t0 + k lands modulo 1.
    """
    tau = params.phase + 1.0
    pre = left_limit([legacy_periodic_at(params, tau - o) for o in offsets])
    return pre, legacy_periodic_at(params, tau)


def verify_impulse_condition(
    which: str,
    params: ModelParams,
    ks: Iterable[int] = (1, 2, 3, 4, 5),
    tol: float = DEFAULT_IMPULSE_TOL,
) -> VerificationReport:
    """Check the jump behavior of a periodic formula at the impulse instants.

    which="corrected": for each k, the numerically extrapolated pre-impulse
    limit and the post-impulse value must satisfy post = (1 - E) pre within
    tol (relative to pre).

    which="legacy": the report instead records (a) the continuity residual
    |post - pre| / pre, which must be within tol, and (b) the jump-rule
    shortfall E/2 - violation with tolerance 0, where
    violation = |post - (1 - E) pre| / pre.  Both passing means the legacy
    formula is demonstrably continuous at the impulses and misses the
    required jump by at least half the harvest fraction.
    """
    if which not in ("corrected", "legacy"):
        raise ValueError(f"which must be 'corrected' or 'legacy', got {which!r}")
    ks = tuple(int(k) for k in ks)
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"impulse indices must be positive, got {ks!r}")

    offsets = _pre_impulse_offsets(params)
    limits = _corrected_limits if which == "corrected" else _legacy_limits
    pre, post = limits(params, offsets)
    jump = abs(post - (1.0 - params.E) * pre) / pre
    estimate = {"pre": float(pre), "post": float(post)}
    records: list[CheckRecord] = []
    if which == "corrected":
        records += [CheckRecord(f"k={k} jump", float(jump), tol) for k in ks]
    else:
        estimate["jump_violation"] = float(jump)
        continuity = float(abs(post - pre) / pre)
        shortfall = float(params.E / 2.0 - jump)
        for k in ks:
            records.append(CheckRecord(f"k={k} continuity", continuity, tol))
            records.append(CheckRecord(f"k={k} jump shortfall", shortfall, 0.0))

    metadata = {
        "which": which,
        "params": params.to_dict(),
        "ks": list(ks),
        "tolerance": tol,
        "offsets": list(offsets),
        "panels_per_unit": DEFAULT_PANELS_PER_UNIT,
        "estimates": {f"k={k}": estimate for k in ks},
    }
    if which == "corrected":
        metadata["reference_panels_per_unit"] = REFERENCE_PANELS_PER_UNIT
        limits = one_sided_limits(params)
        metadata["analytic_pre"] = limits.pre
        metadata["analytic_post"] = limits.post
    return VerificationReport(
        check=f"impulse condition ({which})", records=tuple(records), metadata=metadata
    )


def verify_periodicity(
    params: ModelParams,
    grid: Sequence[float] | None = None,
    periods: int = 5,
    tol: float = DEFAULT_PERIODICITY_TOL,
) -> VerificationReport:
    """Check x*(t + 1) = x*(t) at t = t0 + k + offset for k < periods.

    x*(t) comes from one period table over the grid; x*(t + 1), at the same
    offset in period k + 1, from the scalar quadrature at an independent
    panel count.  Neither side depends on k, so each is computed once per
    offset; the report keeps one record per (k, offset).
    """
    if grid is None:
        grid = tuple(j / 16.0 for j in range(16))
    grid = tuple(float(o) for o in grid)
    if any(not (0.0 <= o < 1.0) for o in grid):
        raise ValueError("grid offsets must lie in [0, 1)")
    if periods < 1:
        raise ValueError(f"periods must be >= 1, got {periods!r}")

    consts = derive_constants(params)
    offsets, where = np.unique(grid, return_inverse=True)
    orbit = periodic_grid(params, period_table(params, offsets))[where].tolist()
    residuals = [
        abs(_orbit_by_quadrature(params, consts, off) - now) / now
        for off, now in zip(grid, orbit)
    ]
    records = [
        CheckRecord(f"k={k} offset={off:g}", float(residual), tol)
        for k in range(periods)
        for off, residual in zip(grid, residuals)
    ]
    metadata = {
        "params": params.to_dict(),
        "grid": list(grid),
        "periods": periods,
        "tolerance": tol,
        "panels_per_unit": DEFAULT_PANELS_PER_UNIT,
        "reference_panels_per_unit": REFERENCE_PANELS_PER_UNIT,
    }
    return VerificationReport(check="periodicity", records=tuple(records), metadata=metadata)


def trajectory_closed_form(traj: Trajectory, periodic: bool = False) -> list[np.ndarray]:
    """Closed form at every sample of every piece of an integrated path.

    One array per piece, aligned with ``piece.offsets``: the solution from
    ``traj.x0``, or with ``periodic=True`` the periodic orbit.  Every piece
    samples a prefix of the first piece's offsets, so a whole trajectory
    costs one period table.  The last sample of a piece that ends at an
    impulse is the pre-impulse value, post / (1 - E) with post the next
    piece's first value.
    """
    params = traj.params
    table = period_table(params, traj.pieces[0].offsets)
    if periodic:
        rows = np.tile(periodic_grid(params, table), (len(traj.pieces), 1))
    else:
        rows = solution_grid(params, traj.x0, [p.segment for p in traj.pieces], table)
    values = [row[: p.offsets.size] for row, p in zip(rows, traj.pieces)]
    keep = 1.0 - params.E
    for before, after in zip(values, values[1:]):
        before[-1] = after[0] / keep
    return values


def _worst_deviation(traj: Trajectory, closed: list[np.ndarray]) -> tuple[float, float]:
    """Worst relative deviation of the samples from the closed form, and its time.

    Samples are decimated to _GRID_PER_PERIOD per period; at every impulse
    both the pre and the post value count.
    """
    stride = max(1, traj.ctrl.steps_per_unit // _GRID_PER_PERIOD)
    last = len(traj.pieces) - 1
    where, nums, refs = [], [], []
    for i, (piece, ref) in enumerate(zip(traj.pieces, closed)):
        stop = -1 if i < last else None  # pre-impulse row handled via events
        offsets = piece.offsets[:stop][::stride]
        where += [(piece.segment, s) for s in offsets.tolist()]
        nums.append(piece.values[:stop][::stride])
        refs.append(ref[:stop][::stride])
    for i, event in enumerate(traj.events):
        where += [(event.index, 0.0)] * 2
        nums.append((event.pre_value, event.post_value))
        refs.append((closed[i][-1], closed[i + 1][0]))
    ref = np.concatenate(refs)
    residual = np.abs(ref - np.concatenate(nums)) / ref
    worst = int(np.argmax(residual))
    if not residual[worst] > 0.0:
        return 0.0, traj.params.t0
    k, s = where[worst]
    return float(residual[worst]), traj.params.time(k, s)


def compare_solutions(
    params: ModelParams,
    x0: float,
    horizon_periods: int,
    ctrl: StepControl | None = None,
    tol: float = DEFAULT_ORACLE_TOL,
) -> VerificationReport:
    """Closed form against the RK4 oracle over a whole horizon.

    Records the worst relative deviation between the closed form and the
    integrated trajectory started at x0 (sampled at step boundaries,
    including the pre/post values at every impulse), and the same for the
    periodic formula against a trajectory started at the fixed-point anchor
    when the orbit exists.
    """
    if horizon_periods < 1:
        raise ValueError(f"horizon_periods must be >= 1, got {horizon_periods!r}")
    if ctrl is None:
        ctrl = StepControl()
    consts = derive_constants(params)

    traj = integrate(params, x0, horizon_periods, ctrl)
    worst, worst_t = _worst_deviation(traj, trajectory_closed_form(traj))
    records = [
        CheckRecord(f"solution vs oracle (worst at t={worst_t:.6g})", float(worst), tol)
    ]
    metadata = {
        "params": params.to_dict(),
        "x0": float(x0),
        "horizon_periods": horizon_periods,
        "h": ctrl.h,
        "tolerance": tol,
        "grid_per_period": _GRID_PER_PERIOD,
        "panels_per_unit": DEFAULT_PANELS_PER_UNIT,
        "x0_star": consts.x0_star,
    }
    if consts.x0_star is not None:
        orbit_traj = integrate(params, consts.x0_star, horizon_periods, ctrl)
        worst_p, worst_pt = _worst_deviation(
            orbit_traj, trajectory_closed_form(orbit_traj, periodic=True)
        )
        records.append(
            CheckRecord(
                f"periodic orbit vs oracle (worst at t={worst_pt:.6g})", float(worst_p), tol
            )
        )
    return VerificationReport(
        check="closed form vs numerical oracle", records=tuple(records), metadata=metadata
    )


def critical_harvest(r: PeriodicCoefficient) -> float:
    """Largest sustainable harvest fraction: E* = 1 - 1/A.

    For E < E* the positive periodic orbit exists; at or above it the
    net per-period multiplier (1 - E) A drops to 1 or below and the
    periodic-orbit functions raise :class:`NoPeriodicSolutionError`.
    """
    return 1.0 - 1.0 / compute_A(r)


def _bisect(f: Callable[[float], float], lo: float, hi: float, iters: int = 100) -> float:
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
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
    n: int = 512,
    tol: float = DEFAULT_FIXED_POINT_TOL,
) -> VerificationReport:
    """Scan the period-advance map for fixed points on a log-spaced grid.

    When the orbit exists there must be exactly one sign change of
    P(x) - x in (x_min, x_max) and its refined abscissa must match the
    anchor value within tol (relative).  Otherwise there must be no sign
    change, with P(x) < x everywhere on the grid.
    """
    if not (0.0 < x_min < x_max):
        raise ValueError(f"need 0 < x_min < x_max, got {x_min!r}, {x_max!r}")
    if n < 2:
        raise ValueError(f"need at least 2 grid points, got {n!r}")
    consts = derive_constants(params)
    xs = np.geomspace(x_min, x_max, n)
    gap = poincare_map(params, xs) - xs
    sign = np.sign(gap)  # a product of two gaps can overflow, one of two signs cannot

    crossings: list[float] = []
    for i in range(n - 1):
        if gap[i] == 0.0:
            crossings.append(float(xs[i]))
        elif sign[i] * sign[i + 1] < 0.0:
            crossings.append(
                _bisect(lambda x: poincare_map(params, x) - x, float(xs[i]), float(xs[i + 1]))
            )
    if gap[-1] == 0.0:
        crossings.append(float(xs[-1]))

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
        "n": n,
        "tolerance": tol,
        "crossings": [float(c) for c in crossings],
        "x0_star": consts.x0_star,
    }
    return VerificationReport(
        check="fixed-point scan of the period-advance map",
        records=tuple(records),
        metadata=metadata,
    )
