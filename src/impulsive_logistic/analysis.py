"""Machine-checked verification of the model's structural claims.

Each check produces a :class:`VerificationReport`: named, self-describing
(the metadata is enough to re-run it), and passing exactly when every
recorded residual is within its tolerance.

The checks:
  * ``verify_impulse_condition`` -- one-sided limits at the impulse
    instants.  The corrected periodic formula must jump by the harvested
    fraction; the legacy formula is expected to be continuous there, which
    is precisely why it is wrong whenever E > 0.
  * ``verify_periodicity`` -- x*(t + 1) = x*(t) on a grid.
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .closed_form import (
    BOUNDARY_SNAP,
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

DEFAULT_IMPULSE_TOL = 1e-6
DEFAULT_PERIODICITY_TOL = 1e-8
DEFAULT_ORACLE_TOL = 1e-5
DEFAULT_FIXED_POINT_TOL = 1e-6

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


def left_limit(
    f: Callable[[float], float], t: float, offsets: Sequence[float] = RICHARDSON_OFFSETS
) -> float:
    """Extrapolated limit of f at t from the left.

    Two Richardson stages over halving offsets cancel the linear and
    quadratic terms of f(t - d) in d, leaving an O(d**3) bias.
    """
    d = offsets[0]
    u1, u2, u3 = f(t - d), f(t - d / 2.0), f(t - d / 4.0)
    return (8.0 * u3 - 6.0 * u2 + u1) / 3.0


def _orbit_by_quadrature(params: ModelParams, consts: SolutionConstants, t: float) -> float:
    """x*(t) from the scalar forcing quadrature over [t0 + k, t].

    Shares no period table with the kernel: the independent side of the
    periodicity and jump checks.
    """
    anchor = params.t0 + math.floor(t - params.t0 + BOUNDARY_SNAP)
    te = max(t, anchor)
    qm1 = consts.q - 1.0
    decay = math.exp(-params.r.integral(anchor, te))
    forcing = forcing_integral(params.pair, anchor, te, REFERENCE_PANELS_PER_UNIT)
    return qm1 / (consts.A * consts.B * decay + qm1 * forcing)


def _pre_impulse_offsets(params: ModelParams) -> tuple[float, float, float]:
    """``RICHARDSON_OFFSETS``, or smaller ones when r or K jumps among them.

    The extrapolation needs the orbit smooth on [tau - d, tau); a
    coefficient jump there puts a kink in it.  A jump between BOUNDARY_SNAP
    and d before the impulse instants sets d to half its distance from them.
    """
    d = RICHARDSON_OFFSETS[0]
    phase = params.t0 - math.floor(params.t0)
    lags = [(phase - beta) % 1.0 for beta in params.pair.breakpoints_mod1()]
    near = [lag for lag in lags if BOUNDARY_SNAP < lag < d]
    if not near:
        return RICHARDSON_OFFSETS
    d = 0.5 * min(near)
    return (d, d / 2.0, d / 4.0)


def _corrected_limits(
    params: ModelParams, offsets: Sequence[float]
) -> Callable[[float], tuple[float, float]]:
    """One-sided values of the corrected orbit at an impulse instant tau.

    Pre side: the period table just below the end of a period, extrapolated
    by ``left_limit`` (the orbit is periodic, so one table serves every
    impulse).  Post side: the scalar quadrature at tau itself.
    """
    consts = derive_constants(params)
    d = offsets[0]
    below = (1.0 - d, 1.0 - d / 2.0, 1.0 - d / 4.0)  # the offsets left_limit forms
    orbit = dict(zip(below, periodic_grid(params, period_table(params, below)).tolist()))
    pre = left_limit(orbit.__getitem__, 1.0, offsets)
    return lambda tau: (pre, _orbit_by_quadrature(params, consts, tau))


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
    if which == "corrected":
        one_sided = _corrected_limits(params, offsets)
    else:

        def one_sided(tau: float) -> tuple[float, float]:
            pre = left_limit(lambda s: legacy_periodic_at(params, s), tau, offsets)
            return pre, legacy_periodic_at(params, tau)

    keep = 1.0 - params.E
    records: list[CheckRecord] = []
    estimates: dict[str, dict[str, float]] = {}
    for k in ks:
        pre, post = one_sided(params.impulse_time(k))
        estimates[f"k={k}"] = {"pre": float(pre), "post": float(post)}
        if which == "corrected":
            residual = abs(post - keep * pre) / pre
            records.append(CheckRecord(f"k={k} jump", float(residual), tol))
        else:
            continuity = abs(post - pre) / pre
            violation = abs(post - keep * pre) / pre
            estimates[f"k={k}"]["jump_violation"] = float(violation)
            records.append(CheckRecord(f"k={k} continuity", float(continuity), tol))
            records.append(
                CheckRecord(f"k={k} jump shortfall", float(params.E / 2.0 - violation), 0.0)
            )

    metadata = {
        "which": which,
        "params": params.to_dict(),
        "ks": list(ks),
        "tolerance": tol,
        "offsets": list(offsets),
        "panels_per_unit": DEFAULT_PANELS_PER_UNIT,
        "estimates": estimates,
    }
    if which == "corrected":
        metadata["reference_panels_per_unit"] = REFERENCE_PANELS_PER_UNIT
        limits = one_sided_limits(params, ks[0])
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

    x*(t) comes from one period table over the grid; x*(t + 1), in period
    k + 1 >= 1, from the scalar quadrature at an independent panel count.
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
    records = []
    for k in range(periods):
        for off, now in zip(grid, orbit):
            t = params.t0 + k + off
            shifted = _orbit_by_quadrature(params, consts, t + 1.0)
            residual = abs(shifted - now) / now
            records.append(CheckRecord(f"k={k} offset={off:g}", float(residual), tol))
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

    One array per piece, aligned with ``piece.times``: the solution from
    ``traj.x0``, or with ``periodic=True`` the periodic orbit.  Every piece
    whose offsets into its period match the first piece's reads the first
    piece's period table, so a whole trajectory costs one table.  The last
    sample of a piece that ends at an impulse is the pre-impulse value,
    post / (1 - E) with post the next piece's first value.
    """
    params = traj.params

    def offsets(piece) -> np.ndarray:
        # the end of a stretch may round a few ulp past offset 1
        return np.minimum(piece.times - piece.times[0], 1.0)

    base = offsets(traj.pieces[0])
    shared = period_table(params, base)
    values = []
    for piece in traj.pieces:
        own = offsets(piece)
        if own.size == base.size and np.allclose(own, base, rtol=0.0, atol=BOUNDARY_SNAP):
            table = shared
        else:
            table = period_table(params, own)
        if periodic:
            row = periodic_grid(params, table)
        else:
            row = solution_grid(params, traj.x0, (piece.segment,), table)[0]
        values.append(row)
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
    times, nums, refs = [], [], []
    for i, (piece, ref) in enumerate(zip(traj.pieces, closed)):
        stop = -1 if i < last else None  # pre-impulse row handled via events
        times.append(piece.times[:stop][::stride])
        nums.append(piece.values[:stop][::stride])
        refs.append(ref[:stop][::stride])
    for i, event in enumerate(traj.events):
        times.append((event.time, event.time))
        nums.append((event.pre_value, event.post_value))
        refs.append((closed[i][-1], closed[i + 1][0]))
    ref = np.concatenate(refs)
    residual = np.abs(ref - np.concatenate(nums)) / ref
    worst = int(np.argmax(residual))
    if not residual[worst] > 0.0:
        return 0.0, traj.t_start
    return float(residual[worst]), float(np.concatenate(times)[worst])


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
    t_end = params.t0 + horizon_periods

    traj = integrate(params, x0, t_end, ctrl)
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
        orbit_traj = integrate(params, consts.x0_star, t_end, ctrl)
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

    crossings: list[float] = []
    for i in range(n - 1):
        if gap[i] == 0.0:
            crossings.append(float(xs[i]))
        elif gap[i] * gap[i + 1] < 0.0:
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
