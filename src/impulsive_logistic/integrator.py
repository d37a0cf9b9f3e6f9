"""Numerical oracle: fixed-step RK4 between impulses, exact jumps at them.

Impulse instants and coefficient discontinuities are all known a priori, so
the grid is aligned instead of adaptive.  It is one grid of offsets into a
period, shared by every period: the unit interval divided into an integer
number of base steps (so each impulse lands exactly on a step boundary),
with any step straddling a coefficient jump split at it.  The harvest jump
x -> (1 - E) x is applied algebraically, never integrated across.  r and K
are evaluated at every step's stage times, in phase (``ModelParams.phase``
plus the offset), once per run (``_stage_table``); the RK4 recurrence then
runs over that table in plain Python floats, period after period.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .closed_form import ModelParams
from .coefficients import CUT_TOL, CoefficientPair

__all__ = [
    "ImpulseEvent",
    "IntegrationError",
    "StepControl",
    "Trajectory",
    "TrajectoryPiece",
    "integrate",
]


class IntegrationError(RuntimeError):
    """The scheme failed (state overflowed, turned non-positive, or exceeded the error target)."""


@dataclass(frozen=True)
class StepControl:
    """Step settings for the RK4 scheme.

    h must divide the unit interval into a whole number of steps so impulse
    instants are exact step boundaries.  If ``error_target`` is set, every
    step is re-done with two half steps as a diagnostic; the run fails if
    the estimated relative step error ever exceeds the target.
    """

    h: float = 1.0 / 256.0
    error_target: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step h must be positive, got {self.h!r}")
        if not math.isfinite(1.0 / self.h):
            raise ValueError(f"step h={self.h!r} is too small: 1/h overflows the float range")
        n = round(1.0 / self.h)
        if n < 1 or abs(n * self.h - 1.0) > 1e-9:
            raise ValueError(
                f"step h={self.h!r} must divide the unit interval into a whole "
                "number of steps"
            )
        if self.error_target is not None and not self.error_target > 0.0:
            raise ValueError(f"error_target must be positive, got {self.error_target!r}")

    @property
    def steps_per_unit(self) -> int:
        return round(1.0 / self.h)


@dataclass(frozen=True)
class ImpulseEvent:
    """The harvest jump at t0 + index: post_value = (1 - E) * pre_value, exactly."""

    index: int
    pre_value: float
    post_value: float


@dataclass(frozen=True, eq=False)
class TrajectoryPiece:
    """Samples of period ``segment``, at offsets s into it (time t0 + segment + s).

    Every piece but the last covers the run's whole offset grid, both ends
    included; its final value is the pre-impulse state.  The last piece is
    the single post-impulse sample at offset 0 of period ``periods``.
    """

    segment: int
    offsets: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)

    @property
    def times(self) -> np.ndarray:
        """The samples' times within the period: ``offsets``.

        perfbench/tracer.py counts the RK4 steps of a run from these.
        """
        return self.offsets


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated path with its impulse events; immutable once returned."""

    params: ModelParams
    x0: float
    ctrl: StepControl
    pieces: tuple[TrajectoryPiece, ...]
    events: tuple[ImpulseEvent, ...]
    step_error_estimate: float | None = None


def _rk4_step(
    x: float, h: float, ra: float, rm: float, re: float, ka: float, km: float, ke: float
) -> float:
    """One classical RK4 step of x' = r (1 - x/K) x.

    ra, rm, re and ka, km, ke are r and K at the step's start, midpoint and
    end; the two midpoint stages share them.
    """
    k1 = ra * (1.0 - x / ka) * x
    y = x + 0.5 * h * k1
    k2 = rm * (1.0 - y / km) * y
    y = x + 0.5 * h * k2
    k3 = rm * (1.0 - y / km) * y
    y = x + h * k3
    k4 = re * (1.0 - y / ke) * y
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _step_offsets(n: int, cuts: tuple[float, ...]) -> list[float]:
    """Step boundaries across one period: i/n for i = 0..n plus every jump
    offset more than CUT_TOL from its neighbours."""
    bounds = [i / n for i in range(n)] + [1.0]
    for c in cuts:
        pos = bisect_right(bounds, c)
        if pos < len(bounds) and c - bounds[pos - 1] > CUT_TOL and bounds[pos] - c > CUT_TOL:
            bounds.insert(pos, c)
    return bounds


def _stage_table(
    pair: CoefficientPair, phase: float, offsets: list[float], halves: bool
) -> tuple[list[float], ...]:
    """h and the RK4 stage values of r and K for every step of the grid.

    Step i starts at coefficient time ta = phase + offsets[i] and has width
    h = offsets[i + 1] - offsets[i]; its stage times are the floats a scalar
    step forms: ta, tm = ta + 0.5*h and ta + h.  With ``halves`` the table
    also holds the stages of the two half steps that the error estimate
    takes, at ta + 0.5*(0.5*h), tm + 0.5*(0.5*h) and tm + 0.5*h.  Each
    coefficient takes its piece around tm.
    """
    s = np.asarray(offsets)
    h = np.diff(s)
    ta = phase + s[:-1]
    tm = ta + 0.5 * h
    stages = (ta, tm, ta + h)
    if halves:
        quarter = 0.5 * (0.5 * h)
        stages += (ta + quarter, tm + quarter, tm + 0.5 * h)
    r_col = pair.r.stage_values(stages, tm)
    k_col = pair.K.stage_values(stages, tm)
    columns = (h, *r_col[:3], *k_col[:3], *r_col[3:], *k_col[3:])
    return tuple(c.tolist() for c in columns)


def _frozen(values: list[float]) -> np.ndarray:
    arr = np.asarray(values)
    arr.setflags(write=False)
    return arr


def integrate(
    params: ModelParams,
    x0: float,
    periods: int,
    ctrl: StepControl | None = None,
) -> Trajectory:
    """RK4-integrate the harvested logistic model over whole periods from (t0, x0).

    Each impulse instant t0 + k, k = 1..periods, applies the exact jump
    x -> (1 - E) x and is recorded as an :class:`ImpulseEvent`.  Every step
    boundary becomes a sample.  Raises :class:`IntegrationError` if the
    state overflows the float range or leaves the positive domain (step too
    large for the given coefficients).
    """
    if ctrl is None:
        ctrl = StepControl()
    if not x0 > 0.0:
        raise ValueError(f"x0 must be positive, got {x0!r}")
    if isinstance(periods, bool) or not isinstance(periods, int) or periods < 1:
        raise ValueError(f"periods must be a positive whole number, got {periods!r}")

    halves = ctrl.error_target is not None
    offsets = _step_offsets(ctrl.steps_per_unit, params.jump_offsets)
    steps = list(zip(offsets[1:], *_stage_table(params.pair, params.phase, offsets, halves)))
    grid = _frozen(offsets)
    keep_fraction = 1.0 - params.E

    pieces: list[TrajectoryPiece] = []
    events: list[ImpulseEvent] = []
    worst_step_error = 0.0
    x = float(x0)
    for k in range(periods):
        values = [x]
        for sb, h, ra, rm, re, ka, km, ke, *half in steps:
            x_new = _rk4_step(x, h, ra, rm, re, ka, km, ke)
            if half:
                # half steps [ta, tm] and [tm, tm + 0.5*h]: their midpoints
                # (quarter points) and the second one's end
                rq, r3q, rz, kq, k3q, kz = half
                x_half = _rk4_step(x, 0.5 * h, ra, rq, rm, ka, kq, km)
                x_half = _rk4_step(x_half, 0.5 * h, rm, r3q, rz, km, k3q, kz)
                est = abs(x_new - x_half) / (15.0 * max(abs(x_half), 1e-300))
                worst_step_error = max(worst_step_error, est)
                if est > ctrl.error_target:
                    raise IntegrationError(
                        f"estimated step error {est:.3e} exceeds the target "
                        f"{ctrl.error_target:.3e} at t={params.time(k, sb)!r}; reduce h"
                    )
            x = x_new
            if not math.isfinite(x):
                raise IntegrationError(
                    f"state overflowed at t={params.time(k, sb)!r} (x={x!r}): "
                    "r(1 - x/K) x exceeds the float range for this x0 and K"
                )
            if not x > 0.0:
                raise IntegrationError(
                    f"state became non-positive at t={params.time(k, sb)!r} (x={x!r}); "
                    "the step is too large for these coefficients"
                )
            values.append(x)
        pieces.append(TrajectoryPiece(k, grid, _frozen(values)))
        pre = x
        x = keep_fraction * pre
        events.append(ImpulseEvent(index=k + 1, pre_value=pre, post_value=x))
    # close with the post-impulse state at the last impulse instant
    pieces.append(TrajectoryPiece(periods, grid[:1], _frozen([x])))

    return Trajectory(
        params=params,
        x0=float(x0),
        ctrl=ctrl,
        pieces=tuple(pieces),
        events=tuple(events),
        step_error_estimate=worst_step_error if halves else None,
    )
