"""Numerical oracle: fixed-step RK4 between impulses, exact jumps at them.

Impulse instants and coefficient discontinuities are all known a priori, so
the grid is aligned instead of adaptive: every unit interval is divided into
an integer number of base steps (so each impulse lands exactly on a step
boundary) and any step straddling a coefficient jump is split at it.  The
harvest jump x -> (1 - E) x is applied algebraically, never integrated
across.  For each impulse-free stretch, r and K are evaluated at every
step's stage times at once (``_stage_table``); the RK4 recurrence then runs
over that table in plain Python floats.

``exact_constant_flow`` gives the closed-form flow of the autonomous
logistic equation and serves as a second, quadrature-free oracle for
constant coefficients.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .closed_form import BOUNDARY_SNAP, ModelParams
from .coefficients import CoefficientPair, jump_cuts

__all__ = [
    "ImpulseEvent",
    "IntegrationError",
    "StepControl",
    "Trajectory",
    "TrajectoryPiece",
    "exact_constant_flow",
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
    """One harvest jump: post_value = (1 - E) * pre_value, applied exactly."""

    index: int
    time: float
    pre_value: float
    post_value: float


@dataclass(frozen=True, eq=False)
class TrajectoryPiece:
    """Samples of one impulse-free stretch, both endpoints included.

    The final value is the pre-impulse state when an impulse follows.
    """

    segment: int
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated path with its impulse events; immutable once returned.

    The flattened ``times``/``values`` views are strictly increasing in t
    and carry the post-impulse value at each impulse instant; the
    pre-impulse values live in ``events``.
    """

    params: ModelParams
    x0: float
    ctrl: StepControl
    pieces: tuple[TrajectoryPiece, ...]
    events: tuple[ImpulseEvent, ...]
    step_error_estimate: float | None = None

    @property
    def t_start(self) -> float:
        return float(self.pieces[0].times[0])

    @property
    def t_end(self) -> float:
        return float(self.pieces[-1].times[-1])

    @cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray]:
        ts, xs = [], []
        for i, piece in enumerate(self.pieces):
            t_arr, v_arr = piece.times, piece.values
            if i + 1 < len(self.pieces):
                # drop the pre-impulse row; the next piece starts at the
                # same instant with the post value
                t_arr, v_arr = t_arr[:-1], v_arr[:-1]
            ts.append(t_arr)
            xs.append(v_arr)
        return np.concatenate(ts), np.concatenate(xs)

    @property
    def times(self) -> np.ndarray:
        return self._flat[0]

    @property
    def values(self) -> np.ndarray:
        return self._flat[1]


def exact_constant_flow(r0: float, K0: float, x_start: float, dt: float) -> float:
    """Closed-form flow of x' = r0 (1 - x/K0) x over a time span dt >= 0."""
    if dt < 0.0:
        raise ValueError(f"dt must be nonnegative, got {dt!r}")
    em1 = math.expm1(r0 * dt)
    return K0 * x_start * (em1 + 1.0) / (K0 + x_start * em1)


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


def _segment_bounds(
    seg_start: float, seg_end: float, n: int, breaks_mod1: tuple[float, ...]
) -> list[float]:
    """Step boundaries across one stretch: base grid plus coefficient jumps."""
    width = seg_end - seg_start
    bounds = []
    i = 0
    while True:
        off = i / n
        if off >= width - 1e-12:
            break
        bounds.append(seg_start + off)
        i += 1
    bounds.append(seg_end)
    for c in jump_cuts(breaks_mod1, seg_start, seg_end):
        pos = bisect_right(bounds, c)
        if c - bounds[pos - 1] > 1e-12 and bounds[pos] - c > 1e-12:
            bounds.insert(pos, c)
    return bounds


def _stage_table(
    pair: CoefficientPair, bounds: list[float], halves: bool
) -> tuple[list[float], ...]:
    """h and the RK4 stage values of r and K for every step of one stretch.

    Stage times are the floats a scalar step forms: ta, tm = ta + 0.5*h and
    ta + h (not the next bound, which can differ from it in the last ulp).
    With ``halves`` the table also holds the stages of the two half steps
    that the error estimate takes, at ta + 0.5*(0.5*h), tm + 0.5*(0.5*h)
    and tm + 0.5*h.  Each coefficient takes its piece around tm.
    """
    ta = np.asarray(bounds[:-1])
    h = np.diff(bounds)
    tm = ta + 0.5 * h
    stages = (ta, tm, ta + h)
    if halves:
        quarter = 0.5 * (0.5 * h)
        stages += (ta + quarter, tm + quarter, tm + 0.5 * h)
    r_col = pair.r.stage_values(stages, tm)
    k_col = pair.K.stage_values(stages, tm)
    columns = (h, *r_col[:3], *k_col[:3], *r_col[3:], *k_col[3:])
    return tuple(c.tolist() for c in columns)


def _make_piece(segment: int, times: list[float], values: list[float]) -> TrajectoryPiece:
    t_arr = np.asarray(times)
    v_arr = np.asarray(values)
    t_arr.setflags(write=False)
    v_arr.setflags(write=False)
    return TrajectoryPiece(segment=segment, times=t_arr, values=v_arr)


def integrate(
    params: ModelParams,
    x0: float,
    t_end: float,
    ctrl: StepControl | None = None,
) -> Trajectory:
    """RK4-integrate the harvested logistic model from (t0, x0) to t_end.

    Each impulse instant tau_k <= t_end applies the exact jump
    x -> (1 - E) x and is recorded as an :class:`ImpulseEvent`.  Every step
    boundary becomes a sample.  Raises :class:`IntegrationError` if the
    state overflows the float range or leaves the positive domain (step too
    large for the given coefficients).
    """
    if ctrl is None:
        ctrl = StepControl()
    if not x0 > 0.0:
        raise ValueError(f"x0 must be positive, got {x0!r}")
    if not t_end > params.t0:
        raise ValueError(f"t_end={t_end!r} must exceed t0={params.t0!r}")

    n = ctrl.steps_per_unit
    halves = ctrl.error_target is not None
    breaks = params.pair.breakpoints_mod1()
    keep_fraction = 1.0 - params.E

    pieces: list[TrajectoryPiece] = []
    events: list[ImpulseEvent] = []
    worst_step_error = 0.0
    x = float(x0)
    seg = 0
    while True:
        seg_start = params.t0 + seg
        full_end = params.t0 + (seg + 1.0)
        reaches_impulse = t_end >= full_end - BOUNDARY_SNAP
        seg_end = full_end if reaches_impulse else t_end

        bounds = _segment_bounds(seg_start, seg_end, n, breaks)
        steps = zip(bounds[1:], *_stage_table(params.pair, bounds, halves))
        values = [x]
        for tb, h, ra, rm, re, ka, km, ke, *half in steps:
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
                        f"{ctrl.error_target:.3e} at t={tb!r}; reduce h"
                    )
            x = x_new
            if not math.isfinite(x):
                raise IntegrationError(
                    f"state overflowed at t={tb!r} (x={x!r}): r(1 - x/K) x exceeds "
                    "the float range for this x0 and K"
                )
            if not x > 0.0:
                raise IntegrationError(
                    f"state became non-positive at t={tb!r} (x={x!r}); the "
                    "step is too large for these coefficients"
                )
            values.append(x)
        pieces.append(_make_piece(seg, bounds, values))

        if not reaches_impulse:
            break
        pre = x
        x = keep_fraction * pre
        events.append(
            ImpulseEvent(index=seg + 1, time=full_end, pre_value=pre, post_value=x)
        )
        if t_end <= full_end + BOUNDARY_SNAP:
            # t_end coincides with the impulse instant: close with the
            # post-impulse state as a zero-length final piece.
            pieces.append(_make_piece(seg + 1, [full_end], [x]))
            break
        seg += 1

    return Trajectory(
        params=params,
        x0=float(x0),
        ctrl=ctrl,
        pieces=tuple(pieces),
        events=tuple(events),
        step_error_estimate=(
            worst_step_error if ctrl.error_target is not None else None
        ),
    )
