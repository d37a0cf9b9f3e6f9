"""Numerical oracle: fixed-step RK4 between impulses, exact jumps at them.

Impulse instants and coefficient discontinuities are all known a priori, so
the grid is aligned instead of adaptive.  It is one grid of offsets into a
period, shared by every period: the package's one partition of a period,
``CoefficientPair.period_grid`` at n = steps per unit, the grid offsets i/n
(so each impulse lands exactly on a step boundary) and every jump offset,
so a jump however close to a grid point bounds a step of its own.  B's
panels and the period table's are intervals of the same partition at
n = ``coefficients.forcing_panels``.  The harvest jump x -> (1 - E) x is
applied algebraically, never integrated across.  r and K are evaluated at
every step's stage times, in phase (``ModelParams.phase`` plus the offset),
once per run (``_stage_table``); the RK4 recurrence then runs over that
table in plain Python floats, period after period.  The result is one
(period, offset) array of samples on that grid, the shape ``solution_grid``
gives the closed form, and the post-impulse state at the end of the run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

from ._lazy import np
from .closed_form import ModelParams
from .coefficients import CoefficientPair

__all__ = [
    "DEFAULT_STEPS_PER_UNIT",
    "IntegrationError",
    "Trajectory",
    "integrate",
]


class IntegrationError(RuntimeError):
    """The scheme failed (the state overflowed, underflowed or turned non-positive)."""


#: RK4 steps per unit of time: the step h = 1/n makes every impulse instant a
#: step boundary.
DEFAULT_STEPS_PER_UNIT = 256


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integrated path on one offset grid; immutable once returned.

    ``values[k, j]`` is the state at t0 + k + ``offsets[j]``: row k runs
    from the post-impulse state at offset 0 to the pre-impulse state at
    offset 1, and ``values[k + 1, 0]`` is exactly (1 - E) times
    ``values[k, -1]``.  ``end`` is the post-impulse state at t0 + periods,
    (1 - E) times ``values[-1, -1]``.
    """

    params: ModelParams
    x0: float
    offsets: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)
    end: float

    @property
    def pieces(self) -> list[SimpleNamespace]:
        """One record per period, its ``times`` the ``offsets``: perfbench/tracer.py
        counts the RK4 steps of a run from these, and nothing else reads them."""
        return [SimpleNamespace(times=self.offsets)] * len(self.values)


def _stage_table(
    pair: CoefficientPair, phase: float, offsets: np.ndarray
) -> tuple[list[float], ...]:
    """h and the RK4 stage values of r and K for every step of the grid.

    Step i starts at coefficient time ta = phase + offsets[i] and has width
    h = offsets[i + 1] - offsets[i]; its stage times are the floats a scalar
    step forms: ta, tm = ta + 0.5*h and ta + h.  Each coefficient takes its
    piece around tm (``PeriodicCoefficient.piece_values``).
    """
    h = np.diff(offsets)
    ta = phase + offsets[:-1]
    tm = ta + 0.5 * h
    stages = np.stack((ta, tm, ta + h))
    key = np.broadcast_to(tm, stages.shape)
    columns = (h, *pair.r.piece_values(stages, key), *pair.K.piece_values(stages, key))
    return tuple(c.tolist() for c in columns)


def _underflow(t: float) -> IntegrationError:
    return IntegrationError(
        f"state underflowed to 0.0 by t={t!r}: it fell "
        "below the smallest positive float, not a step-size problem"
    )


def integrate(
    params: ModelParams,
    x0: float,
    periods: int,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> Trajectory:
    """RK4-integrate the harvested logistic model over whole periods from (t0, x0).

    Each impulse instant t0 + k, k = 1..periods, applies the exact jump
    x -> (1 - E) x between two rows.  A period takes ``steps_per_unit``
    steps of width 1/n, and one more at each jump of r or K between two
    grid points; every step boundary becomes a sample.  Raises
    :class:`IntegrationError` if the state overflows the float range,
    underflows to 0.0, or leaves the positive domain (step too large for
    the given coefficients).
    """
    if not x0 > 0.0:
        raise ValueError(f"x0 must be positive, got {x0!r}")
    for name, count in (("periods", periods), ("steps_per_unit", steps_per_unit)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"{name} must be a positive whole number, got {count!r}")

    grid = params.pair.period_grid(params.phase, steps_per_unit)
    grid.setflags(write=False)
    steps = list(zip(grid[1:].tolist(), *_stage_table(params.pair, params.phase, grid)))
    keep_fraction = 1.0 - params.E

    samples: list[float] = []
    x = float(x0)
    for k in range(periods):
        samples.append(x)
        for sb, h, ra, rm, re, ka, km, ke in steps:
            # one classical RK4 step of x' = r (1 - x/K) x; r and K at the
            # step's start, midpoint and end, the two midpoint stages sharing them
            k1 = ra * (1.0 - x / ka) * x
            y = x + 0.5 * h * k1
            k2 = rm * (1.0 - y / km) * y
            y = x + 0.5 * h * k2
            k3 = rm * (1.0 - y / km) * y
            y = x + h * k3
            k4 = re * (1.0 - y / ke) * y
            x = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
            if not math.isfinite(x):
                # the weighted sum can overflow where the step's result
                # fits: redo the step from its start, samples[-1], with
                # each stage scaled by its weight first
                x = samples[-1] + (
                    (h / 6.0) * k1 + (h / 3.0) * k2 + (h / 3.0) * k3 + (h / 6.0) * k4
                )
                if not math.isfinite(x):
                    raise IntegrationError(
                        f"state overflowed at t={params.time(k, sb)!r} (x={x!r}): "
                        "r(1 - x/K) x exceeds the float range for this x0 and K"
                    )
            if not x > 0.0:
                if x == 0.0 and samples[-1] < sys.float_info.min:
                    raise _underflow(params.time(k, sb))
                raise IntegrationError(
                    f"state became non-positive at t={params.time(k, sb)!r} (x={x!r}); "
                    "the step is too large for these coefficients"
                )
            samples.append(x)
        x = keep_fraction * x
        if x == 0.0:  # a positive state times 1 - E > 0 is 0.0 only by underflow
            raise _underflow(params.time(k + 1, 0.0))
    values = np.array(samples).reshape(periods, grid.size)
    values.setflags(write=False)
    return Trajectory(params, float(x0), grid, values, x)
