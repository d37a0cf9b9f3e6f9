"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately separate from the library code paths they
check: the logistic flow is the textbook closed form written out inline, the
chained variant applies the harvest jumps by plain multiplication, and
``scalar_rk4`` is the RK4 oracle stepped one scalar coefficient call at a
time, against which the library's stage-table stepper must agree bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from impulsive_logistic import (
    CoefficientPair,
    ConstantCoefficient,
    IntegrationError,
    ModelParams,
    PeriodicCoefficient,
    PiecewiseConstantCoefficient,
    SinusoidCoefficient,
)

LN2 = math.log(2.0)


def golden_params(E: float = 0.25, t0: float = 0.5) -> ModelParams:
    """Constant-coefficient instance: r = ln 2, K = 100."""
    return ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(LN2), K=ConstantCoefficient(100.0)),
        E=E,
        t0=t0,
    )


def logistic_flow(r0: float, K0: float, x: float, dt: float) -> float:
    """Autonomous logistic flow, written independently of the library."""
    e = math.exp(r0 * dt)
    return K0 * x * e / (K0 + x * (e - 1.0))


def chained_flow(r0: float, K0: float, E: float, t0: float, x0: float, t: float) -> float:
    """Flow with multiplicative harvest jumps at t0 + 1, t0 + 2, ...

    Evaluation exactly at a jump instant returns the post-jump value.
    """
    k = math.floor(t - t0 + 1e-9)
    x = x0
    for _ in range(k):
        x = (1.0 - E) * logistic_flow(r0, K0, x, 1.0)
    rest = t - (t0 + k)
    if rest > 1e-9:
        x = logistic_flow(r0, K0, x, rest)
    return x


def richardson_left(f, t: float, d: float = 1e-4) -> float:
    """Left limit of f at t, two Richardson stages over halving offsets."""
    u1, u2, u3 = f(t - d), f(t - d / 2.0), f(t - d / 4.0)
    return (8.0 * u3 - 6.0 * u2 + u1) / 3.0


def random_coefficient(
    rng: np.random.Generator, kind: str, low: float, high: float
) -> PeriodicCoefficient:
    """One coefficient of the requested kind with values inside [low, high]."""
    if kind == "constant":
        return ConstantCoefficient(float(rng.uniform(low, high)))
    if kind == "sinusoid":
        mean = float(rng.uniform(0.6 * low + 0.4 * high, high))
        amp = float(rng.uniform(0.1, 0.6) * (mean - low))
        phase = float(rng.uniform(0.0, 2.0 * math.pi))
        return SinusoidCoefficient(mean=mean, amp=amp, phase=phase)
    if kind == "piecewise":
        while True:
            m = int(rng.integers(1, 3))
            interior = np.sort(rng.uniform(0.15, 0.85, size=m))
            if m == 1 or np.min(np.diff(interior)) > 0.08:
                break
        breakpoints = (0.0, *(float(b) for b in interior), 1.0)
        values = tuple(float(v) for v in rng.uniform(low, high, size=m + 1))
        return PiecewiseConstantCoefficient(breakpoints=breakpoints, values=values)
    raise ValueError(kind)


_KINDS = ("constant", "sinusoid", "piecewise")


def random_params(
    rng: np.random.Generator, index: int = 0, require_orbit: bool = True
) -> ModelParams:
    """Random instance with mixed coefficient kinds (cycled so all appear)."""
    r = random_coefficient(rng, _KINDS[index % 3], 0.3, 1.5)
    K = random_coefficient(rng, _KINDS[(index + 1) % 3], 50.0, 200.0)
    growth = math.exp(r.integral(0.0, 1.0))
    e_crit = 1.0 - 1.0 / growth
    if require_orbit:
        E = float(rng.uniform(0.15, 0.8)) * e_crit
    else:
        E = min(0.95, e_crit + float(rng.uniform(0.05, 0.2)) * (1.0 - e_crit))
    t0 = float(rng.uniform(0.15, 0.85))
    return ModelParams(pair=CoefficientPair(r=r, K=K), E=E, t0=t0)


class ScalarRun(NamedTuple):
    """Output of ``scalar_rk4``: step offsets and values per period, and the
    events as (index, pre, post)."""

    offsets: list[list[float]]
    values: list[list[float]]
    events: list[tuple[int, float, float]]
    step_error_estimate: float | None


def _scalar_offsets(n: int, params: ModelParams) -> list[float]:
    """Offsets i/n into a period plus every jump more than 1e-12 from its neighbours."""
    bounds = [i / n for i in range(n)] + [1.0]
    for c in sorted((b - params.phase) % 1.0 for b in params.pair.breakpoints_mod1()):
        pos = bisect_right(bounds, c)
        if pos < len(bounds) and c - bounds[pos - 1] > 1e-12 and bounds[pos] - c > 1e-12:
            bounds.insert(pos, c)
    return bounds


def _frozen(c: PeriodicCoefficient, t_mid: float):
    """c on the smooth piece around t_mid: a piecewise-constant c takes its
    midpoint value everywhere on the step."""
    if isinstance(c, PiecewiseConstantCoefficient):
        value = c(t_mid)
        return lambda t: value
    return c


def _rk4(rhs, t: float, x: float, h: float) -> float:
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def scalar_rk4(
    params: ModelParams, x0: float, periods: int, h: float, error_target: float | None = None
) -> ScalarRun:
    """The RK4 oracle one step and one scalar coefficient call at a time.

    Same offset grid, stage times (in phase: ``params.phase`` plus the
    offset), operation order and failure messages as ``integrate``; slow
    (tens of microseconds per step), for tests only.
    """
    offsets = _scalar_offsets(round(1.0 / h), params)
    run = ScalarRun([], [], [], None)
    worst = 0.0
    x = float(x0)
    for k in range(periods):
        values = [x]
        for sa, sb in zip(offsets, offsets[1:]):
            step = sb - sa
            ta = params.phase + sa
            r_p = _frozen(params.r, ta + 0.5 * step)
            k_p = _frozen(params.K, ta + 0.5 * step)

            def rhs(t: float, y: float) -> float:
                return r_p(t) * (1.0 - y / k_p(t)) * y

            x_new = _rk4(rhs, ta, x, step)
            if error_target is not None:
                x_half = _rk4(rhs, ta, x, 0.5 * step)
                x_half = _rk4(rhs, ta + 0.5 * step, x_half, 0.5 * step)
                est = abs(x_new - x_half) / (15.0 * max(abs(x_half), 1e-300))
                worst = max(worst, est)
                if est > error_target:
                    raise IntegrationError(
                        f"estimated step error {est:.3e} exceeds the target "
                        f"{error_target:.3e} at t={params.t0 + (k + sb)!r}; reduce h"
                    )
            x = x_new
            if not (math.isfinite(x) and x > 0.0):
                raise IntegrationError(
                    f"state became non-positive at t={params.t0 + (k + sb)!r} (x={x!r}); "
                    "the step is too large for these coefficients"
                )
            values.append(x)
        run.offsets.append(offsets)
        run.values.append(values)
        pre, x = x, (1.0 - params.E) * x
        run.events.append((k + 1, pre, x))
    run.offsets.append([0.0])
    run.values.append([x])
    return run._replace(step_error_estimate=worst if error_target is not None else None)


def samples(traj) -> tuple[list[float], list[float]]:
    """Absolute times and values of an integrated path, post-impulse value
    only at each impulse instant (the pre values live in ``traj.events``)."""
    times, values = [], []
    last = len(traj.pieces) - 1
    for i, piece in enumerate(traj.pieces):
        stop = -1 if i < last else None
        times += [traj.params.t0 + piece.segment + s for s in piece.offsets[:stop].tolist()]
        values += piece.values[:stop].tolist()
    return times, values
