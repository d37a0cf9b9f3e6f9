"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately separate from the library code paths they
check: the logistic flow is the textbook closed form written out inline, the
chained variant applies the harvest jumps by plain multiplication, and
``scalar_rk4`` is the RK4 oracle stepped one scalar coefficient call at a
time, against which the library's stage-table stepper must agree bit for bit.
``reference_table`` is the row-wise table emitter the CLI's column-wise one
must match byte for byte.  ``reference_value`` and ``reference_integral``
read a coefficient from its ``to_dict`` description in stdlib ``math``.
"""

from __future__ import annotations

import json
import math
import sys
from bisect import bisect_left, bisect_right
from itertools import accumulate
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
    analysis,
    cli,
    closed_form,
)

LN2 = math.log(2.0)


def golden_params(E: float = 0.25, t0: float = 0.5) -> ModelParams:
    """Constant-coefficient instance: r = ln 2, K = 100."""
    return ModelParams(
        pair=CoefficientPair(r=ConstantCoefficient(LN2), K=ConstantCoefficient(100.0)),
        E=E,
        t0=t0,
    )


def exact_B(pair: CoefficientPair, phase: float) -> float:
    """B for a constant r and a piecewise-constant K, summed piece by piece.

    The pieces are those of the period from coefficient time ``phase``,
    between the jump offsets (beta - phase) % 1; on a piece [u0, u1] with
    value K the window integral of (r / K) exp(-r (1 - u)) is
    exp(-r (1 - u1)) (1 - exp(-r (u1 - u0))) / K, with expm1 for the second
    factor, so a piece of any width keeps its digits.
    """
    rate, K = pair.r.value, pair.K
    jumps = sorted(((b - phase) % 1.0, v) for b, v in zip(K.breakpoints[:-1], K.values))
    edges = [0.0, *(u for u, _ in jumps), 1.0]
    values = [jumps[-1][1], *(v for _, v in jumps)]  # offset 0 lies on the last piece
    return math.fsum(
        math.exp(-rate * (1.0 - u1)) * -math.expm1(-rate * (u1 - u0)) / k
        for u0, u1, k in zip(edges, edges[1:], values)
    )


def reference_value(c: PeriodicCoefficient, t: float) -> float:
    """c at the time t, in stdlib ``math``, sharing no code with the package.

    At a jump of a piecewise coefficient, the left limit: u on a breakpoint
    lies on the piece to its left, and u = 0 on the last piece.
    """
    data = c.to_dict()
    u = t - math.floor(t)
    if data["kind"] == "constant":
        return data["value"]
    if data["kind"] == "sinusoid":
        return data["mean"] + data["amp"] * math.sin(2.0 * math.pi * u + data["phase"])
    return data["values"][bisect_left(data["breakpoints"], u) - 1]


def reference_integral(c: PeriodicCoefficient, a: float, b: float) -> float:
    """The integral of c over [a, b], in stdlib ``math``: F(b) - F(a), with F
    the integral from 0, which is 0.0 at 0."""

    def F(t: float) -> float:
        data = c.to_dict()
        whole = math.floor(t)
        u = t - whole
        if data["kind"] == "constant":
            return data["value"] * t
        if data["kind"] == "sinusoid":
            mean, amp, phase = data["mean"], data["amp"], data["phase"]
            osc = math.cos(2.0 * math.pi * u + phase) - math.cos(phase)
            return mean * t - (amp / (2.0 * math.pi)) * osc
        bp, values = data["breakpoints"], data["values"]
        cum = list(accumulate((b1 - b0) * v for b0, b1, v in zip(bp, bp[1:], values)))
        cum.insert(0, 0.0)
        # u rounds up to 1.0 just below a whole number: the last piece
        i = min(bisect_right(bp, u) - 1, len(values) - 1)
        return whole * cum[-1] + (cum[i] + values[i] * (u - bp[i]))

    return F(b) - F(a)


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
    growth = math.exp(reference_integral(r, 0.0, 1.0))
    e_crit = 1.0 - 1.0 / growth
    if require_orbit:
        E = float(rng.uniform(0.15, 0.8)) * e_crit
    else:
        E = min(0.95, e_crit + float(rng.uniform(0.05, 0.2)) * (1.0 - e_crit))
    t0 = float(rng.uniform(0.15, 0.85))
    return ModelParams(pair=CoefficientPair(r=r, K=K), E=E, t0=t0)


class ScalarRun(NamedTuple):
    """Output of ``scalar_rk4``: the step offsets of a period, the values at
    them period by period, and the post-impulse value closing the run."""

    offsets: list[float]
    values: list[list[float]]
    end: float


def corrupt_period_table(monkeypatch, offset: float, corrupt) -> None:
    """Replace C(offset) by ``corrupt(C)`` in every period table built from now on."""
    real = closed_form.period_table

    def corrupted(params, offsets):
        table = real(params, offsets)
        hit = np.asarray(offsets) == offset
        return table._replace(forcing=np.where(hit, corrupt(table.forcing), table.forcing))

    for module in (closed_form, analysis, cli):
        monkeypatch.setattr(module, "period_table", corrupted)


def _scalar_offsets(n: int, params: ModelParams) -> list[float]:
    """Offsets i/n into a period plus every jump offset strictly between two of them."""
    bounds = [i / n for i in range(n)] + [1.0]
    jumps = [
        b
        for c in (params.pair.r, params.pair.K)
        for b in c.to_dict().get("breakpoints", [])[:-1]
    ]
    for c in sorted((b - params.phase) % 1.0 for b in jumps):
        pos = bisect_right(bounds, c)
        if pos < len(bounds) and bounds[pos - 1] < c:
            bounds.insert(pos, c)
    return bounds


def _frozen(c: PeriodicCoefficient, t_mid: float):
    """c on the smooth piece around t_mid, one scalar ``piece_values`` call at
    a time: a piecewise-constant c takes its midpoint value everywhere on
    the step."""
    return lambda t: float(c.piece_values(t, t_mid))


def _rk4(rhs, t: float, x: float, h: float) -> float:
    k1 = rhs(t, x)
    k2 = rhs(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = rhs(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = rhs(t + h, x + h * k3)
    end = x + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    if math.isfinite(end):
        return end
    # the weighted sum overflowed: each stage scaled by its weight first
    return x + ((h / 6.0) * k1 + (h / 3.0) * k2 + (h / 3.0) * k3 + (h / 6.0) * k4)


def scalar_rk4(params: ModelParams, x0: float, periods: int, steps_per_unit: int) -> ScalarRun:
    """The RK4 oracle one step and one scalar coefficient call at a time.

    Same offset grid, stage times (in phase: ``params.phase`` plus the
    offset), operation order and failure messages as ``integrate``; slow
    (tens of microseconds per step), for tests only.
    """
    offsets = _scalar_offsets(steps_per_unit, params)
    rows = []
    x = float(x0)
    for k in range(periods):
        values = [x]
        for sa, sb in zip(offsets, offsets[1:]):
            step = sb - sa
            ta = params.phase + sa
            r_p = _frozen(params.pair.r, ta + 0.5 * step)
            k_p = _frozen(params.pair.K, ta + 0.5 * step)

            def rhs(t: float, y: float) -> float:
                return r_p(t) * (1.0 - y / k_p(t)) * y

            x = _rk4(rhs, ta, x, step)
            t = params.t0 + (k + sb)
            if not math.isfinite(x):
                raise IntegrationError(
                    f"state overflowed at t={t!r} (x={x!r}): "
                    "r(1 - x/K) x exceeds the float range for this x0 and K"
                )
            if x == 0.0 and values[-1] < sys.float_info.min:
                raise _underflow(t)
            if not x > 0.0:
                raise IntegrationError(
                    f"state became non-positive at t={t!r} (x={x!r}); "
                    "the step is too large for these coefficients"
                )
            values.append(x)
        rows.append(values)
        x = (1.0 - params.E) * x
        if x == 0.0:
            raise _underflow(params.t0 + (k + 1))
    return ScalarRun(offsets, rows, x)


def _underflow(t: float) -> IntegrationError:
    return IntegrationError(
        f"state underflowed to 0.0 by t={t!r}: it fell below the smallest "
        "positive float, not a step-size problem"
    )


def samples(traj) -> tuple[list[float], list[float]]:
    """Absolute times and values of an integrated path, post-impulse value
    only at each impulse instant (the pre value, each row's last sample, is
    skipped), the end included."""
    periods = len(traj.values)
    offsets = traj.offsets[:-1].tolist()
    times = [traj.params.t0 + k + s for k in range(periods) for s in offsets]
    values = traj.values[:, :-1].ravel().tolist()
    return [*times, traj.params.t0 + periods], [*values, traj.end]


_CSV_CELL = {
    float: repr,
    int: str,
    str: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "",
}


def reference_table(columns: list[str], rows, fmt: str) -> str:
    """A table of Python scalars, row by row, as CSV or JSON.

    CSV cells: floats in shortest round-trip form, booleans as true/false,
    None as an empty cell, strings verbatim.  JSON: json.dumps of
    {"columns": [...], "rows": [[...], ...]} with indent 2 and sorted keys.
    """
    if fmt == "json":
        table = {"columns": columns, "rows": list(rows)}
        return json.dumps(table, indent=2, sort_keys=True) + "\n"
    lines = [",".join(columns)]
    lines += [",".join([_CSV_CELL[type(v)](v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


def bisect_100(f, lo: float, hi: float) -> float:
    """Bisection for a root of f in [lo, hi], always 100 steps: the loop
    ``analysis._bisect`` must match, float for float, however early it stops."""
    flo = f(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0.0) == (fmid < 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
