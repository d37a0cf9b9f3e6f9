"""Command-line front end: scenario configs in, CSV/JSON reports out.

A scenario is a single JSON object::

    {
      "r":  {"kind": "constant", "value": 0.6931471805599453},
      "K":  {"kind": "constant", "value": 100.0},
      "E":  0.25,
      "t0": 0.5,
      "x0": 50.0,
      "horizon_periods": 10,
      "step": 0.00390625,
      "tolerances": {"jump": 1e-6, "periodicity": 1e-8, "oracle": 1e-5,
                     "legacy_continuity": 1e-6, "fixed_point": 1e-6},
      "e_values": [0.0, 0.1, 0.25, 0.4, 0.5]
    }

``r``/``K`` accept kinds ``constant`` (value), ``sinusoid`` (mean, amp,
phase) and ``piecewise`` (breakpoints, values).  Only ``r``, ``K`` and ``E``
are required.  ``x0`` defaults to the periodic-orbit anchor when the orbit
exists, otherwise to the per-period mean of K.

Outputs are deterministic: identical configs produce byte-identical files
(floats are printed with shortest round-trip precision).

Exit status: 0 on success and for ``verify``/``counterexample`` when every
check lands as expected; 1 when a check fails or the requested orbit does
not exist; 2 for configuration or usage errors, including a growth rate
whose integral over one period overflows A = exp(integral of r).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    DEFAULT_FIXED_POINT_TOL,
    DEFAULT_IMPULSE_TOL,
    DEFAULT_ORACLE_TOL,
    DEFAULT_PERIODICITY_TOL,
    compare_solutions,
    critical_harvest,
    fixed_point_scan,
    trajectory_closed_form,
    verify_impulse_condition,
    verify_periodicity,
)
from .closed_form import (
    ModelParams,
    NoPeriodicSolutionError,
    derive_constants,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
)
from .coefficients import (
    CoefficientPair,
    PeriodicCoefficient,
    coefficient_from_dict,
)
from .integrator import IntegrationError, StepControl, integrate

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "Tolerances",
    "cmd_constants",
    "cmd_counterexample",
    "cmd_periodic",
    "cmd_simulate",
    "cmd_sweep",
    "cmd_verify",
    "load_config",
    "main",
    "parse_config",
]


class ConfigError(ValueError):
    """Scenario file is unusable; the message pinpoints the offending field."""


@dataclass(frozen=True)
class Tolerances:
    """Check tolerances; the defaults are the checks' own."""

    jump: float = DEFAULT_IMPULSE_TOL
    periodicity: float = DEFAULT_PERIODICITY_TOL
    oracle: float = DEFAULT_ORACLE_TOL
    legacy_continuity: float = DEFAULT_IMPULSE_TOL
    fixed_point: float = DEFAULT_FIXED_POINT_TOL

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class ScenarioConfig:
    r: PeriodicCoefficient
    K: PeriodicCoefficient
    E: float
    t0: float = 0.5
    x0: float | None = None
    horizon_periods: int = 10
    step: float = 1.0 / 256.0
    tolerances: Tolerances = Tolerances()
    e_values: tuple[float, ...] | None = None

    def params(self, E: float | None = None) -> ModelParams:
        return ModelParams(
            pair=CoefficientPair(r=self.r, K=self.K),
            E=self.E if E is None else E,
            t0=self.t0,
        )

    def step_control(self) -> StepControl:
        return StepControl(h=self.step)

    def resolved_x0(self) -> float:
        """Configured x0, else the orbit anchor, else the per-period mean of K."""
        if self.x0 is not None:
            return self.x0
        consts = derive_constants(self.params())
        if consts.x0_star is not None:
            return consts.x0_star
        return self.K.integral(0.0, 1.0)

    def to_dict(self) -> dict:
        out: dict = {
            "r": self.r.to_dict(),
            "K": self.K.to_dict(),
            "E": self.E,
            "t0": self.t0,
            "horizon_periods": self.horizon_periods,
            "step": self.step,
            "tolerances": self.tolerances.to_dict(),
        }
        if self.x0 is not None:
            out["x0"] = self.x0
        if self.e_values is not None:
            out["e_values"] = list(self.e_values)
        return out


def _require_number(
    value, where: str, *, positive: bool = False, unit_interval: bool = False
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{where}: must be finite, got {value!r}")
    if positive and not v > 0.0:
        raise ConfigError(f"{where}: must be positive, got {value!r}")
    if unit_interval and not (0.0 <= v < 1.0):
        raise ConfigError(f"{where}: must satisfy 0 <= value < 1, got {value!r}")
    return v


def _require_int(value, where: str, *, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}: must be >= {minimum}, got {value!r}")
    return value


def _require_step(value, where: str) -> float:
    step = _require_number(value, where, positive=True)
    try:
        StepControl(h=step)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return step


def _parse_coefficient(data, where: str) -> PeriodicCoefficient:
    try:
        return coefficient_from_dict(data)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# A = exp(growth integral of r over one period) overflows a float past this.
_MAX_GROWTH = math.log(sys.float_info.max)

_TOLERANCE_FIELDS = {f.name for f in dataclasses.fields(Tolerances)}
_TOP_FIELDS = {
    "r",
    "K",
    "E",
    "t0",
    "x0",
    "horizon_periods",
    "step",
    "tolerances",
    "e_values",
}


def _parse_tolerances(data, where: str) -> Tolerances:
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object, got {data!r}")
    unknown = set(data) - _TOLERANCE_FIELDS
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {sorted(unknown)}; "
            f"expected a subset of {sorted(_TOLERANCE_FIELDS)}"
        )
    kwargs = {
        name: _require_number(value, f"{where}.{name}", positive=True)
        for name, value in data.items()
    }
    return Tolerances(**kwargs)


def parse_config(data, source: str = "<config>") -> ScenarioConfig:
    """Build a ScenarioConfig from a decoded JSON object."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be an object")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"{source}: unknown field(s) {sorted(unknown)}")
    for required in ("r", "K", "E"):
        if required not in data:
            raise ConfigError(f"{source}: missing required field '{required}'")

    r = _parse_coefficient(data["r"], f"{source}.r")
    growth = r.integral(0.0, 1.0)
    if growth > _MAX_GROWTH:
        raise ConfigError(
            f"{source}.r: growth integral {growth!r} exceeds {_MAX_GROWTH:.2f} "
            "(A overflows a float)"
        )
    big_k = _parse_coefficient(data["K"], f"{source}.K")
    e_hold = _require_number(data["E"], f"{source}.E", unit_interval=True)
    t0 = _require_number(data.get("t0", 0.5), f"{source}.t0", positive=True)
    x0 = None
    if "x0" in data:
        x0 = _require_number(data["x0"], f"{source}.x0", positive=True)
    horizon = _require_int(data.get("horizon_periods", 10), f"{source}.horizon_periods")
    step = _require_step(data.get("step", 1.0 / 256.0), f"{source}.step")
    tolerances = Tolerances()
    if "tolerances" in data:
        tolerances = _parse_tolerances(data["tolerances"], f"{source}.tolerances")
    e_values = None
    if "e_values" in data:
        raw = data["e_values"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError(f"{source}.e_values: expected a non-empty array")
        e_values = tuple(
            _require_number(v, f"{source}.e_values[{i}]", unit_interval=True)
            for i, v in enumerate(raw)
        )
    return ScenarioConfig(
        r=r,
        K=big_k,
        E=e_hold,
        t0=t0,
        x0=x0,
        horizon_periods=horizon,
        step=step,
        tolerances=tolerances,
        e_values=e_values,
    )


def load_config(path: Path | str) -> ScenarioConfig:
    """Read and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    return parse_config(data, source=str(path))


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float."""
    return repr(float(value))


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


_CSV_CELL = {
    float: repr,
    int: str,
    str: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "",
}


def _table(columns: list[str], rows, fmt: str) -> str:
    """A table as CSV or JSON.

    CSV cells: floats in shortest round-trip form, booleans as true/false,
    None as an empty cell, strings verbatim (so callers may pass cells they
    formatted once).  JSON: {"columns": [...], "rows": [[...], ...]}.
    """
    if fmt == "json":
        return _dump_json({"columns": columns, "rows": list(rows)})
    lines = [",".join(columns)]
    lines += [",".join([_CSV_CELL.get(type(v), _fmt)(v) for v in row]) for row in rows]
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_constants(config: ScenarioConfig, fmt: str = "text") -> str:
    """Derived constants: A, B, (1-E)A, the orbit anchor, and E_critical."""
    consts = derive_constants(config.params())
    e_crit = critical_harvest(config.r)
    if fmt == "json":
        return _dump_json(
            {
                "A": consts.A,
                "B": consts.B,
                "growth_factor": consts.q,
                "x0_star": consts.x0_star,
                "critical_harvest": e_crit,
            }
        )
    anchor = _fmt(consts.x0_star) if consts.x0_star is not None else "none: (1-E)A <= 1"
    lines = [
        f"A            {_fmt(consts.A)}",
        f"B            {_fmt(consts.B)}",
        f"(1-E)A       {_fmt(consts.q)}",
        f"x0_star      {anchor}",
        f"E_critical   {_fmt(e_crit)}",
    ]
    return "\n".join(lines) + "\n"


def cmd_simulate(config: ScenarioConfig, fmt: str = "csv") -> str:
    """Numeric trajectory next to the closed form, with paired impulse rows."""
    params = config.params()
    traj = integrate(
        params, config.resolved_x0(), config.horizon_periods, config.step_control()
    )
    pieces = traj.pieces

    events: list[str] = []
    for i, piece in enumerate(pieces):
        marks = [""] * piece.offsets.size
        if i > 0:
            marks[0] = "post"
        if i < len(pieces) - 1:
            marks[-1] = "pre"
        events += marks
    numeric = np.concatenate([piece.values for piece in pieces])
    closed = np.concatenate(trajectory_closed_form(traj))
    rows = zip(
        np.concatenate([params.time(p.segment, p.offsets) for p in pieces]).tolist(),
        [piece.segment for piece in pieces for _ in piece.offsets],
        numeric.tolist(),
        closed.tolist(),
        (np.abs(numeric - closed) / closed).tolist(),
        events,
    )
    columns = ["t", "k", "x_numeric", "x_closed_form", "rel_diff", "event"]
    return _table(columns, rows, fmt)


def cmd_periodic(config: ScenarioConfig, fmt: str = "csv") -> str:
    """The periodic orbit over one period, tiled across the horizon."""
    params = config.params()
    n = config.step_control().steps_per_unit
    offsets = np.arange(n) / n
    orbit = periodic_grid(params, period_table(params, offsets)).tolist()
    cells = list(zip(offsets.tolist(), orbit))
    if fmt == "csv":  # format each offset's cells once; every period reuses them
        cells = [(_fmt(off), _fmt(val)) for off, val in cells]
    rows = (
        (t, p, *cell)
        for p in range(config.horizon_periods)
        for t, cell in zip(params.time(p, offsets).tolist(), cells)
    )
    return _table(["t", "period", "offset", "x_star"], rows, fmt)


def _verify_reports(config: ScenarioConfig) -> tuple[list, bool]:
    params = config.params()
    tol = config.tolerances
    consts = derive_constants(params)
    horizon = config.horizon_periods
    span = min(5, horizon)
    reports = []
    if consts.x0_star is not None:
        reports.append(
            verify_impulse_condition(
                "corrected", params, ks=tuple(range(1, span + 1)), tol=tol.jump
            )
        )
        reports.append(
            verify_periodicity(params, periods=span, tol=tol.periodicity)
        )
    reports.append(
        compare_solutions(
            params,
            config.resolved_x0(),
            horizon,
            config.step_control(),
            tol=tol.oracle,
        )
    )
    mean_capacity = config.K.integral(0.0, 1.0)
    reports.append(
        fixed_point_scan(
            params,
            1e-3 * mean_capacity,
            10.0 * mean_capacity,
            tol=tol.fixed_point,
        )
    )
    reports.sort(key=lambda rep: rep.check)
    return reports, consts.x0_star is not None


def cmd_verify(config: ScenarioConfig, fmt: str = "json") -> tuple[str, int]:
    """Run the verification suite; exit status 0 only if every check passes."""
    reports, has_orbit = _verify_reports(config)
    all_passed = all(rep.passed for rep in reports)
    if fmt == "text":
        body = "\n\n".join(rep.to_text() for rep in reports)
        verdict = "all checks passed" if all_passed else "SOME CHECKS FAILED"
        text = f"{body}\n\n{verdict}\n"
    else:
        text = _dump_json(
            {
                "all_passed": all_passed,
                "periodic_orbit": has_orbit,
                "checks": [rep.to_dict() for rep in reports],
            }
        )
    return text, 0 if all_passed else 1


def cmd_counterexample(config: ScenarioConfig, fmt: str = "json") -> tuple[str, int]:
    """Contrast the corrected and legacy orbit formulas at the impulses.

    Exit status 0 when the data land exactly as expected: the corrected
    formula jumps by the harvested fraction while the legacy formula is
    continuous (and therefore violates the jump rule whenever E > 0).
    """
    params = config.params()
    tol = config.tolerances
    ks = tuple(range(1, min(5, config.horizon_periods) + 1))
    corrected = verify_impulse_condition("corrected", params, ks=ks, tol=tol.jump)
    legacy = verify_impulse_condition("legacy", params, ks=ks, tol=tol.legacy_continuity)
    as_predicted = corrected.passed and legacy.passed
    if fmt == "text":
        verdict = (
            "legacy formula fails the jump rule as predicted"
            if as_predicted
            else "UNEXPECTED OUTCOME"
        )
        text = f"{corrected.to_text()}\n\n{legacy.to_text()}\n\n{verdict}\n"
    else:
        text = _dump_json(
            {
                "as_predicted": as_predicted,
                "corrected": corrected.to_dict(),
                "legacy": legacy.to_dict(),
            }
        )
    return text, 0 if as_predicted else 1


def cmd_sweep(
    config: ScenarioConfig, e_values: tuple[float, ...], fmt: str = "csv"
) -> str:
    """Orbit existence, anchor, and per-period mean across harvest fractions.

    Rows keep their input order; fractions at or above the critical harvest
    produce empty orbit fields.
    """
    rows = []
    for e_val in e_values:
        params = config.params(E=e_val)
        consts = derive_constants(params)
        if consts.x0_star is None:
            rows.append((e_val, False, None, None))
        else:
            rows.append((e_val, True, consts.x0_star, periodic_orbit_mean(params)))
    return _table(["E", "exists", "x0_star", "x_star_mean"], rows, fmt)


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

_FORMATS = {
    "constants": ("text", "json"),
    "simulate": ("csv", "json"),
    "periodic": ("csv", "json"),
    "verify": ("json", "text"),
    "counterexample": ("json", "text"),
    "sweep": ("csv", "json"),
}

_HELP = {
    "constants": "print the derived constants and the critical harvest fraction",
    "simulate": "CSV trajectory: RK4 oracle next to the closed form",
    "periodic": "CSV of the periodic orbit over one period plus its tiling",
    "verify": "run the verification suite (exit 0 only if all checks pass)",
    "counterexample": "contrast corrected vs legacy orbit formulas at the impulses",
    "sweep": "scan harvest fractions: existence, anchor, per-period mean",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implog",
        description=(
            "Period-1 logistic growth with proportional harvesting impulses: "
            "closed-form evaluation, numerical cross-checks, and reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _FORMATS:
        cmd = sub.add_parser(name, help=_HELP[name])
        cmd.add_argument("--config", required=True, help="scenario JSON file")
        cmd.add_argument("--out", default=None, help="output file (default: stdout)")
        cmd.add_argument(
            "--format",
            choices=("csv", "json", "text"),
            default=None,
            help=f"output format (default: {_FORMATS[name][0]})",
        )
        cmd.add_argument("--tol", type=float, default=None, help="override every tolerance")
        cmd.add_argument("--step", type=float, default=None, help="override the RK step h")
        cmd.add_argument(
            "--periods", type=int, default=None, help="override horizon_periods"
        )
        if name == "sweep":
            cmd.add_argument(
                "--e-values",
                default=None,
                help="comma-separated harvest fractions (overrides config e_values)",
            )
    return parser


def _apply_overrides(config: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    if args.step is not None:
        config = dataclasses.replace(config, step=_require_step(args.step, "--step"))
    if args.periods is not None:
        config = dataclasses.replace(
            config, horizon_periods=_require_int(args.periods, "--periods")
        )
    if args.tol is not None:
        tol = _require_number(args.tol, "--tol", positive=True)
        config = dataclasses.replace(
            config,
            tolerances=Tolerances(
                jump=tol,
                periodicity=tol,
                oracle=tol,
                legacy_continuity=tol,
                fixed_point=tol,
            ),
        )
    return config


def _sweep_values(config: ScenarioConfig, args: argparse.Namespace) -> tuple[float, ...]:
    if args.e_values is not None:
        tokens = [tok.strip() for tok in args.e_values.split(",") if tok.strip()]
        if not tokens:
            raise ConfigError("--e-values: expected a comma-separated list of numbers")
        values = []
        for tok in tokens:
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise ConfigError(f"--e-values: {tok!r} is not a number") from exc
        for v in values:
            if not (0.0 <= v < 1.0):
                raise ConfigError(f"--e-values: {v!r} outside [0, 1)")
        return tuple(values)
    if config.e_values is not None:
        return config.e_values
    raise ConfigError("sweep needs harvest fractions: pass --e-values or set e_values")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_overrides(load_config(args.config), args)
        fmt = args.format or _FORMATS[args.command][0]
        if fmt not in _FORMATS[args.command]:
            raise ConfigError(
                f"--format {fmt} not supported by '{args.command}' "
                f"(choose from {'/'.join(_FORMATS[args.command])})"
            )
        code = 0
        if args.command == "constants":
            text = cmd_constants(config, fmt)
        elif args.command == "simulate":
            text = cmd_simulate(config, fmt)
        elif args.command == "periodic":
            text = cmd_periodic(config, fmt)
        elif args.command == "verify":
            text, code = cmd_verify(config, fmt)
        elif args.command == "counterexample":
            text, code = cmd_counterexample(config, fmt)
        else:
            text = cmd_sweep(config, _sweep_values(config, args), fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NoPeriodicSolutionError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
