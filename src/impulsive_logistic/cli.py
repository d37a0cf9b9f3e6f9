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
whose integral over one period overflows A = exp(integral of r), a
forcing integral B that overflows a float (K too small) or underflows
below the smallest normal float (r/K too small), an orbit anchor d / B
that underflows to 0.0, and a ``simulate``, ``verify`` or ``periodic``
run of more than 2**20 samples (steps per unit times horizon periods,
after the flags).  That check of B reads its bracket first, so reading a
scenario loads no numpy, nor does ``constants`` where K is constant on
pieces; every other command loads it on its first array operation.

A plain command line (a command, then ``--name value`` pairs) is read
without loading argparse; see ``_plain_args``.  Every other line, help and
usage errors among them, is parsed by argparse.  Each flag overrides one
field of the scenario, and every command is ``cmd_*(config, fmt) -> (text,
exit code)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

from ._lazy import np
from .analysis import (
    DEFAULT_FIXED_POINT_TOL,
    DEFAULT_IMPULSE_TOL,
    DEFAULT_ORACLE_TOL,
    DEFAULT_PERIODICITY_TOL,
    compare_solutions,
    fixed_point_scan,
    trajectory_closed_form,
    verify_impulse_condition,
    verify_periodicity,
)
from .closed_form import (
    AnchorUnderflowError,
    ModelParams,
    NoPeriodicSolutionError,
    SolutionConstants,
    derive_constants,
    period_table,
    periodic_grid,
    periodic_orbit_mean,
)
from .coefficients import (
    CoefficientPair,
    PeriodicCoefficient,
    coefficient_from_dict,
    compute_B,
)
from .integrator import DEFAULT_STEPS_PER_UNIT, IntegrationError, integrate

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


@dataclass(frozen=True)
class ScenarioConfig:
    """A validated scenario: the model, the RK4 steps per unit and what the commands read."""

    params: ModelParams
    steps_per_unit: int
    x0: float | None
    horizon_periods: int
    tolerances: Tolerances
    e_values: tuple[float, ...] | None

    def constants(self, E: float | None = None) -> SolutionConstants:
        """Constants at E (default: the config's)."""
        params = self.params if E is None else dataclasses.replace(self.params, E=E)
        return derive_constants(params)

    def resolved_x0(self, consts: SolutionConstants) -> float:
        """Configured x0, else the orbit anchor in consts, else the mean of K."""
        if self.x0 is not None:
            return self.x0
        if consts.x0_star is not None:
            return consts.x0_star
        return self.params.pair.K.mean


def _require_number(
    value, where: str, *, positive: bool = False, unit_interval: bool = False
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer literal past the float range
        v = math.inf
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


def _require_step(value, where: str) -> int:
    """The number n of RK4 steps per unit that a step h makes: h must divide
    the unit interval into n steps, within 1e-9, so that impulse instants
    are step boundaries; the step that runs is 1/n."""
    h = _require_number(value, where, positive=True)
    if not math.isfinite(1.0 / h):
        raise ConfigError(f"{where}: step h={h!r} is too small: 1/h overflows the float range")
    n = round(1.0 / h)
    if n < 1 or abs(n * h - 1.0) > 1e-9:
        raise ConfigError(
            f"{where}: step h={h!r} must divide the unit interval into a whole number of steps"
        )
    return n


def _parse_coefficient(data, where: str) -> PeriodicCoefficient:
    try:
        return coefficient_from_dict(data)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# A = exp(growth integral of r over one period) overflows a float past this,
# and `constants` prints A.  Where K is a sinusoid, B is a quadrature whose
# panels grow with the growth integral G past 256 (``forcing_panels``), which
# keeps it within 1e-13 up to this cap; where K is constant on pieces, B is
# a sum of exponentials, exact at any G.
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
    growth = r.mean
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
        if x0 < sys.float_info.min:
            raise ConfigError(
                f"{source}.x0: x0={x0!r} is below the smallest normal float "
                f"{sys.float_info.min!r}: it carries fewer than 53 significant bits"
            )
    horizon = _require_int(data.get("horizon_periods", 10), f"{source}.horizon_periods")
    steps = _require_step(data.get("step", 1.0 / DEFAULT_STEPS_PER_UNIT), f"{source}.step")
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
    params = ModelParams(pair=CoefficientPair(r=r, K=big_k), E=e_hold, t0=t0)
    _require_forcing_scale(params, f"{source}.K")
    return ScenarioConfig(params, steps, x0, horizon, tolerances, e_values)


def _forcing_in_range(pair: CoefficientPair) -> bool:
    """Whether B is surely a normal float, from its bracket alone.

    B is the integral of (1/K) d(exp(R - G)), so E*/max K <= B <= E*/min K,
    and E* <= G <= max r: max r / min K bounds B and every r/K that a
    quadrature of B reads.  A sinusoid K's quadrature can read as little as
    0.00225 of B (all of G = 709.78 on one panel), hence the floor's margin.
    """
    # the least and the greatest value of each are among these, exactly
    k_values, r_values = (
        (c.mean - abs(c.amp), c.mean + abs(c.amp)) if c.kind == "sinusoid" else c.pieces(0.0)[1]
        for c in (pair.K, pair.r)
    )
    floor, ceiling = 2048.0 * sys.float_info.min, sys.float_info.max / 4.0
    least = -math.expm1(-pair.r.mean) / max(k_values)
    return least >= floor and max(r_values) / min(k_values) <= ceiling


def _require_forcing_scale(params: ModelParams, where: str) -> None:
    """B, the denominator of the orbit anchor x0_star = d / B, must be a
    normal float, as a given x0 must: a subnormal B carries fewer than 53
    significant bits, and the anchor would inherit the loss.

    B is formed here only where its bracket (``_forcing_in_range``) cannot tell.
    """
    if _forcing_in_range(params.pair):
        return
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        forcing = compute_B(params.pair, params.phase)
    if not math.isfinite(forcing):
        raise ConfigError(
            f"{where}: the forcing integral B of r/K overflows the float range "
            "(K is too small for r)"
        )
    if forcing == 0.0:
        raise ConfigError(f"{where}: the forcing integral B of r/K underflows to 0.0")
    if forcing < sys.float_info.min:
        raise ConfigError(
            f"{where}: the forcing integral B of r/K is {forcing!r}, below the smallest "
            f"normal float {sys.float_info.min!r}: it carries fewer than 53 significant bits"
        )


def load_config(path: Path | str) -> ScenarioConfig:
    """Read and validate a scenario file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    try:
        # decoded here, not by json.loads, which would accept a byte order mark
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past Python's digit limit, or nesting past the
        # recursion limit
        raise ConfigError(f"{path}: unreadable JSON: {exc}") from exc
    return parse_config(data, source=str(path))


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


# how one Python scalar reads as a table cell, per format and exact type
_CSV_CELL = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "",
}
_JSON_CELL = {**_CSV_CELL, str: encode_basestring_ascii, type(None): lambda _: "null"}
# json.dumps spells the non-finite floats as JavaScript does
_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _cells(values, fmt: str) -> list[str]:
    """One table column of Python scalars as CSV or JSON text cells.

    Floats in shortest round-trip form (JSON: NaN/Infinity/-Infinity for the
    non-finite ones), booleans as true/false, None as an empty cell (JSON:
    null), strings verbatim (JSON: quoted and escaped as json.dumps does).
    A column of one type is formatted in one C-level pass.
    """
    spell = _JSON_CELL if fmt == "json" else _CSV_CELL
    kinds = set(map(type, values))
    if len(kinds) == 1:
        cells = list(map(spell[kinds.pop()], values))
    else:  # mixed types, as sweep's orbit columns: cell by cell
        cells = [spell[type(v)](v) for v in values]
    if fmt == "json":
        cells = list(map(_JSON_NON_FINITE.get, cells, cells))
    return cells


# per format: the text after each cell of a row but its last, and after each
# row; the two JSON strings open the next cell and the next row
_SEPARATORS = {"csv": (",", "\n"), "json": (",\n      ", "\n    ],\n    [\n      ")}

# the shortest round-trip formatter of the time column: cells it does not
# derive from the cell one period earlier are formatted by this name
_float_repr = float.__repr__


def _time_cells(params: ModelParams, periods, offsets, sep: str) -> tuple[list[str], list[str]]:
    """The cells of t = t0 + (k + s) for consecutive period indices k and
    offsets s in [0, 1], period by period, each as two pieces: ``heads[i] +
    tails[i]`` is ``repr(params.time(k, s)) + sep``, byte for byte.

    Cell (k, s) follows the cell one period earlier, and reads
    str(W + 1) + "." + F where repr of cell (k - 1, s) is "W.F", when both
    (k - 1) + s and k + s are exact (tested as (k + s) - k == s: exact by
    Sterbenz for k >= 1, and 0 + s always is) and both times have the same
    ``frexp`` exponent e with e <= 52: one binade below 2**52, which for two
    times 1 apart also means e >= 1.  So each cell of a run below a fresh
    cell (one that does not follow) takes that cell's fractional digits
    after its own integer part.  Why the rule holds:

    - The two times are correctly rounded, in one binade, from reals
      exactly 1 apart.  One ulp is at most 1/2, so 1 is an even number of
      ulps, ties round alike, and t_k = t_(k-1) + 1 exactly.
    - The round-half-even interval of t_k is that of t_(k-1) shifted by 1,
      and the mantissa parity is the same, so the rule for its ends is too.
    - A whole shift maps the decimals with F's count of fractional digits
      onto themselves, keeping their distances and last digits, so the
      shortest-then-nearest choice (Steele & White 1990; Gay 1990) shifts
      with it.  At a power of two the interval is asymmetric, but there t
      is an integer, which prints as "N.0" on both sides.
    - Inside [1, 2**52) repr always uses fixed notation.

    A follower's head is its integer part W + 1 = floor(t), one string per
    integer, and its tail the "." + F + sep of the fresh cell above it, one
    string per offset per binade.  A fresh cell's head is its
    ``_float_repr`` and its tail ``sep``; only fresh cells take work of
    their own.  No cell is cached past the call.
    """
    k = np.asarray(periods, dtype=float)[:, None]
    s = np.asarray(offsets, dtype=float)
    t = params.time(k, s)
    if len(t) == 1:  # a table of one period has no followers
        return list(map(_float_repr, t[0].tolist())), [sep] * s.size
    eligible = ((k + s) - k == s) & (t < 2.0**52)
    exponent = np.frexp(t)[1]
    follows = np.zeros(t.shape, dtype=bool)
    follows[1:] = eligible[1:] & eligible[:-1] & (exponent[1:] == exponent[:-1])
    width = s.size
    t, follows = t.ravel(), follows.ravel()
    fresh = np.flatnonzero(~follows)
    texts = list(map(_float_repr, t[fresh].tolist()))
    # a fresh cell with a follower below it sets its offset's fraction from
    # its row on
    leads = np.flatnonzero(follows[width:] & ~follows[:-width])
    tails: list[str] = []
    fractions = [sep] * width
    done = 0  # rows whose tails are laid
    rows, columns = np.divmod(leads, width)
    for row, column, at in zip(
        rows.tolist(), columns.tolist(), np.searchsorted(fresh, leads).tolist()
    ):
        if row >= done:
            tails += fractions * (row + 1 - done)
            done = row + 1
        fractions[column] = "." + texts[at].partition(".")[2] + sep
    tails += fractions * (t.size // width - done)
    # runs of fresh cells, and runs of followers with one integer part; t
    # never falls from one cell to the next, so the runs of an integer are
    # consecutive but for fresh cells between them
    run = np.where(follows, np.floor(t), -1.0)
    starts = np.flatnonzero(np.concatenate(([True], run[1:] != run[:-1])))
    bounds = [*starts.tolist(), t.size]
    heads: list[str] = []
    used = 0  # fresh cells laid
    whole = None
    for value, lo, hi in zip(run[starts].tolist(), bounds, bounds[1:]):
        if value < 0.0:  # fresh cells: their own texts, then the separator
            heads += texts[used : used + hi - lo]
            tails[lo:hi] = [sep] * (hi - lo)
            used += hi - lo
            continue
        if value != whole:
            whole, text = value, f"{value:.0f}"
        heads += [text] * (hi - lo)
    return heads, tails


def _per_period(pieces: list[str], at: int, stride: int, width: int, cells: list[str]) -> None:
    """Piece ``at`` of each of the ``width`` rows of period k, a row being
    ``stride`` pieces, is ``cells[k]``: each cell made once, placed by
    repetition."""
    span = stride * width
    for k, cell in enumerate(cells):
        pieces[k * span + at : (k + 1) * span : stride] = [cell] * width


def _row_pieces(cells: list[list[str]], fmt: str) -> list[str]:
    """Columns of cells (see ``_cells``), all of one length, as the pieces
    of ``_table``'s rows."""
    sep, end = _SEPARATORS[fmt]
    rows, stride = len(cells[0]), 2 * len(cells)
    pieces = [sep] * (stride * rows)
    for i, column in enumerate(cells):
        pieces[2 * i :: stride] = column
    pieces[stride - 1 :: stride] = [end] * rows
    return pieces


def _table(columns: list[str], pieces: list[str], fmt: str) -> str:
    """A CSV or JSON table from the text of its rows, joined once.

    ``pieces`` runs row by row: each cell is followed by the format's cell
    separator and each row by its row end (``_SEPARATORS``).  The first and
    last pieces are rewritten in place to open and close the table.  JSON
    is {"columns": [...], "rows": [[...], ...]}, laid out byte for byte as
    json.dumps(..., indent=2, sort_keys=True) lays it out; json.dumps itself
    would run its pure-Python encoder over every cell, as it does whenever
    an indent is set.
    """
    if fmt == "json":
        names = ",\n    ".join(map(encode_basestring_ascii, columns))
        head = f'{{\n  "columns": [\n    {names}\n  ],\n  "rows": '
        if not pieces:
            return head + "[]\n}\n"
        head, foot = head + "[\n    [\n      ", "\n    ]\n  ]\n}\n"
    else:
        head, foot = ",".join(columns) + "\n", "\n"
        if not pieces:
            return head
    pieces[0] = head + pieces[0]
    pieces[-1] = pieces[-1][: -len(_SEPARATORS[fmt][1])] + foot
    return "".join(pieces)


def _json(value, pad: str) -> str:
    """``value`` as json.dumps(value, indent=2, sort_keys=True) writes it,
    nested at ``pad`` (a newline and the enclosing indent).

    Encodes exactly the types reports hold: dict, list and the scalars of
    ``_JSON_CELL``.  Any other type, a subclass among them, is a TypeError.
    """
    kind = type(value)
    if kind is dict or kind is list:
        if not value:
            return "{}" if kind is dict else "[]"
        inner = pad + "  "
        if kind is list:
            return f"[{inner}{(',' + inner).join([_json(v, inner) for v in value])}{pad}]"
        items = []
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_json(item, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{pad}}}"
    spell = _JSON_CELL.get(kind)
    if spell is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    text = spell(value)
    return _JSON_NON_FINITE.get(text, text)


def _dump_json(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, byte for byte,
    without json's pure-Python encoder, which any indent sets off.

    Keys must be strings, as every report's are.
    """
    return _json(obj, "\n") + "\n"


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def cmd_constants(config: ScenarioConfig, fmt: str) -> tuple[str, int]:
    """Derived constants: A, B, (1-E)A, the orbit anchor, and E_critical."""
    consts = config.constants()
    if fmt == "json":
        report = {
            "A": consts.A,
            "B": consts.B,
            "growth_factor": consts.q,
            "x0_star": consts.x0_star,
            "critical_harvest": consts.e_star,
        }
        return _dump_json(report), 0
    anchor = consts.x0_star if consts.x0_star is not None else "none: (1-E)A <= 1"
    lines = [
        f"A            {consts.A!r}",
        f"B            {consts.B!r}",
        f"(1-E)A       {consts.q!r}",
        f"x0_star      {anchor}",
        f"E_critical   {consts.e_star!r}",
    ]
    return "\n".join(lines) + "\n", 0


def cmd_simulate(config: ScenarioConfig, fmt: str) -> tuple[str, int]:
    """Numeric trajectory next to the closed form, with paired impulse rows."""
    params = config.params
    consts = config.constants()
    traj = integrate(
        params, config.resolved_x0(consts), config.horizon_periods, config.steps_per_unit
    )
    periods, width = traj.values.shape
    numeric = np.append(traj.values, traj.end)
    closed, rel_diff = trajectory_closed_form(traj, consts)
    sep, end = _SEPARATORS[fmt]
    heads, tails = _time_cells(params, range(periods), traj.offsets, sep)
    end_head, end_tail = _time_cells(params, [periods], traj.offsets[:1], sep)
    k = [cell + sep for cell in _cells(list(range(periods + 1)), fmt)]
    # each row opens after an impulse and closes before one; the end follows one
    names = ["", "post", "pre"]
    events = {e: sep + cell + end for e, cell in zip(names, _cells(names, fmt))}
    # a row: t (two pieces), k, then x_numeric, x_closed_form, rel_diff and
    # event, their separators between them
    pieces = [sep] * (9 * numeric.size)
    pieces[0::9] = heads + end_head
    pieces[1::9] = tails + end_tail
    _per_period(pieces, 2, 9, width, k[:-1])
    pieces[-7] = k[-1]  # the end row's
    for at, column in zip((3, 5, 7), (numeric, closed, rel_diff)):
        pieces[at::9] = _cells(column.tolist(), fmt)
    pieces[8::9] = (
        [events["post"]] + [events[""]] * (width - 2) + [events["pre"]]
    ) * periods + [events["post"]]
    pieces[8] = events[""]
    columns = ["t", "k", "x_numeric", "x_closed_form", "rel_diff", "event"]
    return _table(columns, pieces, fmt), 0


def cmd_periodic(config: ScenarioConfig, fmt: str) -> tuple[str, int]:
    """The periodic orbit over one period, tiled across the horizon."""
    params = config.params
    n = config.steps_per_unit
    offsets = np.arange(n) / n
    orbit = periodic_grid(config.constants(), period_table(params, offsets)).tolist()
    periods = config.horizon_periods
    sep, end = _SEPARATORS[fmt]
    heads, tails = _time_cells(params, range(periods), offsets, sep)
    # a row: t (two pieces), period, then offset and x_star in one piece,
    # which one period's cells make for every period
    pieces = [sep] * (4 * n * periods)
    pieces[0::4] = heads
    pieces[1::4] = tails
    _per_period(pieces, 2, 4, n, [cell + sep for cell in _cells(list(range(periods)), fmt)])
    orbit_cells = zip(_cells(offsets.tolist(), fmt), _cells(orbit, fmt))
    pieces[3::4] = [f"{offset}{sep}{x}{end}" for offset, x in orbit_cells] * periods
    return _table(["t", "period", "offset", "x_star"], pieces, fmt), 0


def _verify_reports(config: ScenarioConfig) -> tuple[list, bool]:
    params = config.params
    tol = config.tolerances
    consts = config.constants()
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
    x0 = config.resolved_x0(consts)
    reports.append(
        compare_solutions(params, x0, horizon, config.steps_per_unit, tol=tol.oracle)
    )
    mean_capacity = params.pair.K.mean
    # the scan must reach below an anchor however small it is; a tenth of a
    # subnormal anchor can round to 0.0, so the smallest float bounds it
    x_min = 1e-3 * mean_capacity
    if consts.x0_star is not None:
        x_min = min(x_min, max(consts.x0_star / 10.0, math.ulp(0.0)))
    # ten times a K mean above about 1.8e307 overflows to inf
    x_max = min(10.0 * mean_capacity, sys.float_info.max)
    reports.append(fixed_point_scan(params, x_min, x_max, tol=tol.fixed_point))
    reports.sort(key=lambda rep: rep.check)
    return reports, consts.x0_star is not None


def cmd_verify(config: ScenarioConfig, fmt: str) -> tuple[str, int]:
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


def cmd_counterexample(config: ScenarioConfig, fmt: str) -> tuple[str, int]:
    """Contrast the corrected and legacy orbit formulas at the impulses.

    Exit status 0 when the data land exactly as expected: the corrected
    formula jumps by the harvested fraction while the legacy formula is
    continuous (and therefore violates the jump rule whenever E > 0).
    """
    params = config.params
    tol = config.tolerances
    ks = tuple(range(1, min(5, config.horizon_periods) + 1))
    table = period_table(params, [0.0, 1.0])  # both checks read offsets 0 and 1
    corrected = verify_impulse_condition("corrected", params, ks=ks, tol=tol.jump, table=table)
    legacy = verify_impulse_condition(
        "legacy", params, ks=ks, tol=tol.legacy_continuity, table=table
    )
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


def cmd_sweep(config: ScenarioConfig, fmt: str) -> tuple[str, int]:
    """Orbit existence, anchor, and per-period mean across ``config.e_values``.

    Rows keep their input order; fractions at or above the critical harvest
    produce empty orbit fields.  One mean table serves every fraction.
    """
    if config.e_values is None:
        raise ConfigError("sweep needs harvest fractions: pass --e-values or set e_values")
    constants = [config.constants(e_val) for e_val in config.e_values]
    orbits = [c for c in constants if c.x0_star is not None]
    means = iter(periodic_orbit_mean(config.params, orbits))
    rows = [
        (c.E, True, c.x0_star, next(means)) if c.x0_star is not None else (c.E, False, None, None)
        for c in constants
    ]
    cells = [_cells(column, fmt) for column in zip(*rows)]
    return _table(["E", "exists", "x0_star", "x_star_mean"], _row_pieces(cells, fmt), fmt), 0


# --------------------------------------------------------------------------
# argument parsing and dispatch
# --------------------------------------------------------------------------

# per command: its output formats (the first is its default), whether the
# sample budget holds it, and its help line
_COMMANDS = {
    "constants": (
        ("text", "json"), False, "print the derived constants and the critical harvest fraction"
    ),
    "simulate": (("csv", "json"), True, "CSV trajectory: RK4 oracle next to the closed form"),
    "periodic": (
        ("csv", "json"), True, "CSV of the periodic orbit over one period plus its tiling"
    ),
    "verify": (
        ("json", "text"), True, "run the verification suite (exit 0 only if all checks pass)"
    ),
    "counterexample": (
        ("json", "text"), False, "contrast corrected vs legacy orbit formulas at the impulses"
    ),
    "sweep": (
        ("csv", "json"), False, "scan harvest fractions: existence, anchor, per-period mean"
    ),
}


def _command_options(command: str) -> dict[str, dict]:
    """The options of ``command``: name -> keywords of ``add_argument``."""
    options = {
        "--config": {"required": True, "help": "scenario JSON file"},
        "--out": {"help": "output file (default: stdout)"},
        "--format": {
            "choices": ("csv", "json", "text"),
            "help": f"output format (default: {_COMMANDS[command][0][0]})",
        },
        "--tol": {"type": float, "help": "override every tolerance"},
        "--step": {"type": float, "help": "override the RK step h"},
        "--periods": {"type": int, "help": "override horizon_periods"},
    }
    if command == "sweep":
        options["--e-values"] = {
            "help": "comma-separated harvest fractions (overrides config e_values)"
        }
    return options


# the parser adds its options from this table, and _plain_args reads it
_OPTIONS = {command: _command_options(command) for command in _COMMANDS}


def _build_parser():
    """The implog argparse parser: six subcommands, each with its options from
    ``_OPTIONS``.  Only a line that is not plain loads argparse."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="implog",
        description=(
            "Period-1 logistic growth with proportional harvesting impulses: "
            "closed-form evaluation, numerical cross-checks, and reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in _OPTIONS.items():
        cmd = sub.add_parser(name, help=_COMMANDS[name][2])
        for option, keywords in options.items():
            cmd.add_argument(option, **keywords)
    return parser


def _plain_args(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse parses a plain command line to, else None.

    A plain line is a command followed by ``--name value`` pairs: each name
    one of the command's exact option names, at most once; each value
    non-empty, not starting with "-", converted by the option's type and
    within its choices; every required option present.  argparse reads
    such a line to the same attributes, so it need not be loaded for it.
    Any other line (help, usage errors, ``--opt=value``, abbreviations)
    returns None and is left to argparse.
    """
    options = _OPTIONS.get(argv[0]) if argv else None
    pairs = dict(zip(argv[1::2], argv[2::2]))
    if options is None or 2 * len(pairs) != len(argv) - 1:
        return None
    if any(keywords.get("required") and name not in pairs for name, keywords in options.items()):
        return None
    values = {}
    for name, text in pairs.items():
        keywords = options.get(name)
        if keywords is None or not text or text[0] == "-":
            return None
        try:
            values[name] = keywords.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in keywords and values[name] not in keywords["choices"]:
            return None
    dests = {name[2:].replace("-", "_"): values.get(name) for name in options}
    return SimpleNamespace(command=argv[0], **dests)


def _parse_e_values(text: str) -> tuple[float, ...]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
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


# samples (steps per unit x horizon periods) that a command the budget holds
# may compute; the RK4 path and the tables hold every sample in memory
_SAMPLE_BUDGET = 2**20


def _require_sample_budget(config: ScenarioConfig) -> None:
    n = config.steps_per_unit
    samples = n * config.horizon_periods
    if samples > _SAMPLE_BUDGET:
        raise ConfigError(
            f"{n} steps per unit x {config.horizon_periods} periods = {samples} samples "
            f"exceeds the budget of {_SAMPLE_BUDGET}"
        )


def _apply_overrides(config: ScenarioConfig, args) -> tuple[ScenarioConfig, str]:
    """``config`` with each flag of ``args`` in place of its field, and the
    output format.  Of several errors, the first of --step, --periods, --tol,
    --format, --e-values and the sample budget is raised."""
    formats, budgeted, _ = _COMMANDS[args.command]
    fields = {}
    if args.step is not None:
        fields["steps_per_unit"] = _require_step(args.step, "--step")
    if args.periods is not None:
        fields["horizon_periods"] = _require_int(args.periods, "--periods")
    if args.tol is not None:
        tol = _require_number(args.tol, "--tol", positive=True)
        fields["tolerances"] = Tolerances(**dict.fromkeys(_TOLERANCE_FIELDS, tol))
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise ConfigError(
            f"--format {fmt} not supported by '{args.command}' (choose from {'/'.join(formats)})"
        )
    if getattr(args, "e_values", None) is not None:  # sweep's flag only
        fields["e_values"] = _parse_e_values(args.e_values)
    if fields:  # a copy costs microseconds on every plain command line
        config = dataclasses.replace(config, **fields)
    if budgeted:
        _require_sample_budget(config)
    return config, fmt


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _build_parser().parse_args(argv)
    try:
        config, fmt = _apply_overrides(load_config(args.config), args)
        # looked up when called, so that a rebound cmd_* is the one that runs
        text, code = globals()[f"cmd_{args.command}"](config, fmt)
    except (ConfigError, AnchorUnderflowError) as exc:
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
