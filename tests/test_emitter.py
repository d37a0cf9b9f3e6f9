"""The CLI's table and report emitters: their bytes against json and the
row-wise reference, and their cost."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_table
from impulsive_logistic import cli
from impulsive_logistic.analysis import trajectory_closed_form
from impulsive_logistic.cli import (
    _SEPARATORS,
    _cells,
    _dump_json,
    _row_pieces,
    _table,
    _time_cells,
    main,
)
from impulsive_logistic.closed_form import ModelParams, period_table, periodic_grid
from impulsive_logistic.coefficients import CoefficientPair, coefficient_from_dict
from impulsive_logistic.integrator import integrate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3,
         1e16, 1e-5, 1.0, -1e22]
    ),
)
TEXT = st.one_of(
    st.text(),
    st.sampled_from(['', 'pre', 'post', 'say "hi"', "back\\slash", "naïve ∑ 😀", "tab\tnew\nline"]),
)
SCALARS = {
    "float": FLOATS,
    "int": st.integers(),
    "bool": st.booleans(),
    "none": st.none(),
    "str": TEXT,
    # a column of several types, as sweep's (E, exists, x0_star, mean) rows have
    "mixed": st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), TEXT),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(SCALARS)), min_size=1, max_size=6))
    n_rows = draw(st.one_of(st.sampled_from([0, 1]), st.integers(0, 12)))
    columns = [
        draw(st.lists(SCALARS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds
    ]
    names = draw(st.lists(st.sampled_from(["t", "k", "x", "event", "E"]), min_size=len(kinds),
                          max_size=len(kinds)))
    return names, columns


MANY_ROWS = [
    [0.5 + i / 256 for i in range(2000)],
    [i // 256 for i in range(2000)],
    ["post" if i % 256 == 0 else "" for i in range(2000)],
]


def _emit(names, columns, fmt):
    return _table(names, _row_pieces([_cells(column, fmt) for column in columns], fmt), fmt)


@settings(max_examples=120, derandomize=True, deadline=None, database=None)
@given(tables(), st.sampled_from(["csv", "json"]))
@example((["t", "k", "event"], MANY_ROWS), "json")
@example((["t", "k", "event"], MANY_ROWS), "csv")
@example((["E"], [[]]), "json")
@example((["E"], [[]]), "csv")
@example((["t", "x"], [[0.5], [math.nan]]), "json")
@example((["E", "exists", "x0_star"], [[0.5, 0.9], [True, False], [12.5, None]]), "json")
def test_emitter_matches_the_reference(table, fmt):
    names, columns = table
    text = _emit(names, columns, fmt)
    assert text == reference_table(names, list(zip(*columns)), fmt)
    if fmt == "json":
        decoded = json.loads(text)
        assert decoded["columns"] == names
        # NaN != NaN, so compare through the same float spelling
        assert json.dumps(decoded["rows"]) == json.dumps([list(row) for row in zip(*columns)])


# reports: nested objects and arrays of the table scalars, keyed by strings
REPORTS = st.recursive(
    SCALARS["mixed"],
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(REPORTS)
@example({"checks": [{"passed": True, "records": []}], "x0_star": None})
@example({"b": {}, "a": [[], {}], "": -0.0, "é": [math.nan, math.inf, -math.inf]})
@example([0.1, [1, [2]], "tab\tnew\nline"])
def test_report_emitter_matches_json(report):
    assert _dump_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


# reports hold only dicts, lists and the table scalars: anything else, a
# subclass or a tuple that json.dumps would take among them, is refused at
# the top and nested in a report
@pytest.mark.parametrize(
    "value", [np.int64(1), np.bool_(True), {1: "a"}, {"a": object()}, np.float64(0.1)]
)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(row=st.lists(SCALARS["mixed"], max_size=3).map(tuple))
def test_report_emitter_refuses_what_it_does_not_encode(value, row):
    for refused in (value, row, {"checks": [value]}, {"checks": [row]}):
        with pytest.raises(TypeError):
            _dump_json(refused)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", str(CONFIG_DIR / "sinusoid_r.json")],
        ["periodic", "--config", str(CONFIG_DIR / "piecewise_mixed.json")],
        ["sweep", "--config", str(CONFIG_DIR / "sinusoid_r.json")],
        ["constants", "--config", str(CONFIG_DIR / "sinusoid_r.json")],
        ["verify", "--config", str(CONFIG_DIR / "piecewise_mixed.json")],
        ["counterexample", "--config", str(CONFIG_DIR / "golden_constant.json")],
    ],
    ids=lambda argv: argv[0],
)
def test_json_tables_skip_the_pure_python_encoder(monkeypatch, capsys, argv):
    # json.dumps with an indent runs json/encoder.py's _make_iterencode for
    # every value; the table and report emitters write the same layout
    # without it
    def refuse(*args, **kwargs):
        raise AssertionError("a JSON output went through json's pure-Python encoder")

    monkeypatch.setattr("json.encoder._make_iterencode", refuse)
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)


# ---------------------------------------------------------------------------
# the time column: t0 + (k + s), each offset's digits formatted once per binade
# ---------------------------------------------------------------------------

PAIR = CoefficientPair(
    r=coefficient_from_dict({"kind": "constant", "value": 0.6931471805599453}),
    K=coefficient_from_dict(
        {"kind": "piecewise", "breakpoints": [0.0, 0.3, 0.71, 1.0], "values": [80.0, 120.0, 100.0]}
    ),
)


def _grid(n: int) -> list[float]:
    """A period's step grid at n steps per unit, both ends included, as simulate's."""
    return [j / n for j in range(n)] + [1.0]


JUMP_T0 = 1.37
# the grid of a run at t0 = 1.37 and 16 steps per unit, with the jumps of
# PAIR's K, which fall off the grid, inserted
JUMP_GRID = sorted({*_grid(16), *((b - JUMP_T0 % 1.0) % 1.0 for b in PAIR.K.breakpoints[:-1])})
SHORT_DECIMALS = st.tuples(st.integers(1, 10**8), st.integers(0, 6)).map(
    lambda p: p[0] / 10 ** p[1]
)
T0S = st.one_of(
    st.floats(1e-6, 2.0**53),
    st.floats(math.log(1e-6), math.log(2.0**53)).map(math.exp),
    SHORT_DECIMALS,
)
# steps per unit: powers of two, whose offsets add exactly to any k, and others
STEPS = st.one_of(st.integers(0, 8).map(lambda m: 2**m), st.integers(1, 120))
GRIDS = st.tuples(STEPS, st.lists(st.floats(0.0, 1.0), max_size=3)).map(
    lambda p: sorted({*_grid(p[0]), *p[1]})
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(t0=T0S, first=st.one_of(st.just(0), st.integers(0, 10**6)), count=st.integers(1, 40),
       offsets=GRIDS)
@example(t0=0.05, first=0, count=40, offsets=_grid(8))  # the first periods lie below 1
@example(t0=2.0**52 - 100.5, first=0, count=200, offsets=_grid(8))  # crosses 2**52
@example(t0=2.0**53, first=0, count=20, offsets=_grid(4))
@example(t0=1e17 + 64, first=0, count=20, offsets=_grid(4))
@example(t0=0.5, first=0, count=200, offsets=_grid(128))
@example(t0=0.1, first=0, count=40, offsets=_grid(16))
@example(t0=3.7, first=0, count=40, offsets=_grid(7))
@example(t0=3.7, first=0, count=40, offsets=_grid(100))
@example(t0=JUMP_T0, first=0, count=40, offsets=JUMP_GRID)
@example(t0=3.25, first=0, count=40, offsets=[0.0, 1e-17, 0.5, 1.0 - 2.0**-53, 1.0])
@example(t0=12.75, first=10**6, count=30, offsets=_grid(32))
def test_time_cells_are_repr(t0, first, count, offsets):
    periods = range(first, first + count)
    for fmt in ("csv", "json"):
        sep = _SEPARATORS[fmt][0]
        heads, tails = _time_cells(ModelParams(PAIR, 0.25, t0), periods, offsets, sep)
        assert len(heads) == len(tails) == count * len(offsets)
        expected = [repr(t0 + (k + s)) + sep for k in periods for s in offsets]
        assert list(map(str.__add__, heads, tails)) == expected
        # a cell is either its own text and the separator, or an integer
        # part and the "." + fraction + separator of a cell above it
        for head, tail in zip(heads, tails):
            assert tail == sep or (head.isdigit() and tail[0] == "." and tail.endswith(sep))


def test_time_column_formats_each_offset_once_per_binade(monkeypatch):
    calls = [0]

    def counted(value):
        calls[0] += 1
        return float.__repr__(value)

    monkeypatch.setattr(cli, "_float_repr", counted)
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    config = dataclasses.replace(config, horizon_periods=200, steps_per_unit=128)
    rows = len(cli.cmd_periodic(config, "csv")[0].splitlines()) - 1
    assert rows == 200 * 128
    binades = len({math.frexp(config.params.t0 + k)[1] for k in range(201)})
    assert calls[0] <= 128 * (binades + 1)


# ---------------------------------------------------------------------------
# whole tiled tables against the row-by-row reference
# ---------------------------------------------------------------------------

# t0 below 1, just below a power of two (the horizon crosses a binade edge),
# just below 2**52 and past 1e16, where repr leaves fixed notation
TABLE_T0S = st.one_of(
    st.floats(1e-3, 1.0, exclude_max=True),
    st.tuples(st.integers(1, 51), st.floats(0.0, 6.0)).map(lambda p: 2.0 ** p[0] - p[1]),
    st.floats(0.0, 8.0).map(lambda d: 2.0**52 - d),
    st.floats(1e16, 1e18),
).filter(lambda t0: t0 > 0.0)
# K with jumps whose offsets from the phase fall off the step grid
TABLE_K = {
    "kind": "piecewise", "breakpoints": [0.0, 0.3, 0.71, 1.0], "values": [80.0, 120.0, 100.0]
}


def _tiled_config(t0, periods, n):
    data = {"r": {"kind": "constant", "value": 0.7}, "K": TABLE_K, "E": 0.25, "t0": t0}
    config = cli.parse_config(data)
    return dataclasses.replace(config, horizon_periods=periods, steps_per_unit=n)


def _reference_periodic(config):
    params, n = config.params, config.steps_per_unit
    offsets = (np.arange(n) / n).tolist()
    orbit = periodic_grid(config.constants(), period_table(params, offsets)).tolist()
    return [
        (params.t0 + (k + s), k, s, x)
        for k in range(config.horizon_periods)
        for s, x in zip(offsets, orbit)
    ]


def _reference_simulate(config):
    params = config.params
    consts = config.constants()
    traj = integrate(params, consts.x0_star, config.horizon_periods, config.steps_per_unit)
    closed = trajectory_closed_form(traj, consts)[0]
    samples = [
        (k, s, x, c, "pre" if j == len(traj.offsets) - 1 else "post" if j == 0 < k else "")
        for k, (row, closed_row) in enumerate(
            zip(traj.values.tolist(), closed[:-1].reshape(traj.values.shape).tolist())
        )
        for j, (s, x, c) in enumerate(zip(traj.offsets.tolist(), row, closed_row))
    ]
    samples.append((len(traj.values), 0.0, traj.end, float(closed[-1]), "post"))
    return [
        (params.t0 + (k + s), k, x, c, float(abs(np.float64(x) - c) / c), event)
        for k, s, x, c, event in samples
    ]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(t0=TABLE_T0S, periods=st.integers(1, 6), n=st.sampled_from([1, 2, 3, 8, 10, 16]),
       fmt=st.sampled_from(["csv", "json"]))
# crosses 1, 2 and 4: 2 + 1/3 prints as 2.3333333333333335 and 4 + 1/3 as
# 4.333333333333333, so the cells below each take their own binade's fraction
@example(t0=1.0 / 3.0, periods=6, n=8, fmt="csv")
@example(t0=1.0 / 3.0, periods=6, n=8, fmt="json")
@example(t0=0.05, periods=3, n=16, fmt="csv")
@example(t0=2.0**52 - 2.3, periods=5, n=4, fmt="json")
@example(t0=1e17 + 64, periods=3, n=2, fmt="csv")
def test_tiled_tables_match_the_row_by_row_reference(t0, periods, n, fmt):
    config = _tiled_config(t0, periods, n)
    text, code = cli.cmd_periodic(config, fmt)
    assert code == 0
    columns = ["t", "period", "offset", "x_star"]
    assert text == reference_table(columns, _reference_periodic(config), fmt)
    text, code = cli.cmd_simulate(config, fmt)
    assert code == 0
    columns = ["t", "k", "x_numeric", "x_closed_form", "rel_diff", "event"]
    assert text == reference_table(columns, _reference_simulate(config), fmt)
