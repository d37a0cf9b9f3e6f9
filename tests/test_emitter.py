"""The CLI's table and report emitters: their bytes against json and the
row-wise reference, and their cost."""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_table
from impulsive_logistic import cli
from impulsive_logistic.cli import _cells, _dump_json, _table, _time_cells, main
from impulsive_logistic.closed_form import ModelParams
from impulsive_logistic.coefficients import CoefficientPair, coefficient_from_dict
from impulsive_logistic.integrator import StepControl

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
    return _table(names, [_cells(column, fmt) for column in columns], fmt)


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
JUMP_GRID = sorted({*_grid(16), *((b - JUMP_T0 % 1.0) % 1.0 for b in PAIR.K.breakpoints_mod1())})
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
    expected = [repr(t0 + (k + s)) for k in periods for s in offsets]
    # at 0, every cell that can follow the cell one period earlier does so
    for least in (0, cli._MIN_FOLLOWERS):
        with mock.patch.object(cli, "_MIN_FOLLOWERS", least):
            assert _time_cells(ModelParams(PAIR, 0.25, t0), periods, offsets) == expected


def test_time_column_formats_each_offset_once_per_binade(monkeypatch):
    calls = [0]

    def counted(value):
        calls[0] += 1
        return float.__repr__(value)

    monkeypatch.setattr(cli, "_float_repr", counted)
    config = cli.load_config(CONFIG_DIR / "sinusoid_r.json")
    config = dataclasses.replace(config, horizon_periods=200, ctrl=StepControl(h=1.0 / 128))
    rows = len(cli.cmd_periodic(config, "csv")[0].splitlines()) - 1
    assert rows == 200 * 128
    binades = len({math.frexp(config.params.t0 + k)[1] for k in range(201)})
    assert calls[0] <= 128 * (binades + 1)
