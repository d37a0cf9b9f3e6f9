"""The CLI's table and report emitters: their bytes against json and the
row-wise reference, and their cost."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import reference_table
from impulsive_logistic.cli import _cells, _dump_json, _table, main

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
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(REPORTS)
@example({"checks": [{"passed": True, "records": []}], "x0_star": None})
@example({"b": {}, "a": [[], {}], "": -0.0, "é": [math.nan, math.inf, -math.inf]})
@example([np.float64(0.1), (1, (2,)), "tab\tnew\nline"])
def test_report_emitter_matches_json(report):
    assert _dump_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [np.int64(1), np.bool_(True), {1: "a"}, {"a": object()}])
def test_report_emitter_refuses_what_it_does_not_encode(value):
    with pytest.raises(TypeError):
        _dump_json(value)


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
