"""Scenario parsing, command output, exit codes, determinism."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impulsive_logistic.cli import (
    ConfigError,
    ScenarioConfig,
    Tolerances,
    cmd_constants,
    cmd_counterexample,
    cmd_periodic,
    cmd_simulate,
    cmd_sweep,
    cmd_verify,
    load_config,
    main,
    parse_config,
)
from impulsive_logistic import analysis, cli, closed_form
from impulsive_logistic.closed_form import derive_constants
from impulsive_logistic.coefficients import coefficient_from_dict, compute_B
from impulsive_logistic.integrator import StepControl

from helpers import corrupt_period_table, exact_B

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN = CONFIG_DIR / "golden_constant.json"
SINUSOID = CONFIG_DIR / "sinusoid_r.json"
PIECEWISE = CONFIG_DIR / "piecewise_mixed.json"
OVERHARVEST = CONFIG_DIR / "overharvest.json"

ALL_CONFIGS = (GOLDEN, SINUSOID, PIECEWISE, OVERHARVEST)


def _json_config(**overrides) -> dict:
    base = {
        "r": {"kind": "constant", "value": math.log(2.0)},
        "K": {"kind": "constant", "value": 100.0},
        "E": 0.25,
    }
    base.update(overrides)
    return base


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_bundled_configs_parse():
    for path in ALL_CONFIGS:
        config = load_config(path)
        assert isinstance(config, ScenarioConfig)


def test_defaults_applied():
    config = parse_config(_json_config())
    assert config.params.t0 == 0.5
    assert config.horizon_periods == 10
    assert config.ctrl == StepControl(h=1.0 / 256.0)
    assert config.tolerances == Tolerances()
    assert config.x0 is None and config.e_values is None


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("E"), "missing required field 'E'"),
        (lambda d: d.__setitem__("E", 1.0), ".E"),
        (lambda d: d.__setitem__("E", "lots"), ".E"),
        (lambda d: d.__setitem__("t0", 0.0), ".t0"),
        (lambda d: d.__setitem__("x0", -3.0), ".x0"),
        (lambda d: d.__setitem__("horizon_periods", 0), ".horizon_periods"),
        (lambda d: d.__setitem__("horizon_periods", 2.5), ".horizon_periods"),
        (lambda d: d.__setitem__("step", 0.3), ".step"),
        (lambda d: d.__setitem__("tolerances", {"jmp": 1e-6}), ".tolerances"),
        (lambda d: d.__setitem__("tolerances", {"jump": -1e-6}), ".tolerances.jump"),
        (lambda d: d.__setitem__("e_values", []), ".e_values"),
        (lambda d: d.__setitem__("e_values", [0.2, 1.5]), ".e_values[1]"),
        (lambda d: d.__setitem__("horizon", 5), "unknown field"),
        (lambda d: d.__setitem__("r", {"kind": "sinusoid", "mean": 0.2, "amp": 0.5}), ".r"),
        (lambda d: d.__setitem__("K", {"kind": "constant"}), ".K"),
        # coefficient fields are JSON numbers and arrays of numbers
        (
            lambda d: d.__setitem__("K", {"kind": "constant", "value": True}),
            ".K: constant value must be a number, got True",
        ),
        (
            lambda d: d.__setitem__("K", {"kind": "constant", "value": "100"}),
            ".K: constant value must be a number, got '100'",
        ),
        (
            lambda d: d.__setitem__("K", {"kind": "sinusoid", "mean": 100.0, "amp": True}),
            ".K: sinusoid amp must be a number, got True",
        ),
        (
            lambda d: d.__setitem__(
                "K", {"kind": "sinusoid", "mean": 100.0, "amp": 5.0, "phase": None}
            ),
            ".K: sinusoid phase must be a number, got None",
        ),
        (
            lambda d: d.__setitem__(
                "K", {"kind": "piecewise", "breakpoints": "01", "values": [5.0]}
            ),
            ".K: piecewise breakpoints must be an array of numbers, got '01'",
        ),
        (
            lambda d: d.__setitem__(
                "K", {"kind": "piecewise", "breakpoints": [0.0, 1.0], "values": "5"}
            ),
            ".K: piecewise values must be an array of numbers, got '5'",
        ),
        (
            lambda d: d.__setitem__(
                "K", {"kind": "piecewise", "breakpoints": [0.0, 1.0], "values": [False]}
            ),
            ".K: piecewise values must be an array of numbers, got [False]",
        ),
        # B, the forcing integral of r/K, must fit a float
        (
            lambda d: d.__setitem__("K", {"kind": "constant", "value": 1e-320}),
            ".K: the forcing integral B of r/K overflows the float range",
        ),
    ],
)
def test_field_precise_errors(mutate, fragment):
    data = _json_config()
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data, source="scn")
    assert fragment in str(err.value)


def test_growth_integral_past_float_range_is_a_config_error(tmp_path, capsys):
    # A = exp(710) does not fit a float: refuse the scenario, no traceback.
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(_json_config(r={"kind": "constant", "value": 710.0})))
    for argv in (["constants"], ["periodic"], ["sweep", "--e-values", "0.5"]):
        code = main([*argv, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "r: growth integral 710.0 exceeds 709.78 (A overflows a float)" in captured.err
    # just inside the float range the constants still come out
    cfg.write_text(json.dumps(_json_config(r={"kind": "constant", "value": 709.0})))
    assert main(["constants", "--config", str(cfg)]) == 0


@pytest.mark.parametrize(
    "overrides", [{"K": {"kind": "constant", "value": 1e-320}}], ids=["r/K overflows"]
)
def test_forcing_overflow_is_a_config_error(tmp_path, capsys, overrides):
    # an infinite B leaves no usable orbit anchor: refuse the scenario
    cfg = tmp_path / "tiny_k.json"
    cfg.write_text(json.dumps(_json_config(**overrides)), encoding="utf-8")
    for command in COMMANDS:
        argv = [command, "--config", str(cfg)]
        code = main(argv + ["--e-values", "0.5"] if command == "sweep" else argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"config error: {cfg}.K: ")
        assert captured.err.count("\n") == 1


def test_huge_growth_over_a_small_capacity_runs(tmp_path, capsys):
    # A B = 8.2e307 * 1000 overflows a float, but no formula forms A: the
    # anchor is d / B.  The step keeps h r = 0.17, inside RK4's stability
    # region, so the oracle can follow the orbit.
    cfg = tmp_path / "huge_growth.json"
    scenario = _json_config(
        r={"kind": "constant", "value": 709.0},
        K={"kind": "constant", "value": 1e-3},
        E=0.5,
        step=2.0**-12,
        horizon_periods=2,
    )
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    for command in COMMANDS:
        argv = [command, "--config", str(cfg)]
        code = main(argv + ["--e-values", "0.5"] if command == "sweep" else argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, ""), command
    consts = derive_constants(load_config(cfg).params)
    assert consts.x0_star == pytest.approx(5.000000000136e-4, rel=1e-12, abs=0.0)
    assert consts.x0_star == consts.d / consts.B


def test_subnormal_anchor_simulates_quietly(tmp_path, capsys):
    # E one ulp below E* = 1/2 puts the anchor d / B at 2.2e-309, below the
    # normal range: the closed form never inverts it.
    cfg = tmp_path / "subnormal.json"
    scenario = _json_config(K={"kind": "constant", "value": 1e-293}, E=0.4999999999999999)
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    code = main(["simulate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    rel_diff = [float(line.split(",")[4]) for line in captured.out.splitlines()[1:]]
    assert rel_diff and max(rel_diff) <= 1e-5


def test_verify_scans_below_a_small_anchor():
    # just below E* the anchor (0.0029) lies under 1e-3 times the mean of K;
    # the fixed-point scan must still reach it
    config = load_config(SINUSOID)
    config = dataclasses.replace(config, params=dataclasses.replace(config.params, E=0.5034))
    assert derive_constants(config.params).x0_star < 1e-3 * 100.0
    text, code = cmd_verify(config, "text")
    assert code == 0, text


def test_verify_reports_on_an_anchor_at_the_float_floor(tmp_path, capsys):
    # d / B rounds to the smallest subnormal, 5e-324: the scan's lower edge
    # must stay positive and verify must end in a report
    cfg = tmp_path / "floor.json"
    scenario = _json_config(K={"kind": "constant", "value": 2e-308}, E=0.4999999999999999)
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    assert derive_constants(load_config(cfg).params).x0_star == 5e-324
    code = main(["verify", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code in (0, 1) and captured.err == ""
    assert json.loads(captured.out)["periodic_orbit"] is True


def test_constants_threshold_is_correctly_rounded():
    # E* = -expm1(-0.7) = 0.50341469620859046..., which rounds to ...905
    text, _ = cmd_constants(load_config(SINUSOID), "text")
    assert "E_critical   0.5034146962085905\n" in text


def test_importing_the_cli_does_not_load_scipy():
    # scipy is no dependency, and the Gauss-Legendre rule is written out
    # rather than taken from numpy.polynomial; start-up must pay for neither.
    # Loading a config with jumps computes B, whose partition must not pay
    # for numpy.ma either (np.union1d imports it on its first call).  A
    # plain command line does not load argparse.
    import impulsive_logistic

    src = str(Path(impulsive_logistic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    unloaded = ("scipy", "numpy.polynomial", "numpy.ma", "argparse")
    probe = (
        "import sys\n"
        "from impulsive_logistic import cli\n"
        f"cli.load_config({str(PIECEWISE)!r})\n"
        f"code = cli.main(['constants', '--config', {str(PIECEWISE)!r}])\n"
        f"print(code, [m for m in {unloaded!r} if m in sys.modules], file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.startswith("A            ")
    assert result.stderr == "0 []\n"


def test_every_exported_name_resolves():
    import importlib

    for name in ("", ".analysis", ".cli", ".closed_form", ".coefficients", ".integrator"):
        module = importlib.import_module(f"impulsive_logistic{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], f"{module.__name__}.__all__ names missing {missing}"


def test_invalid_json_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "r": {,}\n}\n', encoding="utf-8")
    with pytest.raises(ConfigError, match=r"bad\.json:2:9"):
        load_config(bad)


def test_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


_GOLDEN_TEXT = json.dumps(_json_config())


@pytest.mark.parametrize(
    "raw, message",
    [
        pytest.param(
            _GOLDEN_TEXT.replace('"E"', '"E\xe9"').encode("latin-1"),
            "not UTF-8",
            id="latin-1",
        ),
        pytest.param(
            _GOLDEN_TEXT.replace("0.25", "0.25, \"x0\": " + "7" * 5000).encode(),
            "unreadable JSON: Exceeds the limit",
            id="integer-past-the-digit-limit",
        ),
        pytest.param(
            (_GOLDEN_TEXT[:-1] + ', "e_values": ' + "[" * 10**5 + "]" * 10**5 + "}").encode(),
            "unreadable JSON: maximum recursion depth",
            id="nesting-past-the-recursion-limit",
        ),
        pytest.param(
            b"\xef\xbb\xbf" + _GOLDEN_TEXT.encode(),
            ":1:1: invalid JSON: Unexpected UTF-8 BOM",
            id="byte-order-mark",
        ),
        pytest.param(
            _GOLDEN_TEXT.replace("100.0", "1" + "0" * 400).encode(),
            ".K: int too large to convert to float",
            id="coefficient-past-the-float-range",
        ),
        pytest.param(
            _GOLDEN_TEXT.replace("0.25", "0.25, \"x0\": 1" + "0" * 400).encode(),
            ".x0: must be finite",
            id="number-past-the-float-range",
        ),
    ],
)
def test_an_unreadable_file_is_a_config_error(tmp_path, capsys, raw, message):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(raw)
    assert main(["constants", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {cfg}") and captured.err.count("\n") == 1
    assert message in captured.err


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_constants_text_golden():
    text, _ = cmd_constants(load_config(GOLDEN), "text")
    assert "A            2.0" in text
    assert "B            0.005" in text
    assert "(1-E)A       1.5" in text
    assert "x0_star      50.0" in text
    assert "E_critical   0.5" in text


def test_constants_json_golden():
    data = json.loads(cmd_constants(load_config(GOLDEN), "json")[0])
    assert data == {
        "A": 2.0,
        "B": 0.005,
        "growth_factor": 1.5,
        "x0_star": 50.0,
        "critical_harvest": 0.5,
    }


def test_constants_reports_missing_orbit():
    text, _ = cmd_constants(load_config(OVERHARVEST), "text")
    assert "none: (1-E)A <= 1" in text
    data = json.loads(cmd_constants(load_config(OVERHARVEST), "json")[0])
    assert data["x0_star"] is None


def test_simulate_csv_structure():
    config = dataclasses.replace(load_config(GOLDEN), horizon_periods=2)
    text, code = cmd_simulate(config, "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "t,k,x_numeric,x_closed_form,rel_diff,event"
    pre_rows = [ln for ln in lines if ln.endswith(",pre")]
    post_rows = [ln for ln in lines if ln.endswith(",post")]
    assert len(pre_rows) == 2 and len(post_rows) == 2
    # pre/post rows land on the impulse instants with the jump applied
    pre = pre_rows[0].split(",")
    post = post_rows[0].split(",")
    assert pre[0] == post[0] == "1.5"
    assert float(post[2]) == pytest.approx(0.75 * float(pre[2]), rel=1e-12)
    # closed form and oracle agree everywhere
    worst = max(float(ln.split(",")[4]) for ln in lines[1:])
    assert worst < 1e-10
    # segment indices count the interval, not the row number
    assert {int(ln.split(",")[1]) for ln in lines[1:]} == {0, 1, 2}


def test_periodic_csv_tiles_exactly():
    text, code = cmd_periodic(load_config(GOLDEN), "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "t,period,offset,x_star"
    n = 256
    body = lines[1:]
    assert len(body) == 10 * n
    first = body[0].split(",")
    assert first[0] == "0.5" and first[3] == "50.0"
    # tiling repeats the per-period values byte for byte
    col0 = [ln.split(",")[3] for ln in body[:n]]
    for p in range(1, 10):
        assert [ln.split(",")[3] for ln in body[p * n : (p + 1) * n]] == col0


def test_verify_bundle_golden():
    text, code = cmd_verify(load_config(GOLDEN), "json")
    assert code == 0
    bundle = json.loads(text)
    assert bundle["all_passed"] is True
    assert bundle["periodic_orbit"] is True
    names = [c["check"] for c in bundle["checks"]]
    assert names == sorted(names)
    assert len(names) == 4


def test_verify_without_orbit_runs_partial_suite():
    text, code = cmd_verify(load_config(OVERHARVEST), "json")
    assert code == 0
    bundle = json.loads(text)
    assert bundle["periodic_orbit"] is False
    assert bundle["all_passed"] is True
    assert len(bundle["checks"]) == 2


def test_verify_fails_with_absurd_tolerance():
    config = load_config(GOLDEN)
    tight = dataclasses.replace(
        config,
        tolerances=Tolerances(
            jump=1e-30, periodicity=1e-30, oracle=1e-30,
            legacy_continuity=1e-30, fixed_point=1e-30,
        ),
    )
    text, code = cmd_verify(tight, "json")
    assert code == 1
    assert json.loads(text)["all_passed"] is False


def test_counterexample_bundle():
    for path in (GOLDEN, SINUSOID):
        text, code = cmd_counterexample(load_config(path), "json")
        assert code == 0
        bundle = json.loads(text)
        assert bundle["as_predicted"] is True
        assert bundle["corrected"]["passed"] is True
        assert bundle["legacy"]["passed"] is True


def test_sweep_golden_values():
    text, code = cmd_sweep(load_config(GOLDEN), "csv")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "E,exists,x0_star,x_star_mean"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [row[0] for row in rows] == ["0.0", "0.1", "0.25", "0.4", "0.5"]
    assert [row[1] for row in rows] == ["true", "true", "true", "true", "false"]
    anchors = [float(row[2]) if row[2] else None for row in rows]
    for got, expected in zip(anchors, (100.0, 80.0, 50.0, 20.0, None)):
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, rel=1e-9)
    # no harvest: the orbit is the carrying capacity itself
    assert float(rows[0][3]) == pytest.approx(100.0, rel=1e-9)
    # empty orbit fields exactly for the non-existent rows
    assert rows[4][2] == "" and rows[4][3] == ""


def test_sweep_anchor_shrinks_toward_threshold():
    config = dataclasses.replace(load_config(GOLDEN), e_values=(0.49, 0.499, 0.4999))
    lines = cmd_sweep(config, "csv")[0].splitlines()[1:]
    anchors = [float(ln.split(",")[2]) for ln in lines]
    assert anchors[0] > anchors[1] > anchors[2] > 0.0
    assert anchors[2] < 0.03


# ---------------------------------------------------------------------------
# main(): exit codes, files, overrides
# ---------------------------------------------------------------------------


def test_main_writes_file_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "constants.txt"
    code = main(["constants", "--config", str(GOLDEN), "--out", str(out)])
    assert code == 0
    assert "x0_star      50.0" in out.read_text(encoding="utf-8")
    assert capsys.readouterr().out == ""


def test_main_stdout_default(capsys):
    code = main(["constants", "--config", str(GOLDEN)])
    assert code == 0
    assert "E_critical   0.5" in capsys.readouterr().out


@pytest.mark.parametrize("x0", [1e-308, 1e-309, 1e-320])
def test_main_x0_too_small_for_its_reciprocal_exit_2(tmp_path, capsys, x0):
    # a subnormal x0 carries fewer than 53 bits: at 1e-320 the oracle and the
    # closed form differ by 3.7e-3 relative, so a given x0 must be normal
    cfg = tmp_path / "tiny_x0.json"
    cfg.write_text(json.dumps(_json_config(x0=x0, horizon_periods=1)), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"config error: {cfg}.x0: x0={x0!r} is below the smallest normal float "
        "2.2250738585072014e-308: it carries fewer than 53 significant bits\n"
    )


def test_main_smallest_x0_with_a_finite_reciprocal_runs(tmp_path, capsys):
    # the smallest normal float is the smallest accepted x0
    x0 = sys.float_info.min
    cfg = tmp_path / "small_x0.json"
    cfg.write_text(json.dumps(_json_config(x0=x0, horizon_periods=1)), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1].startswith(f"0.5,0,{x0!r},{x0!r},0.0,")


def test_main_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_json_config(E=2.0)), encoding="utf-8")
    assert main(["constants", "--config", str(bad)]) == 2
    assert ".E" in capsys.readouterr().err


def test_main_step_too_small_for_its_reciprocal_exit_2(tmp_path, capsys):
    # 1/h overflows a float at these steps: a config error, not a traceback
    assert main(["constants", "--config", str(SINUSOID), "--step", "5e-324"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --step: ") and err.count("\n") == 1
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps(_json_config(step=1e-310)), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}.step: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "verify", "periodic"])
def test_main_refuses_a_run_over_the_sample_budget(capsys, command):
    # 2048 steps per unit over 513 periods is 2**20 + 2048 samples
    argv = [command, "--config", str(GOLDEN), "--step", repr(2.0**-11), "--periods", "513"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: 2048 steps per unit x 513 periods = 1050624 samples "
        "exceeds the budget of 1048576\n"
    )


@pytest.mark.parametrize("command", ["constants", "counterexample", "sweep"])
def test_commands_without_samples_take_any_horizon(capsys, command):
    argv = [command, "--config", str(GOLDEN), "--step", repr(2.0**-11), "--periods", "513"]
    assert main(argv + ["--e-values", "0.25"] if command == "sweep" else argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("step, periods", [(2.0**-11, 512), (2.0**-20, 1), (1.0, 2**20)])
def test_the_sample_budget_admits_its_own_size(step, periods):
    config = dataclasses.replace(
        load_config(GOLDEN), ctrl=StepControl(h=step), horizon_periods=periods
    )
    cli._require_sample_budget(config)  # exactly the budget: no error
    over = dataclasses.replace(config, horizon_periods=periods + 1)
    with pytest.raises(ConfigError, match="exceeds the budget of 1048576"):
        cli._require_sample_budget(over)


@pytest.mark.parametrize(
    "K",
    [
        {"kind": "constant", "value": 1e300},
        {"kind": "piecewise", "breakpoints": [0.0, 0.5, 1.0], "values": [1e300, 5e299]},
    ],
    ids=["constant", "piecewise"],
)
def test_main_verify_at_huge_capacity_prints_no_warning(tmp_path, capsys, K):
    cfg = tmp_path / "huge_k.json"
    cfg.write_text(json.dumps(_json_config(K=K)), encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""


def test_main_missing_orbit_exit_1(capsys):
    assert main(["periodic", "--config", str(OVERHARVEST)]) == 1
    assert "no positive periodic solution" in capsys.readouterr().err


def test_main_counterexample_requires_orbit(capsys):
    assert main(["counterexample", "--config", str(OVERHARVEST)]) == 1
    assert "no positive periodic solution" in capsys.readouterr().err


def test_main_verify_exit_codes(capsys):
    assert main(["verify", "--config", str(GOLDEN), "--periods", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--config", str(GOLDEN), "--periods", "2", "--tol", "1e-30"]) == 1
    capsys.readouterr()


def test_main_format_validation(capsys):
    assert main(["constants", "--config", str(GOLDEN), "--format", "csv"]) == 2
    assert "--format" in capsys.readouterr().err


def test_main_overrides(capsys):
    code = main(
        ["simulate", "--config", str(GOLDEN), "--periods", "1", "--step", "0.125"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + 8 + 2  # header, 8 steps, pre+post at the impulse


def test_main_sweep_flag_overrides_config(capsys):
    code = main(["sweep", "--config", str(GOLDEN), "--e-values", "0.1,0.3"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert [ln.split(",")[0] for ln in out[1:]] == ["0.1", "0.3"]


def test_main_sweep_rejects_bad_e_values(capsys):
    assert main(["sweep", "--config", str(GOLDEN), "--e-values", "0.1,goose"]) == 2
    capsys.readouterr()
    assert main(["sweep", "--config", str(GOLDEN), "--e-values", "1.25"]) == 2
    capsys.readouterr()


def test_main_runs_the_command_bound_when_it_is_called(monkeypatch, capsys):
    # every command is cmd_*(config, fmt) -> (text, exit code), looked up by
    # name on each call, so a function rebound after import is the one run
    monkeypatch.setattr(cli, "cmd_constants", lambda config, fmt: (f"{fmt}\n", 3))
    assert main(["constants", "--config", str(GOLDEN)]) == 3
    assert capsys.readouterr().out == "text\n"


def test_main_sweep_without_fractions_exit_2(tmp_path, capsys):
    cfg = tmp_path / "no_fractions.json"
    cfg.write_text(json.dumps(_json_config()), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error: sweep needs harvest fractions: pass --e-values or set e_values\n"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--format", "text"], "--format text not supported by 'sweep' (choose from csv/json)"),
        (["--step", "0.3"], "--step: step h=0.3 must divide the unit interval into a whole "
         "number of steps"),
    ],
    ids=["format", "step"],
)
def test_main_sweep_reports_a_flag_error_before_the_fraction_error(capsys, flags, message):
    argv = ["sweep", "--config", str(GOLDEN), *flags, "--e-values", "1.5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")


def test_main_unwritable_out_exit_2(tmp_path, capsys):
    missing_dir = tmp_path / "not" / "here" / "out.txt"
    assert main(["constants", "--config", str(GOLDEN), "--out", str(missing_dir)]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_main_integration_failure_exit_1(tmp_path, capsys):
    # A one-unit step on a fast-growing rate drives RK4 out of the positive
    # domain; the CLI must fail cleanly rather than traceback.
    cfg = tmp_path / "stiff.json"
    cfg.write_text(
        json.dumps(
            {
                "r": {"kind": "constant", "value": 9.0},
                "K": {"kind": "constant", "value": 100.0},
                "E": 0.1,
                "x0": 250.0,
                "step": 1.0,
                "horizon_periods": 3,
            }
        ),
        encoding="utf-8",
    )
    code = main(["simulate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "error:" in err


def test_main_state_overflow_is_named(tmp_path, capsys):
    # r(1 - x/K) x overflows a float at x0 = 1e308: the error says so
    # rather than blaming the step size.
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(_json_config(x0=1e308)), encoding="utf-8")
    for command in ("simulate", "verify"):
        code = main([command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "error: state overflowed at t=0.50390625 (x=-inf)" in captured.err
        assert "exceeds the float range" in captured.err
        assert "step is too large" not in captured.err


def test_state_underflow_is_named(tmp_path, capsys):
    # E a hair below 1 shrinks the state by 1e-16 a period until the jump at
    # t = 21.5 leaves 0.0: that is an underflow, not a step too large
    cfg = tmp_path / "underflow.json"
    scenario = _json_config(
        r={"kind": "constant", "value": 0.1},
        K={"kind": "constant", "value": 100.0},
        E=0.9999999999999999,
        x0=50.0,
        step=0.25,
        horizon_periods=30,
    )
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    for command in ("simulate", "verify"):
        code = main([command, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "error: state underflowed to 0.0 by t=21.5: it fell below the smallest "
            "positive float, not a step-size problem\n"
        )


@pytest.mark.parametrize(
    "command", ["constants", "simulate", "periodic", "verify", "counterexample", "sweep"]
)
def test_config_check_and_command_share_one_B(command, capsys):
    # parse_config checks B before any command runs; the command, and every
    # harvest fraction of a sweep, reuse that quadrature
    compute_B.cache_clear()
    main([command, "--config", str(SINUSOID)])
    capsys.readouterr()
    assert compute_B.cache_info().misses == 1


COMMANDS = ("constants", "simulate", "periodic", "verify", "counterexample", "sweep")

# derive_constants calls allowed per command: one for the command and one
# per check it runs; sweep derives once per harvest fraction
DERIVES = {"constants": 2, "simulate": 2, "periodic": 2, "verify": 10, "counterexample": 8}


@pytest.mark.parametrize("command", COMMANDS)
def test_constants_are_derived_once_per_command_and_check(monkeypatch, capsys, command):
    calls = [0]

    def counted(params):
        calls[0] += 1
        return derive_constants(params)

    for module in (cli, analysis, closed_form):
        monkeypatch.setattr(module, "derive_constants", counted)
    assert main([command, "--config", str(SINUSOID)]) == 0
    capsys.readouterr()
    if command == "sweep":
        assert calls[0] == len(load_config(SINUSOID).e_values)
    else:
        assert 1 <= calls[0] <= DERIVES[command]


def test_an_anchor_that_underflows_is_a_config_error(tmp_path, capsys):
    # d is 1 ulp and B 5e307, so d / B underflows to 0.0: no command may
    # print that anchor or run on it
    cfg = tmp_path / "underflow.json"
    scenario = _json_config(K={"kind": "constant", "value": 1e-308}, E=0.4999999999999999)
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    for command in COMMANDS:
        argv = [command, "--config", str(cfg)]
        if command == "sweep":
            argv += ["--e-values", "0.25,0.4999999999999999"]
        assert main(argv) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error: E=0.4999999999999999: the orbit anchor x0_star = d/B "
            "underflows to 0.0"
        ), command


def test_fixed_point_scan_where_the_map_overflows_prints_no_warning(tmp_path, capsys):
    # B is 1e79 and the scan reaches 10 * mean K = 2.5e231, so x0 B overflows
    # at the top of the scan; there the map is (1 - E) / (B + exp(-G) / x0)
    cfg = tmp_path / "overflowing_map.json"
    scenario = _json_config(
        r={"kind": "constant", "value": 1.0},
        K={"kind": "piecewise", "breakpoints": [0, 0.25, 1], "values": [1e231, 1e-79]},
        E=0.0,
        t0=1.0,
        horizon_periods=1,
    )
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (scan,) = [c for c in json.loads(captured.out)["checks"] if c["check"].startswith("fixed")]
    assert len(scan["metadata"]["crossings"]) == 1


# K is 3e-255 on a sliver of 1e-13 after the impulse: B, the period table
# and the RK4 grid all split the period there, so B = 1.2e241 holds the
# sliver's share and C(1) matches it.  The sliver is one RK4 step with
# h r x / K near 1, so the oracle records fail.
SLIVER = _json_config(
    r={"kind": "constant", "value": 1.0},
    K={"kind": "piecewise", "breakpoints": [0, 1e-13, 1], "values": [3e-255, 2e204]},
    E=0.25,
    t0=1.0,
)
# K is 1e-250 on a sliver of 8e-13 around offset 0.5; B = 4.85e237 is
# nearly all that sliver's share.  Again one stiff RK4 step.
CROWDED_SLIVER = _json_config(
    r={"kind": "constant", "value": 1.0},
    K={
        "kind": "piecewise",
        "breakpoints": [0, 0.4999999999996, 0.5000000000004, 1],
        "values": [1e200, 1e-250, 1e200],
    },
    E=0.25,
    t0=1.0,
)
# K is 1e-200 on a piece of 16 ulps before offset 1, read at each panel's
# midpoint: a node rounds onto the piece's left end, where K takes the value
# of the piece before it
NARROW = _json_config(
    r={"kind": "constant", "value": 1.0},
    K={"kind": "piecewise", "breakpoints": [0, 0.9999999999999982, 1], "values": [1.0, 1e-200]},
    E=0.25,
    t0=1.0,
)
# K jumps at 0.6839, which the impulses at t0 = 4.6839 put 4e-16 before
# offset 1: a piece of 4e-16 that every split keeps
JUMP_AT_THE_IMPULSE = _json_config(
    r={"kind": "constant", "value": 1.0},
    K={"kind": "piecewise", "breakpoints": [0, 0.6839, 1], "values": [1.0, 1e6]},
    E=0.25,
    t0=4.6839,
)
# x0 and exp(-R) so small that solution_grid's denominator underflows
UNDERFLOW = {
    "r": {"kind": "constant", "value": 295.51},
    "K": {
        "kind": "piecewise",
        "breakpoints": [0, 0.765625, 0.90625, 0.9999999999999669, 1],
        "values": [5.5e128, 1e6, 1, 1.00000002],
    },
    "E": 0.9999999999999999,
    "t0": 4.6839,
    "x0": 1.619e-282,
    "horizon_periods": 2,
}
# the fixed-point scan's top state times B overflows in poincare_map
POINCARE_OVERFLOW = {
    "r": {"kind": "constant", "value": 1.0},
    "K": {"kind": "piecewise", "breakpoints": [0, 0.25, 1], "values": [1e231, 1e-79]},
    "E": 0.0,
    "t0": 1.0,
    "horizon_periods": 1,
}


def _failed_checks(report: str) -> set[str]:
    return {c["check"] for c in json.loads(report)["checks"] if not c["passed"]}


@pytest.mark.parametrize(
    "scenario", [SLIVER, CROWDED_SLIVER, NARROW], ids=["sliver", "crowded", "narrow"]
)
def test_a_sliver_of_K_keeps_its_share_of_B(tmp_path, capsys, scenario):
    # each split keeps the sliver: B is its exact piece-by-piece sum, C(1)
    # matches it, and the closed form stays finite.  Only the oracle fails:
    # the sliver is one RK4 step, too stiff for the step to resolve.
    params = parse_config(scenario).params
    B = compute_B(params.pair, params.phase)[1]
    assert B == pytest.approx(exact_B(params.pair, params.phase), rel=1e-13)
    C = closed_form.period_table(params, [0.0, 1.0]).forcing[-1]
    assert C == pytest.approx(B, rel=1e-13)

    cfg = tmp_path / "sliver.json"
    cfg.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["simulate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "inf" not in captured.out
    assert main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _failed_checks(captured.out) == {"closed form vs numerical oracle"}


def test_a_kernel_value_of_zero_fails_without_raising(tmp_path, capsys, monkeypatch):
    # B's panels, the period table and the RK4 grid all split the period at
    # the sliver: only the oracle's records fail, and simulate prints no inf
    cfg = tmp_path / "zero_kernel.json"
    cfg.write_text(json.dumps(SLIVER), encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _failed_checks(captured.out) == {"closed form vs numerical oracle"}
    assert main(["simulate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "inf" not in captured.out

    # a C(s) out of all scale with B makes the kernel read 0.0 there
    corrupt_period_table(monkeypatch, 0.5, lambda c: np.full_like(c, math.inf))
    assert main(["verify", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    checks = {c["check"]: c for c in json.loads(captured.out)["checks"]}
    residuals = [rec["residual"] for rec in checks["periodicity"]["records"]]
    assert math.inf in residuals and not checks["periodicity"]["passed"]

    assert main(["simulate", "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert all(row[4] == "inf" for row in rows if row[3] == "0.0")
    assert any(row[3] == "0.0" for row in rows)


def test_a_denominator_that_underflows_takes_the_form_divided_by_x0(tmp_path, capsys):
    # exp(-R) and x0 = 1.6e-282 underflow solution_grid's denominator to 0.0
    # where x itself is in range: x reads the form divided through by x0
    cfg = tmp_path / "underflow.json"
    cfg.write_text(json.dumps(UNDERFLOW), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        closed = [float(row[3]) for row in rows]
        assert all(0.0 < x < math.inf for x in closed)
        # the RK4 oracle's own state overflows here, a step-stability error
        assert main(["verify", "--config", str(cfg)]) == 1
        assert "state overflowed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# large anchor times: only frac(t0) enters the results
# ---------------------------------------------------------------------------


def _at_t0(tmp_path, config: Path, t0: float) -> Path:
    data = json.loads(config.read_text(encoding="utf-8"))
    data["t0"] = t0
    path = tmp_path / f"{config.stem}-t0={t0!r}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("config", [SINUSOID, PIECEWISE], ids=lambda p: p.stem)
def test_constants_depend_only_on_the_phase(tmp_path, capsys, config):
    printed = set()
    for t0 in (1.0, 1e9, 2.0**40, 1e15, 2.0**50):
        argv = ["constants", "--config", str(_at_t0(tmp_path, config, t0)), "--format", "json"]
        assert main(argv) == 0
        printed.add(capsys.readouterr().out)
    assert len(printed) == 1
    t0 = 12345678.3
    phase = t0 - 12345678
    big, small = (load_config(_at_t0(tmp_path, config, t)).params for t in (t0, phase))
    assert derive_constants(big).B == derive_constants(small).B


@pytest.mark.parametrize("t0", [0.8428831827983329, 1.262138583236376, 12345678.3])
def test_simulate_times_never_run_backwards(tmp_path, t0):
    # t = t0 + (k + s): the pre row at offset 1 of period k and the post
    # row at offset 0 of period k + 1 print the same time, for any t0
    config = load_config(_at_t0(tmp_path, PIECEWISE, t0))
    text, _ = cmd_simulate(dataclasses.replace(config, horizon_periods=12), "csv")
    lines = text.splitlines()[1:]
    rows = [line.split(",") for line in lines]
    times = [float(row[0]) for row in rows]
    assert all(a <= b for a, b in zip(times, times[1:]))
    for before, after in zip(rows, rows[1:]):
        if after[-1] == "post":
            assert before[-1] == "pre" and before[0] == after[0]


@pytest.mark.parametrize("t0", [1e9, 2.0**40, 1e15])
@pytest.mark.parametrize("config", [SINUSOID, PIECEWISE], ids=lambda p: p.stem)
def test_verify_passes_at_large_t0(tmp_path, capsys, config, t0):
    assert main(["verify", "--config", str(_at_t0(tmp_path, config, t0))]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("t0", [1e16, 1e300])
@pytest.mark.parametrize("config", [SINUSOID, PIECEWISE], ids=lambda p: p.stem)
@pytest.mark.parametrize("command", COMMANDS)
def test_commands_end_cleanly_at_huge_t0(tmp_path, capsys, command, config, t0):
    code = main([command, "--config", str(_at_t0(tmp_path, config, t0))])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err == "" if code == 0 else err.startswith("config error:")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _run_to_bytes(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--out", str(out)])
    return code, out.read_bytes()


def test_repeated_runs_are_byte_identical(tmp_path):
    jobs = []
    for cfg in ALL_CONFIGS:
        for command in ("constants", "simulate", "verify", "sweep"):
            jobs.append([command, "--config", str(cfg), "--periods", "2"])
    jobs.append(["periodic", "--config", str(GOLDEN), "--periods", "2"])
    jobs.append(["counterexample", "--config", str(SINUSOID), "--periods", "2"])
    for i, argv in enumerate(jobs):
        code_a, bytes_a = _run_to_bytes(tmp_path, f"a{i}", argv)
        code_b, bytes_b = _run_to_bytes(tmp_path, f"b{i}", argv)
        assert code_a == code_b
        assert bytes_a == bytes_b, f"nondeterministic output for {argv}"


# ---------------------------------------------------------------------------
# fuzz: every scenario ends with a documented exit code
# ---------------------------------------------------------------------------


def _magnitude(low: int, high: int):
    """Floats spread over the decades 10**low .. 10**high."""
    return st.floats(low, high).map(lambda e: 10.0**e)


def _coefficient_dicts(values):
    """Scenario coefficients of every kind.  Piecewise ones may jump within
    1e-13 after 0 and before 1, next to the impulses when frac(t0) = 0."""
    constant = st.builds(lambda v: {"kind": "constant", "value": v}, values)
    sinusoid = st.builds(
        lambda mean, frac, phase: {
            "kind": "sinusoid", "mean": mean, "amp": frac * mean, "phase": phase
        },
        values,
        st.floats(-0.99, 0.99),
        st.floats(0.0, 2.0 * math.pi),
    )
    piecewise = st.builds(
        lambda head, inner, tail: [0.0, *head, *sorted(inner), *tail, 1.0],
        st.lists(st.floats(0.0, 1e-13, exclude_min=True), max_size=1),
        st.lists(st.integers(1, 63).map(lambda i: i / 64.0), max_size=2, unique=True),
        st.lists(st.integers(1, 450).map(lambda n: 1.0 - n * 2.0**-52), max_size=1),
    ).flatmap(
        lambda bp: st.lists(values, min_size=len(bp) - 1, max_size=len(bp) - 1).map(
            lambda vals: {"kind": "piecewise", "breakpoints": bp, "values": vals}
        )
    )
    return st.one_of(constant, sinusoid, piecewise)


@st.composite
def _scenarios(draw) -> dict:
    r = draw(_coefficient_dicts(_magnitude(-3, 3)))
    scenario = {"r": r, "K": draw(_coefficient_dicts(_magnitude(-300, 300)))}
    # harvest fractions anywhere, and within a few ulp of the critical one
    e_star = -math.expm1(-coefficient_from_dict(r).integral(0.0, 1.0))
    near = st.integers(-4, 4).map(
        lambda n: min(max(e_star + n * math.ulp(e_star), 0.0), 1.0 - 2.0**-53)
    )
    fraction = st.one_of(st.floats(0.0, 1.0, exclude_max=True), near)
    scenario["E"] = draw(fraction)
    scenario["e_values"] = draw(st.lists(fraction, min_size=1, max_size=3))
    scenario["t0"] = draw(st.one_of(st.just(1.0), _magnitude(-3, 12)))
    if draw(st.booleans()):
        scenario["x0"] = draw(_magnitude(-300, 300))
    scenario["horizon_periods"] = draw(st.integers(1, 3))
    return scenario


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(scenario=_scenarios())
@example(scenario=SLIVER)
@example(scenario=CROWDED_SLIVER)
@example(scenario=JUMP_AT_THE_IMPULSE)
@example(scenario=UNDERFLOW)
@example(scenario=POINCARE_OVERFLOW)
def test_random_scenarios_end_with_a_documented_exit_code(tmp_path_factory, scenario):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a warning escapes main as an exception
                code = main([command, "--config", str(path)])
        assert code in (0, 1, 2), command


# ---------------------------------------------------------------------------
# plain command lines: the same namespace as argparse, without building it
# ---------------------------------------------------------------------------

_JUNK = st.one_of(
    st.sampled_from(["-1", "-0.5", "", "-", "--", "-h", "nan", "xml", *COMMANDS]),
    st.text(max_size=4),
)
_TEXT = st.sampled_from(["c.json", str(GOLDEN), "0.1,0.2", " 3 ", *COMMANDS])
_FLOAT = st.one_of(
    st.floats().map(repr), st.sampled_from(["nan", "inf", "1_0", " 3 ", "1e-3", "0x1p-8"])
)
_INT = st.one_of(st.integers(-3, 10**6).map(str), st.sampled_from([" 2", "1_0", "+3", "2.0"]))
# option name -> values that its converter mostly takes
_OPTION_VALUES = {
    "--config": _TEXT,
    "--out": _TEXT,
    "--e-values": _TEXT,
    "--format": st.sampled_from(["csv", "json", "text"]),
    "--tol": _FLOAT,
    "--step": _FLOAT,
    "--periods": _INT,
}
# abbreviated, "=" form, unknown and help names
_ODD_NAMES = ["--conf", "--e", "--per", "--fo", "--tol=1e-3", "--periods=2", "--bogus", "-x",
              "-h", "--help", "--", "-"]  # fmt: skip


@st.composite
def _command_lines(draw) -> list[str]:
    """A plain line (a command and some of its options, each with a value of
    its kind), then in two thirds of the cases one change that may make it
    other than plain: a junk head, an odd or repeated name, a junk value or
    a dangling token."""
    command = draw(st.sampled_from(COMMANDS))
    names = [name for name in _OPTION_VALUES if name != "--e-values" or command == "sweep"]
    names = draw(st.permutations(names))[: draw(st.integers(0, 4))]
    if draw(st.integers(0, 4)) and "--config" not in names:
        names.insert(draw(st.integers(0, len(names))), "--config")
    argv = [command]
    for name in names:
        argv += [name, draw(_OPTION_VALUES[name])]
    change = draw(st.sampled_from(["none", "none", "head", "name", "value", "append"]))
    if change == "head":
        argv[0] = draw(_JUNK)
    elif change == "append":
        argv.append(draw(st.one_of(st.sampled_from(_ODD_NAMES), _JUNK)))
    elif len(argv) > 1:
        at = draw(st.integers(0, len(names) - 1))
        if change == "name":
            other = st.sampled_from([*_ODD_NAMES, *_OPTION_VALUES])
            argv[1 + 2 * at] = draw(other)
        elif change == "value":
            argv[2 + 2 * at] = draw(_JUNK)
    return argv


def _same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(argv=_command_lines())
@example(argv=["sweep", "--config", "c.json", "--e-values", "0.1", "--tol", "nan"])
@example(argv=["periodic", "--periods", " 2", "--config", "c.json", "--format", "csv"])
def test_a_plain_command_line_reads_as_argparse_reads_it(argv):
    plain = cli._plain_args(list(argv))
    if plain is None:
        return  # left to argparse
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        parsed = cli._build_parser().parse_args(list(argv))  # a usage error raises SystemExit
    assert vars(plain).keys() == vars(parsed).keys()
    for key, value in vars(parsed).items():
        assert _same_value(getattr(plain, key), value), key
