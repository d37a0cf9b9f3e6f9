"""Scenario parsing, command output, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from impulsive_logistic.closed_form import derive_constants

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
    assert config.t0 == 0.5
    assert config.horizon_periods == 10
    assert config.step == pytest.approx(1.0 / 256.0)
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


def test_importing_the_cli_does_not_load_scipy():
    # scipy is no dependency, and the Gauss-Legendre rule is written out
    # rather than taken from numpy.polynomial; start-up must pay for neither.
    import impulsive_logistic

    src = str(Path(impulsive_logistic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, impulsive_logistic.cli; "
        "print([m for m in ('scipy', 'numpy.polynomial') if m in sys.modules])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"


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


def test_config_round_trip():
    for path in ALL_CONFIGS:
        config = load_config(path)
        again = parse_config(json.loads(json.dumps(config.to_dict())))
        assert again == config
        assert cmd_constants(again) == cmd_constants(config)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_constants_text_golden():
    text = cmd_constants(load_config(GOLDEN))
    assert "A            2.0" in text
    assert "B            0.005" in text
    assert "(1-E)A       1.5" in text
    assert "x0_star      50.0" in text
    assert "E_critical   0.5" in text


def test_constants_json_golden():
    data = json.loads(cmd_constants(load_config(GOLDEN), fmt="json"))
    assert data == {
        "A": 2.0,
        "B": 0.005,
        "growth_factor": 1.5,
        "x0_star": 50.0,
        "critical_harvest": 0.5,
    }


def test_constants_reports_missing_orbit():
    text = cmd_constants(load_config(OVERHARVEST))
    assert "none: (1-E)A <= 1" in text
    data = json.loads(cmd_constants(load_config(OVERHARVEST), fmt="json"))
    assert data["x0_star"] is None


def test_simulate_csv_structure():
    config = load_config(GOLDEN)
    import dataclasses

    config = dataclasses.replace(config, horizon_periods=2)
    lines = cmd_simulate(config).splitlines()
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
    config = load_config(GOLDEN)
    lines = cmd_periodic(config).splitlines()
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
    text, code = cmd_verify(load_config(GOLDEN))
    assert code == 0
    bundle = json.loads(text)
    assert bundle["all_passed"] is True
    assert bundle["periodic_orbit"] is True
    names = [c["check"] for c in bundle["checks"]]
    assert names == sorted(names)
    assert len(names) == 4


def test_verify_without_orbit_runs_partial_suite():
    text, code = cmd_verify(load_config(OVERHARVEST))
    assert code == 0
    bundle = json.loads(text)
    assert bundle["periodic_orbit"] is False
    assert bundle["all_passed"] is True
    assert len(bundle["checks"]) == 2


def test_verify_fails_with_absurd_tolerance():
    import dataclasses

    config = load_config(GOLDEN)
    tight = dataclasses.replace(
        config,
        tolerances=Tolerances(
            jump=1e-30, periodicity=1e-30, oracle=1e-30,
            legacy_continuity=1e-30, fixed_point=1e-30,
        ),
    )
    text, code = cmd_verify(tight)
    assert code == 1
    assert json.loads(text)["all_passed"] is False


def test_counterexample_bundle():
    for path in (GOLDEN, SINUSOID):
        text, code = cmd_counterexample(load_config(path))
        assert code == 0
        bundle = json.loads(text)
        assert bundle["as_predicted"] is True
        assert bundle["corrected"]["passed"] is True
        assert bundle["legacy"]["passed"] is True


def test_sweep_golden_values():
    config = load_config(GOLDEN)
    lines = cmd_sweep(config, config.e_values).splitlines()
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
    config = load_config(GOLDEN)
    values = (0.49, 0.499, 0.4999)
    lines = cmd_sweep(config, values).splitlines()[1:]
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


@pytest.mark.parametrize("command", [cmd_verify, cmd_counterexample])
def test_one_B_quadrature_per_command(command):
    # every caller keys derive_constants on the params alone, so one command
    # computes B once
    derive_constants.cache_clear()
    command(load_config(SINUSOID))
    assert derive_constants.cache_info().misses == 1


# ---------------------------------------------------------------------------
# large anchor times: only frac(t0) enters the results
# ---------------------------------------------------------------------------

COMMANDS = ("constants", "simulate", "periodic", "verify", "counterexample", "sweep")


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
    big, small = (load_config(_at_t0(tmp_path, config, t)).params() for t in (t0, phase))
    assert derive_constants(big).B == derive_constants(small).B


@pytest.mark.parametrize("t0", [0.8428831827983329, 1.262138583236376, 12345678.3])
def test_simulate_times_never_run_backwards(tmp_path, t0):
    # t = t0 + (k + s): the pre row at offset 1 of period k and the post
    # row at offset 0 of period k + 1 print the same time, for any t0
    config = load_config(_at_t0(tmp_path, PIECEWISE, t0))
    lines = cmd_simulate(dataclasses.replace(config, horizon_periods=12)).splitlines()[1:]
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
