"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each test also fails loudly on its own if a criterion is missed.
Every tolerance is pinned here, not configured elsewhere.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from impulsive_logistic import (
    NoPeriodicSolutionError,
    analysis,
    compare_solutions,
    derive_constants,
    fixed_point_scan,
    period_table,
    periodic_grid,
    poincare_map,
    solution_grid,
    verify_impulse_condition,
    verify_periodicity,
)
from impulsive_logistic.cli import cmd_sweep, load_config, main

from helpers import (
    LN2,
    chained_flow,
    golden_params,
    random_params,
    reference_integral,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
ALL_CONFIGS = tuple(sorted(CONFIG_DIR.glob("*.json")))


def _sinusoid_params():
    from impulsive_logistic import (
        CoefficientPair,
        ConstantCoefficient,
        ModelParams,
        SinusoidCoefficient,
    )

    return ModelParams(
        pair=CoefficientPair(
            r=SinusoidCoefficient(mean=0.7, amp=0.2), K=ConstantCoefficient(100.0)
        ),
        E=0.25,
        t0=0.5,
    )


def _finish(n: int, label: str, failures: list[str], started: float, limit: float):
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < limit
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {label} ({elapsed:.2f}s)")
    assert not failures, f"criterion {n}: " + "; ".join(failures)
    assert elapsed < limit, f"criterion {n}: runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_1_constant_coefficient_golden_case():
    started = time.perf_counter()
    failures: list[str] = []
    p = golden_params()
    c = derive_constants(p)

    # hand-derivable constant-case oracles
    a_ref = math.exp(LN2)
    b_ref = (1.0 - 1.0 / a_ref) / 100.0
    q_ref = 0.75 * a_ref
    anchor_ref = 100.0 * (q_ref - 1.0) / (a_ref - 1.0)

    checks = [
        ("A", c.A, a_ref),
        ("B", c.B, b_ref),
        ("(1-E)A", c.q, q_ref),
        ("x0_star", c.x0_star, anchor_ref),
    ]
    limits = verify_impulse_condition("corrected", p).metadata
    checks.append(("pre", limits["analytic_pre"], anchor_ref / 0.75))
    checks.append(("post", limits["analytic_post"], anchor_ref))
    for name, got, want in checks:
        rel = abs(got - want) / abs(want)
        if rel > 1e-10:
            failures.append(f"{name}: {got!r} vs {want!r} (rel {rel:.2e})")
    _finish(1, "constant-coefficient golden constants and limits", failures, started, 1.0)


def test_criterion_2_counterexample_reproduction():
    started = time.perf_counter()
    failures: list[str] = []
    for label, params in (("golden", golden_params()), ("sinusoid-r", _sinusoid_params())):
        legacy = verify_impulse_condition("legacy", params, ks=(1, 2, 3), tol=1e-6)
        corrected = verify_impulse_condition("corrected", params, ks=(1, 2, 3), tol=1e-6)
        if not corrected.passed:
            failures.append(f"{label}: corrected jump check failed")
        for rec in legacy.records:
            if "continuity" in rec.location and rec.residual > 1e-6:
                failures.append(f"{label}: legacy {rec.location} residual {rec.residual:.2e}")
        for k in (1, 2, 3):
            violation = legacy.metadata["estimates"][f"k={k}"]["jump_violation"]
            if violation < params.E / 2.0:
                failures.append(f"{label}: k={k} violation {violation:.3f} < E/2")
    _finish(2, "legacy formula continuous, corrected formula jumps", failures, started, 5.0)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    failures: list[str] = []

    rng = np.random.default_rng(20240817)
    for i in range(5):
        p = random_params(rng, index=i)
        x0 = float(rng.uniform(0.3, 1.2)) * reference_integral(p.pair.K, 0.0, 1.0)
        report = compare_solutions(p, x0, 10, 256, tol=1e-5)
        worst = max(rec.residual for rec in report.records)
        if worst > 1e-5:
            failures.append(f"random set {i}: worst residual {worst:.2e} > 1e-5")

    # constant coefficients against the jump-chained exact flow
    p = golden_params()
    offsets = (0.0, 0.25, 0.5, 0.75)
    grid = solution_grid(derive_constants(p), 37.0, range(11), period_table(p, offsets))
    worst = 0.0
    for k, row in enumerate(grid.tolist()):
        for s, got in zip(offsets, row):
            ref = chained_flow(LN2, 100.0, 0.25, 0.5, 37.0, p.t0 + k + s)
            worst = max(worst, abs(got - ref) / ref)
    if worst > 1e-8:
        failures.append(f"constant case vs exact flow: {worst:.2e} > 1e-8")
    _finish(3, "closed form matches RK4 and exact-flow oracles", failures, started, 30.0)


def test_criterion_4_periodicity_and_fixed_point():
    started = time.perf_counter()
    failures: list[str] = []
    p = golden_params()

    report = verify_periodicity(p, periods=5, tol=1e-8)
    if not report.passed:
        worst = max(rec.residual for rec in report.records)
        failures.append(f"periodicity worst residual {worst:.2e} > 1e-8")
    # the same comparison on 64 offsets, four times the check's 16
    consts = derive_constants(p)
    offsets = [j / 64.0 for j in range(64)]
    kernel = solution_grid(consts, consts.x0_star, range(5), period_table(p, offsets))
    reference = np.array(analysis._orbit_by_quadrature(p, consts, offsets))
    worst = float(np.max(np.abs(reference - kernel) / kernel))
    if worst > 1e-8:
        failures.append(f"periodicity on 64 offsets: worst residual {worst:.2e} > 1e-8")

    anchor = derive_constants(p).x0_star
    drift = abs(poincare_map(derive_constants(p), anchor) - anchor)
    if drift > 1e-10 * anchor:
        failures.append(f"|P(x0*) - x0*| = {drift:.2e} > 1e-10 * x0*")

    mean_capacity = reference_integral(p.pair.K, 0.0, 1.0)
    scan = fixed_point_scan(p, 1e-3 * mean_capacity, 10.0 * mean_capacity, tol=1e-6)
    crossings = scan.metadata["crossings"]
    if len(crossings) != 1:
        failures.append(f"expected exactly one crossing, found {len(crossings)}")
    elif abs(crossings[0] - anchor) > 1e-6 * anchor:
        failures.append(f"crossing {crossings[0]!r} not within 1e-6 of {anchor!r}")
    _finish(4, "periodicity, fixed-point identity, unique crossing", failures, started, 10.0)


def test_criterion_5_exponent_sign_regression():
    # The mid-interval growth-history term decays with the same exponential
    # as the leading term.  A sign flip there is the classic transcription
    # error; this regression pins the decaying form against the exact-flow
    # chain, in the no-harvest case (where the flipped sign lands on 58.58
    # instead of the correct 73.8796) and in the harvested golden case
    # (45.90 instead of the correct 58.5786).
    started = time.perf_counter()
    failures: list[str] = []

    def flipped_sign_variant(params, x0, t):
        c = derive_constants(params)
        k = math.floor(t - params.t0 + 1e-9)
        anchor = params.t0 + k
        big_r = reference_integral(params.pair.r, anchor, t)
        from impulsive_logistic import forcing_integrals

        s_k = k if abs(c.q - 1.0) < 1e-12 else (1.0 - c.q ** (-k)) / (c.q - 1.0)
        recip = (
            math.exp(-big_r) / (x0 * c.q**k)
            + c.A * c.B * s_k * math.exp(+big_r)
            + forcing_integrals(params.pair, anchor, (t - anchor,), 64)[0][0]
        )
        return 1.0 / recip

    cases = [
        (0.0, (800.0 - 200.0 * math.sqrt(2.0)) / 7.0),  # 73.8796...
        (0.25, 100.0 * (2.0 - math.sqrt(2.0))),  # 58.5786...
    ]
    for e_val, correct in cases:
        p = golden_params(E=e_val)
        t = p.t0 + 1.5
        oracle = chained_flow(LN2, 100.0, e_val, 0.5, 50.0, t)
        got = solution_grid(derive_constants(p), 50.0, [1], period_table(p, [0.5]))[0, 0]
        wrong = flipped_sign_variant(p, 50.0, t)
        if abs(oracle - correct) > 1e-4:
            failures.append(f"E={e_val}: oracle {oracle!r} != stated {correct!r}")
        if abs(got - correct) > 1e-4:
            failures.append(f"E={e_val}: solution {got!r} != {correct!r}")
        if abs(wrong - oracle) < 1e-2:
            failures.append(f"E={e_val}: flipped sign not distinguishable from oracle")
    # the no-harvest flipped value is the 58.58 the error classically produces
    wrong_e0 = flipped_sign_variant(golden_params(E=0.0), 50.0, 2.0)
    if abs(wrong_e0 - 58.58) > 1e-2:
        failures.append(f"flipped-sign value {wrong_e0!r} != 58.58")
    _finish(5, "decaying exponent pinned against the flow oracle", failures, started, 5.0)


def test_criterion_6_threshold_behavior(tmp_path, capsys):
    started = time.perf_counter()
    failures: list[str] = []
    e_crit = 0.5  # golden case: A = 2

    for e_val in (e_crit, 0.6, 0.9):
        p = golden_params(E=e_val)
        try:
            periodic_grid(derive_constants(p), period_table(p, [0.5]))
            failures.append(f"E={e_val}: expected NoPeriodicSolutionError")
        except NoPeriodicSolutionError as exc:
            if "no positive periodic solution" not in str(exc):
                failures.append(f"E={e_val}: unexpected message {exc}")

    code = main(["periodic", "--config", str(CONFIG_DIR / "overharvest.json")])
    err = capsys.readouterr().err
    if code != 1 or "no positive periodic solution" not in err:
        failures.append(f"cmd_periodic: exit {code}, stderr {err!r}")

    e_values = (0.25, 0.4999, 0.5, 0.75)
    config = load_config(CONFIG_DIR / "golden_constant.json")
    config = dataclasses.replace(config, e_values=e_values)
    lines = cmd_sweep(config, "csv")[0].splitlines()[1:]
    for e_val, line in zip(e_values, lines):
        fields = line.split(",")
        empty = fields[2] == "" and fields[3] == ""
        if (e_val >= e_crit) != empty:
            failures.append(f"sweep row E={e_val}: orbit fields {fields[2:]!r}")
    _finish(6, "harvest at or above the critical fraction has no orbit", failures, started, 10.0)


def test_criterion_7_cli_determinism(tmp_path, capsys):
    started = time.perf_counter()
    failures: list[str] = []

    def run(argv, out_path):
        code = main(argv + ["--out", str(out_path)])
        captured = capsys.readouterr()
        data = out_path.read_bytes() if out_path.exists() else b""
        return code, data, captured.err

    commands = ("constants", "simulate", "periodic", "verify", "counterexample", "sweep")
    i = 0
    for config in ALL_CONFIGS:
        for command in commands:
            argv = [command, "--config", str(config), "--periods", "2"]
            first = run(argv, tmp_path / f"a{i}")
            second = run(argv, tmp_path / f"b{i}")
            if first != second:
                failures.append(f"{config.name} {command}: differing runs")
            i += 1
    _finish(7, "byte-identical outputs across repeated runs", failures, started, 60.0)
