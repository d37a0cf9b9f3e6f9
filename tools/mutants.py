"""Named source mutations, each run against the tier-1 tests.

Usage:

    python tools/mutants.py

The repository's ``src/``, ``tests/``, ``configs/``, ``pyproject.toml`` and
``README.md`` are copied to a temporary directory.  Each mutation replaces
one exact snippet of one source file there (the snippet must occur exactly
once), runs ``pytest -x`` on the copy and puts the file back.  A
``conftest.py`` at the copy's root loads a hypothesis profile without the
shrink phase: a property that fails is reported at the first failing
example instead of being shrunk, which on its own can take minutes.  The
unmutated copy runs first and must pass.

A mutation that names tests runs only those: it must be killed by the
check they exercise, not by whichever test happens to run first.  One line
per mutation: the first test that failed (the mutation is killed),
``SURVIVED`` (every test passed: a missing test, or an equivalent mutation
to be named as such), or ``TIMEOUT``.  Exit status 0 when every
mutation was killed, else 1.  Standard library only; not a tier-1 test.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "configs", "pyproject.toml", "README.md")
TIMEOUT = 300.0  # seconds per pytest run

CONFTEST = '''\
from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate], database=None
)
settings.load_profile("mutants")
'''

COEFFICIENTS = "src/impulsive_logistic/coefficients.py"
CLOSED_FORM = "src/impulsive_logistic/closed_form.py"
ANALYSIS = "src/impulsive_logistic/analysis.py"
INTEGRATOR = "src/impulsive_logistic/integrator.py"
CLI = "src/impulsive_logistic/cli.py"

# name -> (file, snippet, replacement[, tests to run in place of all])
MUTATIONS = {
    "B-times-1+1e-7": (
        CLOSED_FORM,
        "G, B = params.pair.r.mean, compute_B(params.pair, params.phase)",
        "G, B = params.pair.r.mean, compute_B(params.pair, params.phase) * (1.0 + 1e-7)",
        ("tests/test_kernel.py::test_periodicity_check_catches_a_scaled_B",),
    ),
    "anchor-times-1+1e-7": (
        CLOSED_FORM,
        "x0_star = d / B if d > 0.0 else None",
        "x0_star = d / B * (1.0 + 1e-7) if d > 0.0 else None",
        ("tests/test_kernel.py::test_periodicity_check_catches_a_scaled_B",),
    ),
    "piece-sum-reads-the-previous-K": (
        COEFFICIENTS,
        "np.expm1(-step) / np.asarray(values)[piece]",
        "np.expm1(-step) / np.asarray(values)[piece - 1]",
        ("tests/test_decimal_reference.py", "tests/test_outputs.py"),
    ),
    "period-grid-drops-a-jump": (
        COEFFICIENTS,
        "return sorted_union(grid, jumps) if jumps else grid",
        "return sorted_union(grid, jumps[1:]) if jumps else grid",
    ),
    "period-grid-plain-when-something-jumps": (
        COEFFICIENTS,
        "return sorted_union(grid, jumps) if jumps else grid",
        "return grid",
        ("tests/test_coefficients.py::test_steps_and_panels_are_intervals_of_one_partition",),
    ),
    "reference-at-64-panels": (
        ANALYSIS,
        "[*offsets, 1.0], 2 * forcing_panels(params.pair)",
        "[*offsets, 1.0], forcing_panels(params.pair)",
        ("tests/test_kernel.py::test_periodicity_reference_lays_its_own_panels",),
    ),
    "reference-window-one-panel-short": (
        COEFFICIENTS,
        "zip(np.searchsorted(grid, offsets).tolist()",
        "zip(np.maximum(np.searchsorted(grid, offsets) - 1, 0).tolist()",
        ("tests/test_analysis.py::test_periodicity_golden",),
    ),
    "sinusoid-K-B-without-its-last-panel": (
        COEFFICIENTS,
        "forcing_panels(pair))\n    nodes, weights, mid = panel_rule(grid[:-1], grid[1:])",
        "forcing_panels(pair))\n    nodes, weights, mid = panel_rule(grid[:-2], grid[1:-1])",
        ("tests/test_coefficients.py::test_B_of_a_sinusoid_K_is_the_unit_forcing_window",),
    ),
    "piecewise-tables-for-one-period": (
        COEFFICIENTS,
        "for b0, b1, v in zip(bp, bp[1:], vals)] * 2",
        "for b0, b1, v in zip(bp, bp[1:], vals)]",
        ("tests/test_coefficients.py::test_piecewise_tables_match_the_numpy_construction",),
    ),
    "sinusoid-K-at-64-panels": (
        COEFFICIENTS,
        "return max(DEFAULT_PANELS_PER_UNIT, math.ceil(pair.r.mean / 4))",
        "return DEFAULT_PANELS_PER_UNIT",
        ("tests/test_kernel.py::test_B_of_a_sinusoid_K_holds_at_large_growth",),
    ),
    "geometric-sum-times-1+1e-7": (
        CLOSED_FORM,
        "total = -np.expm1(-k * consts.ln_q) / consts.d",
        "total = -np.expm1(-k * consts.ln_q) / consts.d * (1.0 + 1e-7)",
        ("tests/test_kernel.py::test_verify_catches_a_scaled_geometric_sum",),
    ),
    "C(1)-times-1+1e-4": (
        CLOSED_FORM,
        "    forcing = np.ldexp(forcing, scale)\n",
        "    forcing = np.ldexp(forcing, scale)\n"
        "    forcing[-1] *= 1.0 + (1e-4 if s[-1] == 1.0 else 0.0)\n",
    ),
    "piecewise-piece-values-reads-t": (
        COEFFICIENTS,
        'np.searchsorted(self._bp2, key - np.floor(key), side="left")',
        'np.searchsorted(self._bp2, t - np.floor(t), side="left")',
    ),
    "sinusoid-growth-without-its-phase": (
        COEFFICIENTS,
        "np.sin(self._angle(phase) + math.pi * s)",
        "np.sin(_TWO_PI * (phase - np.floor(phase)) + math.pi * s)",
    ),
    "piecewise-growth-counts-the-first-piece-whole": (
        COEFFICIENTS,
        "body = self._cum2[last] - self._cum2[first + 1]",
        "body = self._cum2[last] - self._cum2[first]",
    ),
    "fixed-point-cap-removed": (
        CLI,
        "    x_max = min(x_max, sys.float_info.max)\n",
        "",
    ),
    "fixed-point-scan-stops-at-ten-mean-capacities": (
        CLI,
        "        x_max = max(x_max, 10.0 * consts.x0_star)\n",
        "",
        ("tests/test_cli.py::test_verify_scans_above_an_anchor_past_ten_mean_capacities",),
    ),
    "legacy-grid-with-d-for-E*": (
        CLOSED_FORM,
        "consts.d / (consts.B * table.decay + consts.e_star * table.forcing)",
        "consts.d / (consts.B * table.decay + consts.d * table.forcing)",
    ),
    "rk4-second-stage-at-the-start": (
        INTEGRATOR,
        "k2 = rm * (1.0 - y / km) * y",
        "k2 = ra * (1.0 - y / ka) * y",
    ),
    "worst-deviation-skips-the-pre-values": (
        ANALYSIS,
        "worst = int(np.argmax(gap))",
        "worst = int(np.argmax(np.where("
        "np.arange(gap.size) % traj.offsets.size == traj.offsets.size - 1, 0.0, gap)))",
    ),
    "oracle-reads-every-second-sample": (
        ANALYSIS,
        "worst = int(np.argmax(gap))",
        "worst = int(np.argmax(np.where(np.arange(gap.size) % traj.offsets.size % 2, 0.0, gap)))",
        ("tests/test_kernel.py::test_oracle_check_catches_a_corrupted_table",),
    ),
    "margin-always-e-star-minus-E": (
        CLOSED_FORM,
        "d = (1.0 - E) - math.exp(-G) if E >= 0.5 else e_star - E",
        "d = e_star - E",
    ),
    "ln-q-always-log1p": (
        CLOSED_FORM,
        "ln_q = math.log1p(qm1) if qm1 > -0.5 else math.log1p(-E) + G",
        "ln_q = math.log1p(qm1)",
    ),
    "orbit-mean-at-64-panels": (
        CLOSED_FORM,
        "panels = max(DEFAULT_PANELS_PER_UNIT, math.ceil(constants[0].G))",
        "panels = DEFAULT_PANELS_PER_UNIT",
    ),
    "period-table-without-power-of-two-scaling": (
        CLOSED_FORM,
        "scale = math.frexp(ratio.max(initial=0.0))[1]",
        "scale = 0",
    ),
    "bisection-without-early-stop": (
        ANALYSIS,
        "        if not lo < mid < hi:\n            return mid\n",
        "",
    ),
    "underflow-fallback-without-C": (
        CLOSED_FORM,
        "scaled = table.decay * (lead / x0 + consts.B * total) + table.forcing",
        "scaled = table.decay * (lead / x0 + consts.B * total)",
    ),
    "time-column-keeps-its-first-fraction": (
        CLI,
        '        fractions[column] = "." + texts[at].partition(".")[2] + sep\n',
        "        if fractions[column] == sep:\n"
        '            fractions[column] = "." + texts[at].partition(".")[2] + sep\n',
        ("tests/test_emitter.py::test_tiled_tables_match_the_row_by_row_reference",),
    ),
    "end-row-takes-the-previous-period": (
        CLI,
        "pieces[-7] = k[-1]",
        "pieces[-7] = k[-2]",
        ("tests/test_emitter.py::test_tiled_tables_match_the_row_by_row_reference",),
    ),
    "subnormal-B-passes": (
        CLOSED_FORM,
        "    if B < sys.float_info.min:\n",
        "    if False:\n",
        ("tests/test_closed_form.py::test_derive_constants_refuses_a_forcing_integral_of_zero",),
    ),
    "sinusoid-K-B-warns-on-overflow": (
        COEFFICIENTS,
        'with np.errstate(over="ignore", invalid="ignore"):  # derive_constants refuses an inf B',
        "if True:",
        ("tests/test_cli.py::test_forcing_overflow_is_a_config_error",),
    ),
    "float-growth-end-on-the-right-piece": (
        COEFFICIENTS,
        "last = max(bisect_left(self._starts2, u + s) - 1, first)",
        "last = max(bisect_right(self._starts2, u + s) - 1, first)",
        ("tests/test_coefficients.py::test_float_growth_is_the_array_growth_bit_for_bit",),
    ),
    "piece-sum-stops-before-the-last-piece": (
        COEFFICIENTS,
        "zip(starts, starts[1:] + [1.0], values)",
        "zip(starts, starts[1:], values)",
        ("tests/test_decimal_reference.py", "tests/test_outputs.py"),
    ),
    "scan-drops-a-zero-gap-at-the-last-point": (
        ANALYSIS,
        "    if gaps[-1] == 0.0:\n        crossings.append(xs[-1])\n",
        "",
    ),
}


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = REPO / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)
    (dest / "conftest.py").write_text(CONFTEST, encoding="utf-8")


def _run(copy: Path, tests: tuple[str, ...] = ()) -> str:
    """The first failing test's id, "" when every test passes, or "TIMEOUT"."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    command += tests
    try:
        done = subprocess.run(
            command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT
        )
    except subprocess.TimeoutExpired:
        return "TIMEOUT"
    if done.returncode == 0:
        return ""
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 2)[1]
    return f"pytest exit {done.returncode}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy(copy)
        for name, (path, snippet, *_) in MUTATIONS.items():  # each snippet must be in the source
            found = (copy / path).read_text(encoding="utf-8").count(snippet)
            if found != 1:
                print(f"{name}: the snippet occurs {found} times in {path}", file=sys.stderr)
                return 2
        began = started = time.perf_counter()
        baseline = _run(copy)
        if baseline:
            print(f"unmutated copy fails: {baseline}", file=sys.stderr)
            return 2
        print(f"unmutated copy passes ({time.perf_counter() - started:.0f} s)", flush=True)
        survived = 0
        for name, (path, snippet, replacement, *tests) in MUTATIONS.items():
            target = copy / path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(snippet, replacement), encoding="utf-8")
            started = time.perf_counter()
            try:
                outcome = _run(copy, *tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if outcome in ("", "TIMEOUT"):
                survived += 1
            verdict = outcome if outcome else "SURVIVED"
            print(f"{name}: {verdict} ({time.perf_counter() - started:.0f} s)", flush=True)
        print(f"whole run {time.perf_counter() - began:.0f} s")
    return 1 if survived else 0

if __name__ == "__main__":
    sys.exit(main())
