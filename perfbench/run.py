"""Benchmark of the ``implog`` CLI on seeded, checked workloads.

Run from the repository root:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 25 --trace 0

One client runs a closed loop in this process: each op is one
``impulsive_logistic.cli.main(argv)`` call on one scenario file, with
stdout captured and checked against ``reference.py`` afterwards (untimed).
A pass runs the workload's op list (see ``scenarios.py``) once, timed, then
every tenth op again, untimed, whose output must be byte-identical.
Passes repeat, each with fresh scenarios, while another pass still fits in
``--seconds``; at least one pass always runs.  Caches in the package are
cleared before every op, as a fresh ``implog`` process would start.

Times in the end-to-end metrics are scaled to a reference host speed.
The speed of a shared host drifts by tens of percent within a second and
from minute to minute, and it slows the package and a fixed kernel of
numpy ufuncs and interpreted Python, ``probe()``, alike.  So the probe
runs a few times just before and just after every timed op and, on a
timer signal, every ``TICK_S`` during it; the op's wall time less the
probes inside it is reported as ``seconds * REF_PROBE_S / mean probe
time``: what it would take on a host where the probe takes
``REF_PROBE_S``.  Set-up children do the same with the probe's loop
alone (``setup_probe.py``).  The probe shares no code with the package,
so a change to the package moves these times as much as it moves the raw
ones; the raw times are printed and saved beside them.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the op list plain and then with spans around the
package's public functions (``tracer.py``), and prints the per-layer
metrics, per traced pass.  Either way the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Details (sample
counts, failures, environment) go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_CHILDREN = 7
# What parsing a malformed output may raise besides CheckError.
UNREADABLE = (ArithmeticError, AttributeError, IndexError, KeyError, TypeError, ValueError)
IMPORT_GROUPS = {"numpy": "numpy", "scipy": "scipy", "impulsive_logistic": "package"}
REPRODUCE_EVERY = 10
SETUP_TIMEOUT_S = 60
PROBE_CONFIG = ROOT / "configs" / "piecewise_mixed.json"
COMMANDS = ("constants", "simulate", "periodic", "verify", "counterexample", "sweep")
# Host speed probe: PROBE_PASSES ufunc passes over PROBE_N floats, then
# setup_probe.loop_probe(), each about half of its 0.15-0.25 ms on the
# 2-vCPU VMs the bounds were set on.  Numpy alone tracks the package's long
# ops well but under-corrects its short ones; the loop corrects that.
PROBE_N = 2000
PROBE_PASSES = 4
REF_PROBE_S = 2e-4
REF_LOOP_S = 1.2e-4  # the loop alone, as set-up children run it

sys.path.insert(0, str(HERE))

from check import CheckError, KnownDefect, check, known_crash  # noqa: E402
from scenarios import WORKLOADS, Op, build_pass, config_ops  # noqa: E402
from setup_probe import END_PROBES, TICK_S, loop_probe  # noqa: E402
from tracer import Tracer, package_modules  # noqa: E402


def probe() -> float:
    """Seconds for a fixed kernel that shares no code with the package."""
    a = np.arange(PROBE_N, dtype=float)
    start = time.perf_counter()
    for _ in range(PROBE_PASSES):
        a = np.sin(a) + 1.0
    loop_probe()
    return time.perf_counter() - start


class SpeedSampler:
    """Probe times around and, on SIGALRM every TICK_S, during a timed op."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.ticked = 0.0  # seconds spent probing inside the op
        self.on = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.on:
            seconds = probe()
            self.samples.append(seconds)
            self.ticked += seconds

    def start(self, ticks: bool) -> None:
        self.samples = [probe() for _ in range(END_PROBES)]
        self.ticked = 0.0
        if ticks:
            self.on = True
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float:
        """Seconds spent probing since start(); the end probes run after this."""
        self.on = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return self.ticked

    def speed(self) -> float:
        """Mean probe time around and during the op."""
        self.samples.extend(probe() for _ in range(END_PROBES))
        return statistics.fmean(self.samples)


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


class Result:
    """Outcome of one timed op."""

    def __init__(
        self,
        op: Op,
        seconds: float,
        cpu_seconds: float,
        probe_s: float,
        code,
        stdout: str,
        raised: str | None,
    ) -> None:
        self.op = op
        self.seconds = seconds
        self.cpu_seconds = cpu_seconds
        self.probe_s = probe_s  # mean probe time around and during the op
        self.digest = digest(code, stdout)
        self.out_bytes = len(stdout.encode())
        self.rows = 0
        self.error = raised
        self.known = False  # failed only by a defect that ROADMAP item 4 lists
        if raised is not None:
            self.known = known_crash(op, raised)
            return
        try:
            self.rows = check(op, code, stdout)
        except KnownDefect as exc:
            self.error, self.known = str(exc), True
        except CheckError as exc:
            self.error = str(exc)
        except UNREADABLE as exc:
            self.error = f"unreadable output: {exc!r}"

    @property
    def ref_seconds(self) -> float:
        """Wall time scaled to a host where the probe takes REF_PROBE_S."""
        return self.seconds * REF_PROBE_S / self.probe_s

    @property
    def wrong(self) -> bool:
        """Failed by anything but a known defect: the run is not correct."""
        return self.error is not None and not self.known

    def mark_wrong(self, reason: str) -> None:
        self.error = f"{self.error}; {reason}" if self.error else reason
        self.known = False


class Runner:
    """Runs ops in-process through ``cli.main``."""

    def __init__(self, cli, ticks: bool) -> None:
        self.cli = cli
        self.ticks = ticks  # probe during ops (not in traced runs: it would skew spans)
        caches = {}
        for module in package_modules():
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
        self.caches = list(caches.values())
        closed_form = sys.modules.get(cli.__package__ + ".closed_form")
        self.derive_cache = getattr(closed_form, "derive_constants", None)
        self.sampler = SpeedSampler()

    def invoke(self, op: Op, tracer=None):
        for cache in self.caches:
            cache.cache_clear()
        argv = op.argv()
        out, err = io.StringIO(), io.StringIO()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.sampler.start(self.ticks)
            cpu_start = time.process_time()
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(argv)
                else:
                    code = tracer.call(f"cli.{op.command}.op", self.cli.main, argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # an escaping exception fails the op, not the run
                code, raised = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            cpu_seconds = time.process_time() - cpu_start
            ticked = self.sampler.stop()
        seconds -= ticked
        cpu_seconds -= ticked
        probe_s = self.sampler.speed()
        if tracer is not None and hasattr(self.derive_cache, "cache_info"):
            tracer.add("closed_form.derive_misses", self.derive_cache.cache_info().misses)
        return seconds, cpu_seconds, probe_s, code, out.getvalue(), raised

    def run_pass(self, ops: list[Op], tracer=None) -> list[Result]:
        """Each op once, checked after it returns."""
        return [Result(op, *self.invoke(op, tracer)) for op in ops]

    def reproduce(self, results: list[Result]) -> None:
        """Run every REPRODUCE_EVERY-th op again, untimed; its output must not change."""
        for res in results[::REPRODUCE_EVERY]:
            _, _, _, code, stdout, _ = self.invoke(res.op)
            if digest(code, stdout) != res.digest:
                res.mark_wrong("second run gave different output")


# -- set-up -------------------------------------------------------------------


def run_children() -> tuple[list[float], list[float], dict[str, list[float]]]:
    """Fresh interpreters that import the CLI and parse a scenario, one at a time.

    Returns each child's wall time, raw and scaled by the probes it ran
    (``setup_probe.py``), and, from its ``-X importtime`` report,
    the self import time of numpy's, scipy's and the package's own modules
    (standard-library modules they pull in count in none of the three).
    """
    probe_argv = [str(HERE / "setup_probe.py"), str(SRC), str(PROBE_CONFIG)]
    cmd = [sys.executable, "-X", "importtime", *probe_argv]
    walls: list[float] = []
    scaled: list[float] = []
    groups: dict[str, list[float]] = {name: [] for name in IMPORT_GROUPS.values()}
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probes = json.loads(proc.stdout)
        scaled.append((walls[-1] - probes["ticked_s"]) * REF_LOOP_S / probes["probe_s"])
        totals = dict.fromkeys(groups, 0.0)
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "self [us]" not in line:
                self_us, _, name = line[len("import time:") :].split("|")
                group = IMPORT_GROUPS.get(name.strip().split(".")[0])
                if group:
                    totals[group] += int(self_us) / 1e6
        for name, seconds in totals.items():
            groups[name].append(seconds)
    return walls, scaled, groups


# -- metrics ------------------------------------------------------------------


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics, with weights from the
    Beta(p (n+1), (1-p) (n+1)) distribution over [i-1, i] / n.  It moves
    less between runs than a single order statistic when the ops near that
    rank differ in cost.
    """
    x = np.sort(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    u = np.linspace(0.0, 1.0, 100 * n + 1)[1:-1]
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    mass = np.exp(log_pdf - log_pdf.max())
    weights = np.add.reduceat(mass, np.arange(0, len(u), 100))[:n]
    return float(np.dot(weights, x) / weights.sum())


def end_to_end(results: list[Result], walls: list[float], setup: list[float]) -> dict:
    """The end-to-end metrics from reference-speed times (see the module docstring)."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [r.ref_seconds * 1e3 for r in results]
    busy = sum(r.ref_seconds for r in results)
    failed = sum(1 for r in results if r.error)
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(walls), len(walls)),
        "op_p50_ms": (quantile(latencies, 0.5), len(latencies)),
        "op_p90_ms": (quantile(latencies, 0.9), len(latencies)),
        "rows_per_s": (sum(r.rows for r in results) / busy, len(results)),
        "ok_ratio": ((len(results) - failed) / len(results), len(results)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


def per_layer(tracer, traced: list[Result], passes: int, breakdown, overhead: float) -> dict:
    totals = tracer.totals()

    def calls(label: str) -> float:
        return totals.get(label, (0, 0.0, 0.0))[0] / passes

    def incl(label: str) -> float:
        return totals.get(label, (0, 0.0, 0.0))[1] / passes

    def excl(label: str) -> float:
        return totals.get(label, (0, 0.0, 0.0))[2] / passes

    def count(name: str) -> float:
        return tracer.counts.get(name, 0.0) / passes

    points = calls("closed_form.solution") + calls("closed_form.periodic")
    steps = count("integrator.steps")
    metrics = {f"setup.{name}_import_s": statistics.median(vals) for name, vals in breakdown.items()}
    metrics.update(
        {
            "cli.parse_s": incl("cli.parse"),
            "cli.cmd_self_s": excl("cli.cmd"),
            "cli.out_bytes": sum(r.out_bytes for r in traced) / passes,
            "cli.rows": sum(r.rows for r in traced) / passes,
            **{f"cli.{cmd}.op_s": incl(f"cli.{cmd}.op") for cmd in COMMANDS},
            "coefficients.eval_calls": calls("coefficients.eval"),
            "coefficients.eval_s": incl("coefficients.eval"),
            "coefficients.antideriv_calls": calls("coefficients.antideriv"),
            "coefficients.antideriv_s": incl("coefficients.antideriv"),
            "coefficients.quad_calls": calls("coefficients.quad"),
            "coefficients.quad_s": excl("coefficients.quad"),
            "coefficients.quad_nodes": count("coefficients.quad_nodes"),
            "coefficients.panels_s": incl("coefficients.panels"),
            "closed_form.derive_calls": calls("closed_form.derive"),
            "closed_form.derive_misses": count("closed_form.derive_misses"),
            "closed_form.solution_calls": calls("closed_form.solution"),
            "closed_form.solution_s": incl("closed_form.solution"),
            "closed_form.periodic_calls": calls("closed_form.periodic"),
            "closed_form.periodic_s": incl("closed_form.periodic"),
            "closed_form.orbit_mean_s": incl("closed_form.orbit_mean"),
            "closed_form.poincare_calls": calls("closed_form.poincare"),
            "closed_form.quad_nodes_per_point": (
                count("coefficients.quad_nodes") / points if points else 0.0
            ),
            "integrator.calls": calls("integrator.integrate"),
            "integrator.s": incl("integrator.integrate"),
            "integrator.steps": steps,
            "integrator.us_per_step": incl("integrator.integrate") / steps * 1e6 if steps else 0.0,
            "analysis.compare_s": excl("analysis.compare"),
            "analysis.periodicity_s": excl("analysis.periodicity"),
            "analysis.impulse_s": excl("analysis.impulse"),
            "analysis.fixed_point_s": excl("analysis.fixed_point"),
            "trace.overhead_s": overhead,
        }
    )
    return {name: (value, None) for name, value in metrics.items()}


# -- environment and report ---------------------------------------------------


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def op_table(results: list[Result]) -> list[list]:
    """One row per op: command, format, origin, kinds, horizon, step, ms, cpu ms,
    probe ms, rows."""
    return [
        [r.op.command, r.op.fmt, r.op.origin, r.op.scenario["r"]["kind"],
         r.op.scenario["K"]["kind"], r.op.horizon, r.op.step, r.seconds * 1e3,
         r.cpu_seconds * 1e3, r.probe_s * 1e3, r.rows]
        for r in results
    ]


def failures(results: list[Result]) -> list[dict]:
    return [
        {"command": r.op.command, "origin": r.op.origin, "argv": r.op.argv()[3:], "error": r.error,
         "known_defect": r.known, "scenario": r.op.scenario}
        for r in results
        if r.error
    ]


def report(args, spec: dict, metrics: dict, results: list[Result], extra: dict) -> None:
    """Print the metrics (value, samples) and the result line; save the record."""
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {set(units) ^ set(metrics)}")
    failed = sum(1 for r in results if r.error)
    env = environment()
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(results)} failed={failed}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        value, samples = metrics[name]
        print(f"  {name:<34} {value:>16.6g} {unit}" + (f"  (n={samples})" if samples else ""))
    if not args.trace:
        known = sum(1 for r in results if r.error and r.known)
        print(f"  fail_ratio {failed / len(results):.6g} ({failed}/{len(results)} ops, "
              f"{known} by known defects)")
        raw_ms = [r.seconds * 1e3 for r in results]
        print(f"  unscaled: wall_s {statistics.median(extra['raw_pass_s']):.6g}, "
              f"op_p50_ms {quantile(raw_ms, 0.5):.6g}, op_p90_ms {quantile(raw_ms, 0.9):.6g}, "
              f"setup_s {statistics.median(extra['raw_setup_children_s']):.6g}; median probe "
              f"{statistics.median(r.probe_s for r in results) * 1e3:.4g} ms "
              f"(reference {REF_PROBE_S * 1e3:g} ms)")
    for fail in failures(results)[:5]:
        print(f"  FAILED {fail['command']} ({fail['origin']}): {fail['error'][:200]}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "failures": failures(results),
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    line = {
        "correct": not any(r.wrong for r in results),
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": unit} for k, unit in units.items()},
    }
    print(json.dumps(line))


# -- main -----------------------------------------------------------------------


def repeat_passes(args, run_dir: Path, run_one) -> None:
    """run_one(ops) on fresh passes while one more pass still fits in --seconds."""
    spent, index = 0.0, 0
    while True:
        start = time.perf_counter()
        run_one(build_pass(args.workload, args.seed, index, ROOT, run_dir))
        shutil.rmtree(run_dir)
        index += 1
        last = time.perf_counter() - start
        spent += last
        if spent + last > args.seconds:
            return


def plain_run(args, runner: Runner, run_dir: Path):
    results: list[Result] = []
    walls: list[float] = []
    raw_walls: list[float] = []
    cpu_walls: list[float] = []

    def one(ops: list[Op]) -> None:
        batch = runner.run_pass(ops)
        runner.reproduce(batch)
        results.extend(batch)
        walls.append(sum(r.ref_seconds for r in batch))
        raw_walls.append(sum(r.seconds for r in batch))
        cpu_walls.append(sum(r.cpu_seconds for r in batch))

    repeat_passes(args, run_dir, one)
    raw_setup, setup, _ = run_children()
    extra = {
        "pass_s": walls,
        "raw_pass_s": raw_walls,
        "cpu_pass_s": cpu_walls,
        "setup_children_s": setup,
        "raw_setup_children_s": raw_setup,
        "ops": op_table(results),
    }
    return end_to_end(results, walls, setup), results, extra


def traced_run(args, runner: Runner, run_dir: Path):
    tracer = Tracer()
    results: list[Result] = []
    traced: list[Result] = []
    plain_walls: list[float] = []
    walls: list[float] = []

    def one(ops: list[Op]) -> None:
        plain = runner.run_pass(ops)
        tracer.install()
        try:
            spanned = runner.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        for a, b in zip(plain, spanned):
            if a.digest != b.digest:
                b.mark_wrong("traced run gave different output")
        plain_walls.append(sum(r.seconds for r in plain))
        walls.append(sum(r.seconds for r in spanned))
        results.extend(plain + spanned)
        traced.extend(spanned)

    repeat_passes(args, run_dir, one)
    _, _, breakdown = run_children()
    overhead = statistics.median(walls) - statistics.median(plain_walls)
    metrics = per_layer(tracer, traced, len(walls), breakdown, overhead)
    tracer.write(OUT / f"spans-{args.workload}.npz")
    extra = {"plain_pass_s": plain_walls, "traced_pass_s": walls, "spans": len(tracer.start)}
    return metrics, results, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "impulsive_logistic" / "cli.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no impulsive_logistic sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from impulsive_logistic import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported {cli.__file__}, not the checkout's", file=sys.stderr)
        return 2

    runner = Runner(cli, ticks=not args.trace)
    run_dir = OUT / f"scenarios-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner.invoke(config_ops(ROOT, ("constants",))[0])  # warm-up, untimed
        run = traced_run if args.trace else plain_run
        metrics, results, extra = run(args, runner, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    report(args, spec, metrics, results, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
