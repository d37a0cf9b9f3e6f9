"""Self-test of the output checker: real outputs pass, corrupted ones fail.

Run from the repository root:  python3 perfbench/selftest.py

Each command runs once on a small scenario through ``cli.main``.  The
checker must accept that output, accept it again with one number moved by
a few ulps (numbers are compared within tolerance, not as bytes), and
reject each deliberately corrupted copy as a new wrong answer, not as
one of the known defects of ROADMAP item 4, which it must still tell
apart.  Only the text handed to the checker is corrupted; the program is
not touched.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from check import CheckError, KnownDefect, check, known_crash  # noqa: E402
from scenarios import Op  # noqa: E402

SCENARIO = {
    "r": {"kind": "sinusoid", "mean": 0.9, "amp": 0.3, "phase": 0.4},
    "K": {"kind": "piecewise", "breakpoints": [0.0, 0.4, 1.0], "values": [80.0, 120.0]},
    "E": 0.3,
    "t0": 0.7,
    "x0": 40.0,
    "horizon_periods": 2,
    "step": 1.0 / 64.0,
    "e_values": [0.1, 0.3, 0.9],
}
CONSTANT = {
    "r": {"kind": "constant", "value": 0.6931471805599453},
    "K": {"kind": "constant", "value": 100.0},
    "E": 0.25,
    "t0": 0.5,
    "x0": 50.0,
    "horizon_periods": 2,
    "step": 1.0 / 64.0,
    "e_values": [0.0, 0.25, 0.6],
}
# ROADMAP item 4: periodic_orbit_mean is off by ~8e-8 here.
HUGE = {
    "r": {"kind": "constant", "value": 690.0},
    "K": {"kind": "sinusoid", "mean": 50.0, "amp": 10.0, "phase": 1.0},
    "E": 0.95,
    "t0": 0.5,
    "e_values": [0.95, 0.5],
}


def run(op: Op) -> tuple[int, str]:
    from impulsive_logistic import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv())
    return code, out.getvalue()


def nudge(text: str, target: str, factor: float) -> str:
    """Multiply the first number spelled exactly ``target`` by factor."""
    value = float(target)
    return text.replace(target, repr(value * factor), 1)


def move_mean(op: Op, text: str, factor: float) -> str:
    """Multiply the x_star_mean of the first sweep row by factor."""
    if op.fmt == "json":
        data = json.loads(text)
        data["rows"][0][3] *= factor
        return json.dumps(data)
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * factor)
    lines[1] = ",".join(cells)
    return "\n".join(lines)


def last_value(text: str) -> str:
    """The last number in the output written with a decimal point and >= 1e-3."""
    cells = text.replace("\n", ",").replace(" ", ",").split(",")
    found = ""
    for cell in cells:
        try:
            if "." in cell and 1e-3 <= abs(float(cell)) < math.inf:
                found = cell
        except ValueError:
            pass
    return found


def main() -> int:
    work = ROOT / ".bench_out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(work: Path) -> int:
    cases = []
    for name, scenario in (("smooth", SCENARIO), ("constant", CONSTANT)):
        path = work / f"{name}.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        for command, fmt in (
            ("simulate", "csv"),
            ("simulate", "json"),
            ("periodic", "csv"),
            ("sweep", "csv"),
            ("sweep", "json"),
            ("constants", "text"),
            ("constants", "json"),
            ("verify", "json"),
            ("verify", "text"),
            ("counterexample", "json"),
            ("counterexample", "text"),
        ):
            cases.append(Op(command, fmt, scenario, path, origin=name))

    problems = []
    for op in cases:
        label = f"{op.command} {op.fmt} ({op.origin})"
        code, text = run(op)
        try:
            check(op, code, text)
        except CheckError as exc:
            problems.append(f"{label}: real output rejected: {exc}")
            continue
        corrupted = {
            "exit code": (1 - code, text),
            "truncated": (code, text[: len(text) // 2]),
        }
        if op.command in ("simulate", "periodic", "sweep", "constants"):
            value = last_value(text)
            try:
                check(op, code, nudge(text, value, 1.0 + 2.0**-51))
            except CheckError as exc:
                problems.append(f"{label}: a 2-ulp change was rejected: {exc}")
            corrupted["a value moved by 1e-6"] = (code, nudge(text, value, 1.0 + 1e-6))
        if op.command in ("verify", "counterexample"):
            if op.fmt == "json":
                flipped = text.replace(": true", ": false", 1)
            else:
                flipped = text.rstrip("\n").rsplit("\n", 1)[0] + "\nSOME CHECKS FAILED\n"
            corrupted["verdict flipped"] = (code, flipped)
        if op.command == "sweep":
            corrupted["exists flipped"] = (code, text.replace("true", "false", 1))
            corrupted["orbit mean moved by 1e-7"] = (code, move_mean(op, text, 1.0 + 1e-7))
        if op.command in ("periodic", "simulate") and op.fmt == "csv":
            lines = text.split("\n")
            corrupted["row dropped"] = (code, "\n".join(lines[:5] + lines[6:]))
        for what, (bad_code, bad_text) in corrupted.items():
            problems += rejected(label, what, op, bad_code, bad_text)

    problems += known_defects(work)
    for line in problems:
        print(line)
    print(f"selftest: {len(cases)} outputs, {len(problems)} problems")
    return 1 if problems else 0


UNREADABLE = (ArithmeticError, AttributeError, IndexError, KeyError, TypeError, ValueError)


def rejected(label: str, what: str, op: Op, code, text: str) -> list[str]:
    """[] if the checker rejects the output as a new wrong answer, else the problem."""
    try:
        check(op, code, text)
    except KnownDefect:
        return [f"{label}: corruption passed off as a known defect: {what}"]
    except (CheckError, *UNREADABLE):
        return []
    return [f"{label}: corruption not caught: {what}"]


def known_defects(work: Path) -> list[str]:
    """The ROADMAP item 4 defects are told apart from other failures."""
    problems = []
    path = work / "huge.json"
    path.write_text(json.dumps(HUGE), encoding="utf-8")
    op = Op("sweep", "csv", HUGE, path, origin="huge")
    code, text = run(op)
    try:
        check(op, code, text)  # passes once ROADMAP item 4 is fixed
    except KnownDefect:
        pass
    except CheckError as exc:
        problems.append(f"sweep (huge): real output not a known defect: {exc}")
    moved = move_mean(op, text, 1.0 + 1e-5)
    problems += rejected("sweep (huge)", "orbit mean moved by 1e-5", op, code, moved)
    overflow = dict(HUGE, r={"kind": "constant", "value": 710.0})
    cases = (
        (overflow, "OverflowError: math range error", True),
        (overflow, "ValueError: math domain error", False),
        (CONSTANT, "OverflowError: math range error", False),
    )
    for scenario, raised, want in cases:
        if known_crash(Op("constants", "text", scenario, path), raised) is not want:
            problems.append(f"constants: known_crash({raised!r}) is not {want}")
    return problems


if __name__ == "__main__":
    sys.exit(main())
