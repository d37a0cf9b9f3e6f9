"""Seeded op lists for the three workloads.

An op is one ``implog`` invocation on one scenario file.  A pass is the
workload's full op list: the shipped ``configs/*.json`` as fixed ops plus
generated ops whose parameters come from ``random.Random`` seeded by
(seed, workload, pass index), so the same seed gives the same files.

The cost-setting shape of every generated op (horizon, step, E-grid size,
format, coefficient kinds) is stratified: each pass holds the same multiset
of shapes in a seed-dependent order, and only the model parameters are
drawn.  So the work per pass hardly varies between seeds, while every
seed still covers new parameters.  Parameter ranges are listed in
``README.md`` beside this file.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from reference import Coefficient

KINDS = ("constant", "sinusoid", "piecewise")
KIND_PAIRS = tuple(itertools.product(KINDS, KINDS))
CONFIG_NAMES = ("golden_constant", "overharvest", "piecewise_mixed", "sinusoid_r")
# ROADMAP item 1: each config at its defaults, at a 40-period horizon and
# at h = 1/1024.  Only commands whose output depends on those flags get
# the scaled variants; for the others they would repeat the same op.
SCALED_VARIANTS = ((), ("--periods", "40"), ("--step", "0.0009765625"))
CONFIG_VARIANTS = {
    "simulate": SCALED_VARIANTS,
    "verify": SCALED_VARIANTS,
    "periodic": SCALED_VARIANTS,
    "counterexample": ((),),
    "sweep": ((),),
    "constants": ((),),
}

# Spread of the coefficients around their period mean.
R_MEAN = (0.3, 2.0)  # log-uniform
K_MEAN = (10.0, 1000.0)  # log-uniform
R_SPREAD = 0.6
K_SPREAD = 0.4
X0_OVER_K = (0.1, 2.0)  # log-uniform
T0 = (0.05, 3.0)
LARGE_T0 = (1e6, 1e8)  # log-uniform
HUGE_GROWTH = ((600.0, 700.0), (700.0, 709.7), (709.9, 760.0), (760.0, 800.0))
NEAR_THRESHOLD = (1e-10, 1e-9)  # E* - E, log-uniform


@dataclass
class Op:
    """One ``implog`` call: command, scenario file and flags."""

    command: str
    fmt: str
    scenario: dict
    path: Path
    flags: tuple[str, ...] = ()
    e_values: tuple[float, ...] | None = None
    origin: str = "generated"

    def argv(self) -> list[str]:
        argv = [self.command, "--config", str(self.path), "--format", self.fmt, *self.flags]
        if self.e_values is not None:
            argv += ["--e-values", ",".join(repr(e) for e in self.e_values)]
        return argv

    def flag(self, name: str):
        if name in self.flags:
            return self.flags[self.flags.index(name) + 1]
        return None

    @property
    def horizon(self) -> int:
        value = self.flag("--periods")
        return int(value) if value else int(self.scenario.get("horizon_periods", 10))

    @property
    def step(self) -> float:
        value = self.flag("--step")
        return float(value) if value else float(self.scenario.get("step", 1.0 / 256.0))

    @property
    def sweep_values(self) -> tuple[float, ...]:
        if self.e_values is not None:
            return self.e_values
        return tuple(self.scenario["e_values"])


class Draw:
    """Parameter draws for one pass."""

    def __init__(self, seed: int, workload: str, pass_index: int) -> None:
        self.rng = random.Random(f"{seed}:{workload}:{pass_index}")
        # Piece counts cycle in draw order, so every pass holds the same mix.
        self.piece_counts = itertools.cycle((1, 2, 3, 4))

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.rng.uniform(math.log(lo), math.log(hi)))

    def coefficient(self, kind: str, mean: float, spread: float) -> dict:
        rng = self.rng
        if kind == "constant":
            return {"kind": "constant", "value": mean}
        if kind == "sinusoid":
            return {
                "kind": "sinusoid",
                "mean": mean,
                "amp": mean * spread * rng.uniform(-1.0, 1.0),
                "phase": rng.uniform(0.0, 2.0 * math.pi),
            }
        inner: list[float] = []
        count = next(self.piece_counts)
        while len(inner) != count or any(b - a < 0.02 for a, b in zip(inner, inner[1:])):
            inner = sorted(rng.uniform(0.05, 0.95) for _ in range(count))
        bps = [0.0, *inner, 1.0]
        values = [rng.uniform(1.0 - spread, 1.0 + spread) for _ in range(count + 1)]
        scale = mean / sum(v * (b1 - b0) for v, b0, b1 in zip(values, bps, bps[1:]))
        return {"kind": "piecewise", "breakpoints": bps, "values": [v * scale for v in values]}

    def harvest(self, ln_a: float, above: bool) -> float:
        """E below the threshold E* = 1 - 1/A, or at/above it when ``above``."""
        e_star = -math.expm1(-ln_a)
        if above and e_star < 0.999:
            return e_star + (1.0 - e_star) * self.rng.uniform(0.05, 0.9)
        return e_star * self.rng.uniform(0.05, 0.9)

    def scenario(
        self,
        kinds: tuple[str, str],
        *,
        above: bool = False,
        r_mean: float | None = None,
        t0: float | None = None,
        x0: bool = True,
        **extra,
    ) -> dict:
        r_mean = self.log_uniform(*R_MEAN) if r_mean is None else r_mean
        k_mean = self.log_uniform(*K_MEAN)
        r = self.coefficient(kinds[0], r_mean, R_SPREAD)
        big_k = self.coefficient(kinds[1], k_mean, K_SPREAD)
        scn = {
            "r": r,
            "K": big_k,
            "E": self.harvest(Coefficient(r).mean, above),
            "t0": self.rng.uniform(*T0) if t0 is None else t0,
        }
        if x0:
            scn["x0"] = k_mean * self.log_uniform(*X0_OVER_K)
        scn.update(extra)
        return scn


def strata(shapes):
    """Every (shape, (r, K) kind pair) combination once, with a rotating index.

    ``turn`` = shape index + kind-pair index; rules such as ``turn % 6 == 0``
    spread formats and options evenly over shapes and kinds, so every pass
    holds the same mix.
    """
    for i, shape in enumerate(shapes):
        for j, kinds in enumerate(KIND_PAIRS):
            yield shape, kinds, i + j


# simulate (horizon, steps per period): longer horizons at coarser steps.
TRAJECTORY_SHAPES = (
    (1, 512), (2, 512), (1, 256), (2, 256), (1, 128),
    (2, 128), (3, 128), (4, 128), (6, 128), (12, 128),
)  # fmt: skip


def _trajectory(draw: Draw, new) -> None:
    """simulate: 10 shapes x 9 kind pairs; 1 in 6 JSON, above E*, or x0 omitted."""
    for (periods, n), kinds, turn in strata(TRAJECTORY_SHAPES):
        scn = draw.scenario(
            kinds, above=turn % 6 == 1, x0=turn % 6 != 2, horizon_periods=periods, step=1.0 / n
        )
        new("simulate", "json" if turn % 6 == 0 else "csv", scn)


def _verify(draw: Draw, new) -> None:
    """verify: 6 shapes x 9 kind pairs; counterexample: horizons 1-4 x 9 kind pairs.

    All twice, so 180 generated ops, 40 of them above E*.  Op costs near
    p50 and p90 vary with the drawn parameters; twice the ops halves the
    seed-to-seed swing of op_p50_ms and op_p90_ms.
    """
    shapes = ((2, 128), (3, 128), (4, 128), (6, 128), (2, 256), (4, 256))
    for _ in range(2):
        for (periods, n), kinds, turn in strata(shapes):
            scn = draw.scenario(
                kinds, above=turn % 5 == 1, x0=turn % 5 != 2, horizon_periods=periods, step=1.0 / n
            )
            new("verify", "text" if turn % 5 == 3 else "json", scn)
        for periods, kinds, turn in strata((1, 2, 3, 4)):
            scn = draw.scenario(kinds, above=turn % 4 == 1, horizon_periods=periods)
            new("counterexample", "text" if turn % 4 == 3 else "json", scn)


def _orbit_table(draw: Draw, new) -> None:
    """sweep, periodic and constants, 9 kind pairs each, with the item-4 edge cases.

    Growth integrals of 600..800 use a constant r (the ROADMAP case is r = 710).
    Which ops fail on today's code, and why, is listed in ``README.md``.
    """
    rng = draw.rng
    # sweep: E grids of 3, 5, 7 values, 60% below E*; 1 in 3 adds E* - 1e-10..1e-9;
    # one per grid size (a constant r, each K kind once) with a growth integral
    # of 600..700.
    for (index, size), kinds, turn in strata(tuple(enumerate((3, 5, 7)))):
        huge = kinds == ("constant", KINDS[index])
        scn = draw.scenario(kinds, r_mean=rng.uniform(600.0, 700.0) if huge else None, x0=False)
        ln_a = Coefficient(scn["r"]).mean
        below = math.ceil(0.6 * size)
        grid = [draw.harvest(ln_a, above=i >= below) for i in range(size)]
        if turn % 3 == 0:
            grid[0] = -math.expm1(-ln_a) - draw.log_uniform(*NEAR_THRESHOLD)
        rng.shuffle(grid)
        if turn % 2:
            new("sweep", "csv", scn, e_values=tuple(grid))
        else:
            scn["e_values"] = grid
            new("sweep", "json" if turn % 4 == 0 else "csv", scn)
    # One more with a growth integral of 650..700 and an E of 0.94..0.96,
    # where periodic_orbit_mean is off by 2e-8..9e-8 (ROADMAP item 4): a
    # known failure in every pass.
    scn = draw.scenario(("constant", "constant"), r_mean=rng.uniform(650.0, 700.0), x0=False)
    grid = [rng.uniform(0.94, 0.96), draw.harvest(scn["r"]["value"], above=False)]
    new("sweep", "csv", scn, e_values=tuple(grid))
    # periodic: long tiled horizons; 1 in 6 above E*, 1 in 6 with t0 >= 1e6,
    # three with growth integrals of 600..700.
    for (periods, n), kinds, turn in strata(((20, 512), (50, 256), (200, 128))):
        huge = turn == 3
        scn = draw.scenario(
            ("constant", kinds[1]) if huge else kinds,
            above=turn % 6 == 1,
            r_mean=rng.uniform(600.0, 700.0) if huge else None,
            t0=draw.log_uniform(*LARGE_T0) if turn % 6 == 4 else None,
            x0=False,
            horizon_periods=periods,
            step=1.0 / n,
        )
        new("periodic", "json" if turn % 3 == 0 and periods <= 50 else "csv", scn)
    # constants: plain (1 in 3 above E*), E within 1e-9 of E*, t0 up to 1e8,
    # and growth integrals up to 800 (two past exp overflow); all four
    # times, so that cheap ops are about 70% of the pass and op_p50_ms sits
    # well inside them, not near the steep edge between them and the orbit
    # tables.
    for _ in range(4):
        for group, kinds, turn in strata(("plain", "near", "late", "huge")):
            fmt = "json" if turn % 2 else "text"
            if group == "huge" and turn - 3 < len(HUGE_GROWTH):  # turn - 3: kind-pair index
                scn = draw.scenario(
                    ("constant", kinds[1]), r_mean=rng.uniform(*HUGE_GROWTH[turn - 3]), x0=False
                )
            elif group == "near":
                scn = draw.scenario(kinds, x0=False)
                scn["E"] = -math.expm1(-Coefficient(scn["r"]).mean) - draw.log_uniform(
                    *NEAR_THRESHOLD
                )
            elif group == "late":
                scn = draw.scenario(kinds, t0=draw.log_uniform(*LARGE_T0), x0=False)
            else:
                scn = draw.scenario(kinds, above=turn % 3 == 0, x0=False)
            new("constants", fmt, scn)


WORKLOADS = {
    "trajectory": (_trajectory, ("simulate",)),
    "verify": (_verify, ("verify", "counterexample")),
    "orbit_table": (_orbit_table, ("sweep", "periodic", "constants")),
}

DEFAULT_FORMAT = {
    "constants": "text",
    "simulate": "csv",
    "periodic": "csv",
    "verify": "json",
    "counterexample": "json",
    "sweep": "csv",
}


def config_ops(root: Path, commands: tuple[str, ...]) -> list[Op]:
    """The shipped configs as fixed ops for the given commands."""
    ops = []
    for command in commands:
        for name in CONFIG_NAMES:
            path = root / "configs" / f"{name}.json"
            scenario = json.loads(path.read_text(encoding="utf-8"))
            for flags in CONFIG_VARIANTS[command]:
                ops.append(
                    Op(command, DEFAULT_FORMAT[command], scenario, path, flags, origin=name)
                )
    return ops


def build_pass(workload: str, seed: int, pass_index: int, root: Path, out_dir: Path) -> list[Op]:
    """Write one pass's scenario files under out_dir and return its ops, shuffled."""
    generate, commands = WORKLOADS[workload]
    draw = Draw(seed, workload, pass_index)
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = config_ops(root, commands)

    def new(command: str, fmt: str, scenario: dict, e_values=None) -> None:
        path = out_dir / f"p{pass_index}-{len(ops):03d}.json"
        path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        ops.append(Op(command, fmt, scenario, path, e_values=e_values))

    generate(draw, new)
    draw.rng.shuffle(ops)
    return ops
