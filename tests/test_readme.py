"""The ``## Library`` example of README.md runs and prints what it says."""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_runs_and_matches_its_comments():
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    half_period = 100.0 * (2.0 - math.sqrt(2.0))  # 58.5786...
    assert namespace["consts"].x0_star == pytest.approx(50.0, rel=1e-13)
    assert namespace["x"][1, 1] == pytest.approx(half_period, rel=1e-12)
    orbit = namespace["orbit"]
    assert orbit[1] == pytest.approx(half_period, rel=1e-12)
    assert orbit[2] == pytest.approx(200.0 / 3.0, rel=1e-12)
    assert orbit[0] == pytest.approx(50.0, rel=1e-13)


def test_readme_flags_are_the_cli_options():
    from impulsive_logistic import cli

    text = README.read_text(encoding="utf-8")
    paragraph = text.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    named = re.findall(r"--[a-z][a-z-]*", paragraph)
    options = list(dict.fromkeys(name for opts in cli._OPTIONS.values() for name in opts))
    assert named == options
