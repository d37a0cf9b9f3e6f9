"""Source hygiene: no module defines the same top-level name twice.

Python keeps only the later of two top-level definitions, so an earlier
test of the same name never runs, and nothing reports it.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def _defined_twice(path: Path) -> list[str]:
    first: dict[str, int] = {}
    twice = []
    for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in first:
                twice.append(f"{node.name} (lines {first[node.name]} and {node.lineno})")
            first.setdefault(node.name, node.lineno)
    return twice


def test_no_module_defines_a_top_level_name_twice():
    sources = sorted([*REPO.glob("src/**/*.py"), *REPO.glob("tests/**/*.py")])
    assert len(sources) > 10
    found = {
        str(path.relative_to(REPO)): twice for path in sources if (twice := _defined_twice(path))
    }
    assert found == {}
