"""Source hygiene: no module defines the same top-level name twice, none
imports a name it never reads, every exported name is bound, and no package
module reads a private attribute of another object.

Python keeps only the later of two top-level definitions, so an earlier
test of the same name never runs, and nothing reports it.  An import that
nothing reads outlives the code that needed it.
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


def _sources() -> list[Path]:
    sources = sorted([*REPO.glob("src/**/*.py"), *REPO.glob("tests/**/*.py")])
    assert len(sources) > 10
    return sources


def test_no_module_defines_a_top_level_name_twice():
    found = {
        str(path.relative_to(REPO)): twice for path in _sources() if (twice := _defined_twice(path))
    }
    assert found == {}


def _unread_imports(path: Path) -> list[str]:
    """Names the module imports and never reads; a name in ``__all__`` is read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    found = {
        str(path.relative_to(REPO)): unread
        for path in _sources()
        if (unread := _unread_imports(path))
    }
    assert found == {}


def _bound_and_exported(path: Path) -> tuple[set[str], set[str], list[str]]:
    """Top-level names a module binds, those of them it imports, and its ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound, imported, exported = set(), set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                names = {alias.asname or alias.name.split(".")[0] for alias in node.names}
                bound |= names
                imported |= names
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
                if isinstance(target, ast.Name) and target.id == "__all__":
                    exported = ast.literal_eval(node.value)
    return bound, imported, exported


def test_every_exported_name_is_bound():
    package = REPO / "src" / "impulsive_logistic"
    unbound = {}
    for path in sorted(package.glob("*.py")):
        bound, _, exported = _bound_and_exported(path)
        if missing := [name for name in exported if name not in bound]:
            unbound[path.name] = missing
    assert unbound == {}
    _, imported, exported = _bound_and_exported(package / "__init__.py")
    assert sorted(exported) == sorted(imported)


def _private_reads(path: Path) -> list[str]:
    """Attributes with a leading underscore, dunders aside, read off anything
    but ``self`` or ``cls``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.endswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


def test_no_package_module_reads_a_private_attribute_of_another_object():
    # a class that needs another's hook should call its public method
    found = {
        path.name: reads
        for path in sorted((REPO / "src" / "impulsive_logistic").glob("*.py"))
        if (reads := _private_reads(path))
    }
    assert found == {}
