"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps each public function and method named in
``TARGETS`` and rebinds every module attribute that refers to the original,
because ``cli`` and ``analysis`` bind names such as ``solution_at`` at
import.  Nothing under ``src/`` changes; ``uninstall`` puts the originals
back.  Spans are kept in memory as parallel arrays (name, parent, start,
end); self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "impulsive_logistic"

# (module, attribute, span name, counter hook).  Missing attributes are
# skipped, so a refactor that deletes a function reports zeros for it.
TARGETS = (
    ("cli", "load_config", "cli.parse", None),
    ("cli", "cmd_constants", "cli.cmd", None),
    ("cli", "cmd_simulate", "cli.cmd", None),
    ("cli", "cmd_periodic", "cli.cmd", None),
    ("cli", "cmd_verify", "cli.cmd", None),
    ("cli", "cmd_counterexample", "cli.cmd", None),
    ("cli", "cmd_sweep", "cli.cmd", None),
    ("coefficients", "PeriodicCoefficient.__call__", "coefficients.eval", None),
    ("coefficients", "PeriodicCoefficient.antiderivative", "coefficients.antideriv", None),
    ("coefficients", "forcing_integral", "coefficients.quad", None),
    ("coefficients", "gauss_panels", "coefficients.panels", "quad_nodes"),
    ("closed_form", "derive_constants", "closed_form.derive", None),
    ("closed_form", "solution_at", "closed_form.solution", None),
    ("closed_form", "periodic_solution_at", "closed_form.periodic", None),
    ("closed_form", "periodic_orbit_mean", "closed_form.orbit_mean", None),
    ("closed_form", "poincare_map", "closed_form.poincare", None),
    ("integrator", "integrate", "integrator.integrate", "steps"),
    ("analysis", "compare_solutions", "analysis.compare", None),
    ("analysis", "verify_periodicity", "analysis.periodicity", None),
    ("analysis", "verify_impulse_condition", "analysis.impulse", None),
    ("analysis", "fixed_point_scan", "analysis.fixed_point", None),
)


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == PACKAGE]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    def name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def add(self, counter: str, amount: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + amount

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn inside a span named label."""
        idx = len(self.start)
        self.name.append(self.name_id(label))
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = perf_counter()
            self.start[idx] = t
            self._stack.pop()

    def _wrap(self, fn, label: str, hook: str | None):
        quad = self.name_id("coefficients.quad")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(label, fn, *args, **kwargs)
            if hook == "steps":
                self.add("integrator.steps", sum(len(p.times) - 1 for p in result.pieces))
            elif hook == "quad_nodes" and self.name[self._stack[-1]] == quad:
                self.add("coefficients.quad_nodes", len(result[0]))
            return result

        return wrapper

    def install(self) -> None:
        modules = package_modules()
        for module_name, attr, label, hook in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                base = getattr(module, owner_name, None)
                classes = [base] if base is not None else []
                for cls in classes:  # the base and every subclass defining it
                    classes.extend(c for c in cls.__subclasses__() if c not in classes)
                for cls in classes:
                    if method in vars(cls):
                        self._set(cls, method, self._wrap(vars(cls)[method], label, hook))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, label, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        if not self.start:
            return {}
        name = np.frombuffer(self.name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=own, minlength=k)
        return {
            label: (int(calls[i]), float(incl[i]), float(excl[i]))
            for i, label in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        """Write every span (name index, parent index, start, end) to an .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
