"""numpy, bound lazily unless it is loaded (``importlib.util.LazyLoader``):
every module of the package takes ``np`` from here, and none may read an
attribute of it at import time."""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)
