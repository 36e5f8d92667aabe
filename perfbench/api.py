"""Find eprsim's public functions by name, wherever the package defines them.

The per-layer metrics are named after what a function does (``audit.mz_s``),
not after the module that holds it today, so a function that moves to
another module keeps its metric.
"""

from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import eprsim


def modules() -> list[ModuleType]:
    """Every public module of the package, imported."""
    names = sorted(info.name for info in pkgutil.iter_modules(eprsim.__path__)
                   if not info.name.startswith("_"))
    return [importlib.import_module(f"eprsim.{name}") for name in names]


def find(name: str):
    """The function ``name`` from the module that defines it."""
    for module in modules():
        fn = vars(module).get(name)
        if callable(fn) and getattr(fn, "__module__", None) == module.__name__:
            return fn
    raise LookupError(f"eprsim defines no function {name!r}")


def replace(fn, stand_in) -> list[tuple[ModuleType, str, object]]:
    """Point every module-level reference to ``fn`` at ``stand_in``.

    Returns what was replaced, for ``restore``.  Calls made through a
    module attribute then go through the stand-in, whichever module the
    caller imported the name into.
    """
    replaced = []
    for module in modules():
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, stand_in)
                replaced.append((module, attr, value))
    return replaced


def restore(replaced: list[tuple[ModuleType, str, object]]) -> None:
    for module, attr, value in replaced:
        setattr(module, attr, value)
