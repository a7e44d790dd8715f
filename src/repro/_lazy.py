"""Lazy re-exports for package roots (PEP 562).

A package root imports eagerly only what ``repro-crystal timing`` runs
and names the rest in a table: each name maps to the submodule that
defines it, relative to the package.  The submodule is imported when
the name is first read, and the value is cached in the package
namespace, so later reads never come back here.  A name that is the
submodule itself (``netlist.spice_format``) resolves to the module.
Without bytecode, every module a process imports is compiled at
start-up, so what a root does not import a CLI start does not pay for
(DESIGN.md §8).
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Tuple


def lazy_exports(package: str, table: Mapping[str, str]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of *package*, which
    resolve each name in *table* (name → submodule) on first read."""

    def __getattr__(name: str) -> object:
        submodule = table.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        found = import_module(f".{submodule}", package)
        if submodule.rpartition(".")[2] != name:
            found = getattr(found, name)
        setattr(sys.modules[package], name, found)
        return found

    def __dir__() -> List[str]:
        return sorted({*vars(sys.modules[package]), *table})

    return __getattr__, __dir__
