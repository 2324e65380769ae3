"""Lazy package exports (PEP 562): import what you use.

A package ``__init__`` that eagerly imports every submodule makes
``import repro.net.client`` pay for the fleet, the load generators and
the protocol zoo.  :func:`lazy_exports` resolves the same public names
on first access instead::

    __all__, __getattr__, __dir__ = lazy_exports(
        __name__, {"server": "NetServer", "client": "NetClient ..."}
    )

``from package import name``, ``package.name``, star-imports and
``dir()`` behave as with eager imports; a resolved name is cached in the
package namespace, so it is looked up once.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``; ``exports``
    maps each submodule to the space-separated names it defines."""
    home = {name: sub for sub, names in exports.items() for name in names.split()}
    namespace = sys.modules[package].__dict__
    if any(name == sub for name, sub in home.items()):
        # An export named like its submodule (``repro.sim.fuzz``) stays
        # the export, as ``from .fuzz import fuzz`` made it: the import
        # system may not rebind the name to the submodule it loads.
        class _Package(ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                if home.get(name) != name or not isinstance(value, ModuleType):
                    super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        namespace[name] = value = getattr(module, name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__
