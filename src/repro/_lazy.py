"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package names the leaf module that defines each of its public
names; the leaf imports on the first attribute access, and the value
is cached in the package globals so every later lookup is a plain
dict hit.  Importing one leaf (``repro.simnet.addr``) therefore runs
no sibling module, and a command loads only the layers it executes.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, exports: "Mapping[str, Sequence[str]]"
                 ) -> "Tuple[Callable, Callable, List[str]]":
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps each submodule (relative name) to the public
    names it defines.  Use as the whole body of an ``__init__``::

        __getattr__, __dir__, __all__ = lazy_exports(__name__, {
            "addr": ("Family", "parse_address"),
        })
    """
    origin: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if name in origin:
                raise ValueError(f"{package}: {name!r} exported by both "
                                 f"{origin[name]!r} and {module!r}")
            origin[name] = module
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> "List[str]":
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
