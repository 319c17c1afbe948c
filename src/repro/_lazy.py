"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package lists its public names by submodule; each submodule is
imported the first time one of its names is read, so importing the
package itself costs nothing beyond the ``__init__``::

    __getattr__, __dir__ = lazy_exports(__name__, {".spec": ("load_spec",)})
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Iterable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, Iterable[str]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving each name in
    ``exports`` (relative submodule -> names) on first access."""
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | origin.keys())

    return __getattr__, __dir__
