"""Lazy package namespaces and lazily executed modules.

Every :mod:`repro` package ``__init__`` keeps its docstring and
``__all__`` and hands :func:`attach` a map from each submodule to the
public names it supplies.  :func:`attach` returns the package's PEP 562
``__getattr__`` and ``__dir__``: the first access to an exported name
imports only the submodule that defines it and binds the name in the
package namespace, so later lookups never reach ``__getattr__``.  Any
other submodule is reachable as an attribute too (``repro.serving.engine``
after a bare ``import repro.serving``), imported on first access.
Importing a package therefore executes its ``__init__`` and nothing
else.

:func:`lazy_module` is the :class:`importlib.util.LazyLoader` recipe:
a module object that executes on its first attribute access.  The
experiment registry binds its modules this way, so resolving one
experiment executes that experiment and no other.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from types import ModuleType
from typing import Callable, Iterable, List, Mapping, Tuple


def attach(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` of ``package``.

    ``exports`` maps a submodule path relative to ``package``
    (``"engine"``, ``"core.configs"``) to the names the package
    re-exports from it.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name in source:
            module = importlib.import_module(f"{package}.{source[name]}")
            value = getattr(module, name)
        else:
            value = _submodule(package, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        namespace = vars(sys.modules[package])
        return sorted({*namespace, *namespace.get("__all__", ())})

    return __getattr__, __dir__


def _submodule(package: str, name: str) -> ModuleType:
    """Submodule ``name`` of ``package``; AttributeError when none exists.

    A module already in :data:`sys.modules` is returned as it is, so a
    :func:`lazy_module` stub stays unexecuted.
    """
    fullname = f"{package}.{name}"
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    try:
        return importlib.import_module(fullname)
    except ModuleNotFoundError as error:
        if error.name != fullname:
            raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def lazy_module(name: str) -> ModuleType:
    """Module ``name``, executed on its first attribute access.

    Returns the entry already in :data:`sys.modules` when there is one,
    executed or not, so every caller shares one module object; the
    package's ``__getattr__`` hands out the same object.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
