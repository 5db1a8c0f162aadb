"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package whose ``__init__`` re-exports its submodules' public names
imports every one of those submodules as soon as anything under the
package is imported.  The live runtime (:mod:`repro.runtime`) uses a
few leaf modules of the simulator's packages (``repro.arch.attribution``,
``repro.protocols.sequencing``, ``repro.api.framing`` and
``repro.api.receive_buffer``); eager package inits would load the whole
simulator behind them.  A package init built on :func:`lazy_exports`
imports a submodule only when one of its names is first looked up::

    _EXPORTS = {
        "repro.arch.isa": ("InstrClass", "InstructionMix"),
        "repro.arch.attribution": ("Feature", "AttributionStack"),
    }
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    __all__ = exported_names(_EXPORTS)

``from package import Name``, ``package.Name`` and ``from package
import *`` all work as with eager imports.  The lookup hook serves
attribute access from outside only: a function defined in the package
init must import what its body uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining module to the public names the
    package re-exports from it.  The first lookup of a name imports its
    module and binds the name in the package, so later lookups are
    plain attribute reads that never reach ``__getattr__``.
    """
    origin: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *origin})

    return __getattr__, __dir__


def exported_names(exports: Mapping[str, Sequence[str]]) -> List[str]:
    """Every name of an ``exports`` table, in table order: the
    package's ``__all__``."""
    return [name for names in exports.values() for name in names]
