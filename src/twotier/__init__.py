"""Toolkit for designing and auditing two-tier weighted voting systems.

Exact Shapley-Shubik and Banzhaf power computation, enumeration of weighted
voting games up to isomorphism, inverse power-index search (choose weights so
the induced power vector approximates target population shares), and a Monte
Carlo simulator of a continuous median-voter model of assembly decisions.

Each module declares its public names in its own ``__all__``; the package
exports exactly those, module by module.  ``import twotier`` loads none of
the modules: each is imported when a name of it is first read (PEP 562), so
the exact core (games, power, inverse) runs without simulation or scipy.
"""

import importlib

_MODULES = ("games", "power", "inverse", "simulation", "experiments")

__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule; ``__all__``, the modules' lists joined in order; or a
    public name, from the first module in order that lists it, importing
    modules only as far as that one.  Python calls this only for a name not
    bound yet, and the result is bound here."""
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")  # the import binds it
    if name == "__all__":
        value = [n for module in _MODULES for n in __getattr__(module).__all__]
    else:
        owner = not name.startswith("_") and next((m for m in map(__getattr__, _MODULES) if name in m.__all__), None)
        if not owner:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value
