"""Bound states and tunneling times of asymmetric double square wells.

The package solves the exact boundary-matching equations of a double square
well between hard walls, verifies the spectra against an independent
finite-difference discretisation, derives two-level oscillation and decay
times from resonant doublets, and chains four wells into the
electron-transfer cascade model of the bacterial photosynthetic reaction
center.

The six names of ``__all__`` are loaded from their modules on first use
(PEP 562), so importing the package, or one of its modules such as
``wellcascade.cli``, loads only the modules that code needs: the
``cascade`` command never loads the oracle or the wavefunctions.
"""

from importlib import import_module

__version__ = "0.1.0"

# each exported name -> the module that defines it
_HOMES = {
    "CascadeSpec": "potential",
    "WellPair": "potential",
    "build_wavefunction": "wavefunctions",
    "fd_solve": "oracle",
    "solve_cascade": "cascade",
    "solve_pair": "eigensolver",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
