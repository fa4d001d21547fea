"""Operator wave propagators from one dimensional cosines.

The package evaluates cos(t sqrt(A1^2 + ... + An^2)) and its sine
companion three independent ways: commuting families through sphere and
ball averages, taken on the simplex, with a derivative ladder; non
commuting pairs through a splitting series in the Trotter limit; and
periodic grids through kernel averaging, each validated against spectral
oracles.

Imports are lazy so the command line entry point can pin the BLAS thread
count before numpy initialises its pools.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module is listed after the modules it imports, so a lookup loads
# only the modules before the name's own: numpy-only ones and its imports
_MODULES = ("operators", "fields", "quadrature", "ascent", "trotter", "pde")


def _exports() -> list:
    return sorted(name for module in _MODULES
                  for name in import_module(f".{module}", __name__).__all__) + ["__version__"]


def __getattr__(name):
    if name == "__all__":
        return _exports()
    for module in _MODULES:
        mod = import_module(f".{module}", __name__)
        if name in mod.__all__:
            return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return _exports()
