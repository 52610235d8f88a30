"""Exact continued fraction cylinders, critical exponents and covering bounds.

The package splits into six layers: exact digit-word arithmetic
(cfcore), high precision zeta tails (special), index sequences and
digit sets (sequences), covering machinery with critical exponents
(dimension), constructive schedules with the size/separation/Holder
checks (construction), and closed-form dimension values (hirst).  The
cli module exposes all of it as the ``cfdim`` command.  The package
exports the names in the ``__all__`` of each layer and of errors.

The layers load lazily.  ``import cfdim`` puts each layer module, errors
included, into ``sys.modules`` and onto the package at once, but a
layer's code is compiled and run only when one of its attributes is
first read.  So ``cfdim cf eval`` compiles cli, errors and cfcore and
nothing else.  Reading an exported name from the package
(``cfdim.evaluate``, ``__all__``, ``dir(cfdim)``, ``from cfdim import *``)
runs every layer; a dunder or the name of a submodule such as cli is
answered without running one.  Before Python 3.12 a layer's first load
is not thread-safe: touch the layers before starting threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the order of __all__
_LAYERS = ("cfcore", "special", "sequences", "dimension", "construction", "hirst", "errors")


def _register(layer):
    """Put the layer's module into sys.modules and onto the package; its code runs on first use."""
    spec = importlib.util.find_spec(__name__ + "." + layer)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = globals()[layer] = module
    spec.loader.exec_module(module)


for _layer in _LAYERS:
    _register(_layer)
del _layer


def __getattr__(name):
    # the import system and tools probe dunders and submodule names (cli);
    # only an exported name runs the layers
    if name == "__all__":
        return [n for layer in _LAYERS for n in globals()[layer].__all__]
    if not name.startswith("_") and name != "cli":
        for layer in _LAYERS:
            module = globals()[layer]
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return list(globals()) + __getattr__("__all__")
