"""Exact-arithmetic cohomology and crossed-extension calculator for
finite-dimensional Lie and Leibniz algebras over Q or F_p.

`crossed`, `extensions` and the layers a cohomology table never calls
(`_spaces` under `linalg`, `_classes` under `cohomology`, `_maps` under
`algebra`, `_serializer` under `workspace`) are lazy modules
(importlib.util.LazyLoader), run on first use; PEP 562 re-exports their
names here and a layer's in its home too.  So is `_fp`, the prime fields,
under `field`: a run over Q never executes it."""

import importlib.util as _util
import sys as _sys


def _lazy(name):
    """The submodule `name`, in sys.modules but run at first attribute use."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _forward(home, lazy):
    """The PEP 562 __getattr__ of module home: any global of module lazy.
    A dunder is refused without running lazy, as `from home import x` asks
    home for `__path__`."""
    def __getattr__(name):
        if name.startswith("__") or name not in vars(lazy):
            raise AttributeError(f"module {home!r} has no attribute {name!r}")
        return vars(lazy)[name]
    return __getattr__


# registered before the eager imports below, which may reach them
_spaces = _lazy("_spaces")
_classes = _lazy("_classes")
_maps = _lazy("_maps")
_serializer = _lazy("_serializer")
_fp = _lazy("_fp")
crossed = _lazy("crossed")
extensions = _lazy("extensions")
_LAZY = {"Subspace": _spaces, "serialize_workspace": _serializer,
         "PrimeField": _fp}
_LAZY.update(dict.fromkeys(
    ["Cochain", "CohomologyClass", "ShortExactSequence", "class_of",
     "coboundary", "coboundary_witness", "cohomology", "connecting_hom",
     "validate_ses"], _classes))
_LAZY.update(dict.fromkeys(
    ["ModuleMorphism", "adjoint", "leibniz_from_lie", "trivial_rep",
     "validate_morphism"], _maps))
_LAZY.update(dict.fromkeys(
    ["CrossedModule", "CrossedMorphism", "check_crossed_morphism",
     "classify2", "induced_pair", "leibniz_theta", "theta",
     "validate_crossed", "yoneda_crossed_module"], crossed))
_LAZY.update(dict.fromkeys(
    ["CrossedExtension", "ExtensionMorphism", "baer_sum",
     "check_extension_morphism", "mediate", "negate", "opext_connecting",
     "pushout", "push_forward", "split_detect", "sum_over_g",
     "validate_extension", "zero_extension"], extensions))

from .errors import CheckFailure
from .field import QQ, field_from_spec
from .linalg import LinearMap, Matrix
from .algebra import (LeibnizAlgebra, LeibnizRepresentation, LieAlgebra,
                      Representation, validate_leibniz,
                      validate_leibniz_module, validate_lie, validate_module)
from .cohomology import coboundary_matrix, cohomology_table
from .workspace import Workspace, parse_workspace

del cohomology    # the submodule; the package's `cohomology` is the function


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY[name], name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [n for n in __dir__() if not n.startswith("_")]
__version__ = "0.1.0"
