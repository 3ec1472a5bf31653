"""Exact-arithmetic cohomology and crossed-extension calculator for
finite-dimensional Lie and Leibniz algebras over Q or F_p.

`crossed` and `extensions` run on first use: they are lazy modules
(importlib.util.LazyLoader), and their names are re-exported by PEP 562."""

import importlib.util as _util
import sys as _sys

from .errors import CheckFailure
from .field import QQ, PrimeField, field_from_spec
from .linalg import LinearMap, Matrix, Subspace
from .algebra import (LeibnizAlgebra, LeibnizRepresentation, LieAlgebra,
                      ModuleMorphism, Representation, adjoint,
                      leibniz_from_lie, trivial_rep, validate_leibniz,
                      validate_leibniz_module, validate_lie, validate_module,
                      validate_morphism)
from .cohomology import (Cochain, CohomologyClass, ShortExactSequence,
                         class_of, coboundary, coboundary_matrix,
                         coboundary_witness, cohomology, cohomology_table,
                         connecting_hom, validate_ses)


def _lazy(name):
    """The submodule `name`, in sys.modules but run at first attribute use."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _sys.modules[spec.name] = _util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


crossed = _lazy("crossed")
extensions = _lazy("extensions")
_LAZY = dict.fromkeys(
    ["CrossedModule", "CrossedMorphism", "Presentation",
     "check_crossed_morphism", "classify2", "induced_pair", "leibniz_theta",
     "negate_crossed", "theta", "validate_crossed", "validate_presentation",
     "yoneda_crossed_module", "zero_crossed_module"], crossed)
_LAZY.update(dict.fromkeys(
    ["CrossedExtension", "ExtensionMorphism", "baer_sum", "baer_sum_n2",
     "check_extension_morphism", "mediate", "negate", "opext_connecting",
     "pushout", "push_forward", "split_detect", "sum_over_g",
     "validate_extension", "zero_extension"], extensions))

# workspace binds the lazy modules, so it comes after them
from .workspace import Workspace, parse_workspace, serialize_workspace


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_LAZY[name], name)


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())


__all__ = [n for n in __dir__() if not n.startswith("_")]
__version__ = "0.1.0"
