"""The package's public surface: `crossedext.__all__` is pinned, and every
name in it is the object its home module binds, whether the package binds
it at import or loads its module on first use."""
import importlib

import pytest

import crossedext

SUBMODULES = ["algebra", "crossed", "errors", "extensions", "field", "linalg",
              "workspace"]

# home module -> the public names crossedext re-exports from it
HOMES = {
    "errors": ["CheckFailure"],
    "field": ["PrimeField", "QQ", "field_from_spec"],
    "linalg": ["LinearMap", "Matrix", "Subspace"],
    "algebra": ["LeibnizAlgebra", "LeibnizRepresentation", "LieAlgebra",
                "ModuleMorphism", "Representation", "adjoint",
                "leibniz_from_lie", "trivial_rep", "validate_leibniz",
                "validate_leibniz_module", "validate_lie", "validate_module",
                "validate_morphism"],
    "cohomology": ["Cochain", "CohomologyClass", "ShortExactSequence",
                   "class_of", "coboundary", "coboundary_matrix",
                   "coboundary_witness", "cohomology", "cohomology_table",
                   "connecting_hom", "validate_ses"],
    "crossed": ["CrossedModule", "CrossedMorphism", "check_crossed_morphism",
                "classify2", "induced_pair", "leibniz_theta", "theta",
                "validate_crossed", "yoneda_crossed_module"],
    "extensions": ["CrossedExtension", "ExtensionMorphism", "baer_sum",
                   "check_extension_morphism", "mediate", "negate",
                   "opext_connecting", "pushout", "push_forward",
                   "split_detect", "sum_over_g", "validate_extension",
                   "zero_extension"],
    "workspace": ["Workspace", "parse_workspace", "serialize_workspace"],
}

ALL = [
    "CheckFailure", "Cochain", "CohomologyClass", "CrossedExtension",
    "CrossedModule", "CrossedMorphism", "ExtensionMorphism", "LeibnizAlgebra",
    "LeibnizRepresentation", "LieAlgebra", "LinearMap", "Matrix",
    "ModuleMorphism", "PrimeField", "QQ", "Representation",
    "ShortExactSequence", "Subspace", "Workspace", "adjoint", "algebra",
    "baer_sum", "check_crossed_morphism",
    "check_extension_morphism", "class_of", "classify2", "coboundary",
    "coboundary_matrix", "coboundary_witness", "cohomology",
    "cohomology_table", "connecting_hom", "crossed", "errors", "extensions",
    "field", "field_from_spec", "induced_pair", "leibniz_from_lie",
    "leibniz_theta", "linalg", "mediate", "negate",
    "opext_connecting", "parse_workspace", "push_forward", "pushout",
    "serialize_workspace", "split_detect", "sum_over_g", "theta",
    "trivial_rep", "validate_crossed", "validate_extension",
    "validate_leibniz", "validate_leibniz_module", "validate_lie",
    "validate_module", "validate_morphism", "validate_ses", "workspace",
    "yoneda_crossed_module", "zero_extension",
]


def test_all_is_pinned():
    assert sorted(crossedext.__all__) == ALL
    assert sorted(SUBMODULES + [n for names in HOMES.values()
                                for n in names]) == ALL


def test_every_name_is_its_home_modules_object():
    for home, names in HOMES.items():
        module = importlib.import_module(f"crossedext.{home}")
        for name in names:
            assert getattr(crossedext, name) is getattr(module, name), name


def test_submodule_names_are_the_submodules():
    for name in SUBMODULES:
        assert getattr(crossedext, name) is \
            importlib.import_module(f"crossedext.{name}"), name


def test_cohomology_is_the_function_not_the_module():
    home = importlib.import_module("crossedext.cohomology")
    assert crossedext.cohomology is home.cohomology
    assert callable(crossedext.cohomology)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from crossedext import *", ns)
    for name in ALL:
        assert ns[name] is getattr(crossedext, name), name


def test_readme_samples_import():
    from crossedext import samples
    assert samples.heisenberg(crossedext.QQ).dim == 3


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        crossedext.no_such_name
