"""The value classes' record semantics: positional and keyword construction,
the shape checks at construction, frozen fields, and field-wise `==` and
`hash`; `CohomologyClass` compares by its own rule, and a `Workspace` is
mutable, with fresh sections per instance and `derived` outside `==`."""
import pytest

from crossedext.algebra import adjoint, leibniz_adjoint, leibniz_from_lie
from crossedext.cohomology import Cochain, CohomologyClass, ShortExactSequence
from crossedext.crossed import CrossedModule, CrossedMorphism
from crossedext.extensions import (CrossedExtension, ExtensionMorphism,
                                   PushoutData)
from crossedext.field import QQ, PrimeField
from crossedext.linalg import LinearMap, Matrix
from crossedext.workspace import Workspace
from crossedext import samples

G = samples.heisenberg(QQ)
M = adjoint(G)
Z, O = QQ.zero, QQ.one


def _hash_agrees(a, b):
    """Equal records hash alike, those with a module or a linear map among
    their fields too."""
    assert hash(a) == hash(b)


# class -> its fields, in order, with values that pass its checks
RECORDS = [
    (Cochain, {"degree": 1, "module": M, "vec": (Z,) * 8 + (O,)}),
    (ShortExactSequence, {"alpha": "a", "beta": "b"}),
    (CrossedModule, {"algebra": G, "rep": M,
                     "partial": LinearMap.identity(QQ, 3)}),
    (CrossedMorphism, {"alpha": "a", "beta": "b"}),
    (PushoutData, {"D": "D", "i": "i", "j": "j", "proj": "p", "sect": "s",
                   "f": "f", "g": "g"}),
    (CrossedExtension, {"n": 4, "g": "g", "M": "M", "f": "f",
                        "mids": ("m3", "m2"), "partials": ("d3", "d2"),
                        "base": "base", "pi": "pi"}),
    (ExtensionMorphism, {"alpha": "a", "mids": ("m",), "crossed": "c"}),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_frozen_record(cls, fields):
    a = cls(*fields.values())
    b = cls(**fields)
    for name, value in fields.items():
        assert getattr(a, name) is value
        assert getattr(b, name) is value
    assert a == b and not a != b
    _hash_agrees(a, b)
    with pytest.raises(AttributeError):
        setattr(a, next(iter(fields)), None)
    with pytest.raises(AttributeError):
        a.new_attribute = 1
    with pytest.raises(AttributeError):
        delattr(a, next(iter(fields)))
    assert a == b
    assert a != object() and a != tuple(fields.values())
    with pytest.raises(TypeError):
        cls(*fields.values(), "one too many")


# the records whose fields take any value (of the right length)
LOOSE = [(cls, fields) for cls, fields in RECORDS
         if cls not in (Cochain, CrossedModule)]


@pytest.mark.parametrize("cls, fields", LOOSE,
                         ids=[cls.__name__ for cls, _ in LOOSE])
def test_records_differ_in_any_field(cls, fields):
    a = cls(**fields)
    for name, value in fields.items():
        if name == "n":
            continue     # n fixes the lengths of mids and partials
        other = ("x",) * len(value) if isinstance(value, tuple) else "x"
        assert a != cls(**dict(fields, **{name: other})), name


def test_equal_modules_and_maps_hash_alike():
    """Modules and linear maps hash by value, as their `==` compares, like
    algebras and matrices."""
    pairs = [(adjoint(G), adjoint(samples.heisenberg(QQ))),
             (leibniz_adjoint(leibniz_from_lie(G)),
              leibniz_adjoint(leibniz_from_lie(samples.heisenberg(QQ)))),
             (LinearMap.identity(QQ, 3), LinearMap(adjoint(G).action[0] -
                                                   adjoint(G).action[0]
                                                   + Matrix.identity(QQ, 3)))]
    for a, b in pairs:
        assert a is not b and a == b
        assert hash(a) == hash(b)
    assert len({Cochain(1, a, (Z,) * 9) for a in (M, adjoint(G))}) == 1


def test_cochain_checks_its_length():
    with pytest.raises(ValueError):
        Cochain(1, M, (Z,) * 8)
    with pytest.raises(ValueError):
        Cochain(degree=3, module=M, vec=(Z,) * 9)
    assert Cochain(1, M, (O,) * 9) != Cochain(1, M, (Z,) * 9)


def test_crossed_module_checks_the_shape_of_partial():
    with pytest.raises(ValueError):
        CrossedModule(G, M, LinearMap.zero(QQ, 2, 3))
    with pytest.raises(ValueError):
        CrossedModule(algebra=G, rep=M, partial=LinearMap.zero(QQ, 3, 2))


def test_crossed_extension_checks_its_length():
    with pytest.raises(ValueError):
        CrossedExtension(1, "g", "M", "f", (), (), "base", "pi")
    with pytest.raises(ValueError):
        CrossedExtension(n=4, g="g", M="M", f="f", mids=("m",),
                         partials=("d",), base="base", pi="pi")


def test_cohomology_class_compares_flavor_degree_and_canonical():
    z = Cochain(1, M, (Z,) * 9)
    fields = {"degree": 1, "module": M, "representative": z,
              "coboundary_space": "B", "canonical": (O, Z)}
    a = CohomologyClass(*fields.values())
    b = CohomologyClass(**dict(fields, representative=-z,
                               coboundary_space="other"))
    assert a.representative is z and a.canonical == (O, Z)
    assert a == b and hash(a) == hash(b)
    assert a != CohomologyClass(**dict(fields, canonical=(Z, O)))
    assert a != CohomologyClass(**dict(fields, degree=2))
    with pytest.raises(AttributeError):
        a.canonical = (Z, Z)


SECTIONS = ["algebras", "modules", "morphisms", "cochains", "crossed_modules",
            "sequences", "extensions"]


def test_workspace_construction_and_fresh_sections():
    a, b = Workspace(QQ), Workspace(field=QQ)
    assert a.field is QQ and a == b
    for name in SECTIONS + ["derived"]:
        assert getattr(a, name) == {}
        assert getattr(a, name) is not getattr(b, name)
    assert a.commands == [] and a.commands is not b.commands
    algebras, cmds = {"g": G}, [{"op": "check"}]
    c = Workspace(QQ, algebras, {}, {}, {}, {}, {}, {}, cmds)
    d = Workspace(QQ, algebras=algebras, commands=cmds)
    assert c.algebras is algebras and c.commands is cmds
    assert c == d and c != a


def test_workspace_is_mutable_and_compares_without_derived():
    a, b = Workspace(QQ), Workspace(QQ)
    a.derived["cm"] = "presented"
    assert a == b
    b.commands = [{"op": "check"}]
    assert a != b
    a.commands = [{"op": "check"}]
    assert a == b
    a.modules["M"] = M
    assert a != b
    assert Workspace(QQ) != Workspace(PrimeField(7))
    assert Workspace.__hash__ is None
