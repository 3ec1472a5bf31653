"""One crossed-module core serves both flavors: the one theta equals the
Chevalley-Eilenberg formula on Lie crossed modules, every validator that
walks a module's action families keeps its failure code, witness and
detail, a bad section pair is refused before theta is built, and every
valid crossed module has im(d) acting trivially on ker(d)."""
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (LeibnizAlgebra, LeibnizRepresentation,
                                ModuleMorphism, Representation, adjoint,
                                leibniz_adjoint, leibniz_from_lie,
                                leibniz_rep_from_lie, trivial_rep,
                                validate_morphism)
from crossedext.cohomology import LEIBNIZ, cochain_from_values
from crossedext.crossed import (CrossedModule, CrossedMorphism,
                                check_crossed_morphism, choose_sections,
                                induced_pair, leibniz_theta,
                                perturbed_sections, theta, validate_crossed,
                                yoneda_crossed_module)
from crossedext.errors import CheckFailure
from crossedext.extensions import (CrossedExtension, validate_extension,
                                   zero_extension)
from crossedext.field import PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix, block_diag
from crossedext.workspace import parse_workspace
from dense_oracle import dense_image_kills_kernel, lie_theta

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
F5 = PrimeField(5)


def outcome(check, *args):
    """(code, witness, detail) of the CheckFailure check raises, or None."""
    try:
        check(*args)
    except CheckFailure as exc:
        return exc.code, exc.witness, exc.detail
    return None


def _e(i, j, n=2, field=QQ):
    return Matrix(field, [[1 if (r, c) == (i, j) else 0 for c in range(n)]
                          for r in range(n)])


def _splice(field):
    """The Yoneda splice of 0 -> k -> k^2 -> k -> 0 (Jordan block action)
    with the 2-cocycle that is 1 on (1, 2): a Lie crossed module whose theta
    is not zero."""
    g = samples.abelian(field, 3)
    ses = samples.nilpotent_ses(g)
    c = cochain_from_values(ses.tail, 2,
                            lambda t: (field.one if t == (1, 2)
                                       else field.zero,))
    return yoneda_crossed_module(ses, c)


def _lie_presentations():
    sl2_doc = parse_workspace((FIXTURES / "sl2.json").read_text())
    jordan = parse_workspace((FIXTURES / "yoneda_jordan.json").read_text())
    out = [("sl2 fixture", induced_pair(sl2_doc.crossed_modules["zero_cm"])),
           ("jordan fixture",
            yoneda_crossed_module(jordan.sequences["jordan_ses"],
                                  jordan.cochains["vol12"])),
           ("splice over Q", _splice(QQ)),
           ("splice over F_5", _splice(F5)),
           ("zero", zero_extension(samples.heisenberg(QQ),
                                   adjoint(samples.heisenberg(QQ)), 2)),
           ("identity", samples.identity_crossed(samples.sl2(QQ)))]
    rng = random.Random(7)
    for field in (QQ, F5):
        for k, (ses, c) in enumerate(samples.yoneda_fixtures(field, rng,
                                                             count=3)):
            out.append((f"random splice {k} over {field!r}",
                        yoneda_crossed_module(ses, c)))
    return out


LIE_PRESENTATIONS = _lie_presentations()


NONZERO_THETA = ("jordan fixture", "splice over Q", "splice over F_5")


@pytest.mark.parametrize("name, pres", LIE_PRESENTATIONS,
                         ids=[n for n, _ in LIE_PRESENTATIONS])
def test_theta_equals_the_ce_formula_on_lie_crossed_modules(name, pres):
    sections = [choose_sections(pres)] + \
        [perturbed_sections(pres, random.Random(seed)) for seed in range(3)]
    for s, q in sections:
        want = lie_theta(pres, s, q)
        got = theta(pres, s, q)
        assert got.flavor == want.flavor
        assert got.vec == want.vec
        if name in NONZERO_THETA:
            assert any(want.vec)


def _leibniz_splice():
    """The Jordan splice read as a Leibniz crossed module: right action
    minus the left one."""
    cm = _splice(QQ).base
    h = leibniz_from_lie(cm.algebra)
    return induced_pair(validate_crossed(CrossedModule(
        h, leibniz_rep_from_lie(cm.rep, h), cm.partial)))


@pytest.mark.parametrize("flavor", ["lie", "leibniz"])
def test_bad_sections_are_refused(flavor):
    pres = _splice(QQ) if flavor == "lie" else _leibniz_splice()
    th = theta if flavor == "lie" else leibniz_theta
    assert any(any(row) for row in pres.base.partial.matrix.data)
    s, q = choose_sections(pres)
    two = QQ.of(2)
    bad_s = LinearMap(s.matrix.scale(two))
    bad_q = LinearMap(q.matrix.scale(two))
    assert outcome(th, pres, bad_s, q) == \
        ("SECTION_MISMATCH", None, "pi . s != id")
    assert outcome(th, pres, s, bad_q) == \
        ("SECTION_MISMATCH", None, "partial . q != id on im(partial)")
    # sections shifted into im(partial) and ker(partial) are still sections
    s2, q2 = perturbed_sections(pres, random.Random(3))
    assert outcome(th, pres, s2, q2) is None


# ------------------------------------------------ failure witness table

def _abelian_leibniz(dim, field=QQ):
    z = field.zero
    return LeibnizAlgebra(field, dim, [[[z] * dim for _ in range(dim)]
                                       for _ in range(dim)])


def _lie_module(dim, acts):
    g = samples.abelian(QQ, len(acts))
    return Representation(g, dim, acts)


def _leibniz_module(dim, left, right):
    return LeibnizRepresentation(_abelian_leibniz(len(left)), dim, left,
                                 right)


Z2 = Matrix.zero(QQ, 2, 2)


def _equivariance_crossed(V):
    """d = the first coordinate into a one-dimensional algebra; it is not
    equivariant when the action moves the second coordinate onto the first."""
    return validate_crossed, CrossedModule(V.algebra, V, LinearMap(
        Matrix(QQ, [[1, 0]])))


def _presentation(V, M):
    """The zero boundary of V, the 2-fold extension of its algebra by M of
    V's dimension: only the kernel actions can disagree."""
    pres = zero_extension(V.algebra, V, 2)
    return validate_extension, CrossedExtension(2, pres.g, M, pres.f, (), (),
                                                pres.base, pres.pi)


def _crossed_morphism(V):
    """The identity on the algebra and the projection onto the first
    coordinate of V: the squares commute, the action does not."""
    cm = CrossedModule(V.algebra, V, LinearMap.zero(QQ, V.dim,
                                                    V.algebra.dim))
    phi = CrossedMorphism(LinearMap(_e(0, 0)),
                          LinearMap.identity(QQ, V.algebra.dim))
    return check_crossed_morphism, cm, cm, phi


def _morphism(V):
    return validate_morphism, ModuleMorphism(V, V, _e(0, 0))


def _extension_d2(M2):
    """0 -> k -> M2 -> k -> g = g -> 0 over the zero crossed module of the
    trivial module k, with d_2 the first coordinate of M2: the head map
    e_0 is equivariant, and d_2 is not when an action moves the second
    coordinate onto the first."""
    g = M2.algebra
    base = CrossedModule(g, trivial_rep(g, 1), LinearMap.zero(QQ, 1, g.dim))
    return validate_extension, CrossedExtension(
        3, g, trivial_rep(g, 1), LinearMap(Matrix(QQ, [[1], [0]])), (M2,),
        (LinearMap(Matrix(QQ, [[1, 0]])),), base,
        LinearMap.identity(QQ, g.dim))


def _unstable_kernel(V):
    """d sends e_0 onto the first basis vector of the algebra and kills
    e_1, so M = ker(d) is spanned by e_1, and an action moving e_1 onto
    e_0 leaves it."""
    d = Matrix(QQ, [[1, 0]] + [[0, 0]] * (V.algebra.dim - 1))
    return induced_pair, CrossedModule(V.algebra, V, LinearMap(d))


E01 = _e(0, 1)
KERNEL_DETAIL = "kernel is not stable under the action"

# (case, (check, *args), (code, witness, detail)) for every failure that a
# validator raises from its loop over the action families of a module.
WITNESSES = [
    ("crossed equivariance, lie",
     _equivariance_crossed(_lie_module(2, [E01])),
     ("EQUIVARIANCE_FAIL", (0,), "")),
    ("crossed equivariance, leibniz left",
     _equivariance_crossed(_leibniz_module(2, [E01], [Z2])),
     ("EQUIVARIANCE_FAIL", (0,), "left action")),
    ("crossed equivariance, leibniz right",
     _equivariance_crossed(_leibniz_module(2, [Z2], [E01])),
     ("EQUIVARIANCE_FAIL", (0,), "right action")),
    ("presentation, lie",
     _presentation(_lie_module(2, [Z2, E01]), _lie_module(2, [Z2, Z2])),
     ("NOT_G_MODULE_MAP", 2, "basis vector 1")),
    ("presentation, leibniz left",
     _presentation(_leibniz_module(2, [Z2, E01], [Z2, Z2]),
                   _leibniz_module(2, [Z2, Z2], [Z2, Z2])),
     ("NOT_G_MODULE_MAP", 2, "basis vector 1, left action")),
    # the basis index is the outer loop: right at 0 before left at 1
    ("presentation, leibniz right first",
     _presentation(_leibniz_module(2, [Z2, E01], [E01, Z2]),
                   _leibniz_module(2, [Z2, Z2], [Z2, Z2])),
     ("NOT_G_MODULE_MAP", 2, "basis vector 0, right action")),
    ("crossed morphism, lie",
     _crossed_morphism(_lie_module(2, [Z2, E01])),
     ("EQUIVARIANCE_FAIL", (1,), "")),
    ("crossed morphism, leibniz left",
     _crossed_morphism(_leibniz_module(2, [E01, Z2], [Z2, Z2])),
     ("EQUIVARIANCE_FAIL", (0,), "left action")),
    ("crossed morphism, leibniz right first",
     _crossed_morphism(_leibniz_module(2, [Z2, E01], [E01, Z2])),
     ("EQUIVARIANCE_FAIL", (0,), "right action")),
    ("module morphism, lie",
     _morphism(_lie_module(2, [Z2, E01])),
     ("EQUIVARIANCE_FAIL", (1,), "")),
    ("module morphism, leibniz left",
     _morphism(_leibniz_module(2, [E01, Z2], [Z2, Z2])),
     ("EQUIVARIANCE_FAIL", (0,), "left action")),
    ("module morphism, leibniz right first",
     _morphism(_leibniz_module(2, [Z2, E01], [E01, Z2])),
     ("EQUIVARIANCE_FAIL", (0,), "right action")),
    ("extension d2, lie",
     _extension_d2(_lie_module(2, [Z2, E01])),
     ("NOT_G_MODULE_MAP", 2, "basis vector 1")),
    ("induced pair, lie",
     _unstable_kernel(_lie_module(2, [Z2, E01])),
     ("EQUIVARIANCE_FAIL", (0,), KERNEL_DETAIL)),
    ("induced pair, leibniz right",
     _unstable_kernel(_leibniz_module(2, [Z2, Z2, Z2], [Z2, E01, Z2])),
     ("EQUIVARIANCE_FAIL", (0,), KERNEL_DETAIL)),
    # induced_pair builds the whole left family before the right one
    ("induced pair, leibniz left family first",
     _unstable_kernel(_leibniz_module(2, [Z2, Z2, E01], [Z2, E01, Z2])),
     ("EQUIVARIANCE_FAIL", (1,), KERNEL_DETAIL)),
]


@pytest.mark.parametrize("case, call, want", WITNESSES,
                         ids=[c for c, _, _ in WITNESSES])
def test_action_family_failure_witnesses(case, call, want):
    check, *args = call
    assert outcome(check, *args) == want


def _rebased_crossed(cm, Q):
    """The same crossed module with V in the basis of Q's columns."""
    Qinv = samples._inverse(Q)
    V = cm.rep

    def conj(mats):
        return [Qinv @ a @ Q for a in mats]
    if isinstance(V, LeibnizRepresentation):
        V = LeibnizRepresentation(V.algebra, V.dim, conj(V.left),
                                  conj(V.right))
    else:
        V = Representation(V.algebra, V.dim, conj(V.action))
    return CrossedModule(cm.algebra, V, LinearMap(cm.partial.matrix @ Q))


def _nonlie_crossed(k):
    """d : h + k^k -> h the projection, for the Leibniz algebra h that is
    not Lie, acting on itself by brackets and trivially on k^k."""
    h = samples.nonlie_leibniz(QQ)
    ad = leibniz_adjoint(h)
    zero = Matrix.zero(QQ, k, k)
    V = LeibnizRepresentation(h, h.dim + k,
                              [block_diag(a, zero) for a in ad.left],
                              [block_diag(a, zero) for a in ad.right])
    d = Matrix.identity(QQ, h.dim).hstack(Matrix.zero(QQ, h.dim, k))
    return CrossedModule(h, V, LinearMap(d))


@st.composite
def valid_crossed_modules(draw):
    """Zero, identity and Yoneda-splice Lie crossed modules, read as Leibniz
    ones (right action minus the left) or not, and the projection onto the
    Leibniz algebra that is not Lie; V in a random basis."""
    field = draw(st.sampled_from([QQ, PrimeField(2), F5,
                                  PrimeField(2147483647)]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(["zero", "identity", "yoneda", "nonlie"]))
    if kind == "nonlie":
        cm = _nonlie_crossed(draw(st.integers(0, 2)))
        field = QQ
    else:
        if kind == "zero":
            g = samples.random_lie(field, rng, max_dim=3)
            pres = zero_extension(g, samples.random_module(g, rng, 2), 2)
        elif kind == "identity":
            pres = samples.identity_crossed(samples.random_lie(field, rng, 3))
        else:
            pres = yoneda_crossed_module(
                *samples.yoneda_fixtures(field, rng, count=1)[0])
        cm = pres.base
        if draw(st.booleans()):
            h = leibniz_from_lie(cm.algebra)
            cm = CrossedModule(h, leibniz_rep_from_lie(cm.rep, h), cm.partial)
    if cm.rep.dim:
        cm = _rebased_crossed(cm, samples.random_invertible(field, cm.rep.dim,
                                                            rng))
    return cm


@settings(max_examples=60, deadline=None)
@given(valid_crossed_modules())
def test_image_acts_trivially_on_kernel(cm):
    """validate_crossed does not check that im(d) acts trivially on ker(d),
    because its Peiffer loop implies it by bilinearity: every crossed
    module that passes validation satisfies it, by the dense oracle."""
    assert outcome(validate_crossed, cm) is None
    assert dense_image_kills_kernel(cm, cm.flavor == LEIBNIZ)

