import random

import pytest

from crossedext.errors import CheckFailure
from crossedext.field import QQ
from crossedext.linalg import LinearMap, Matrix
from crossedext.algebra import adjoint, trivial_rep
from crossedext.cohomology import (class_of, coboundary, coboundary_witness,
                                   cochain_from_values, connecting_hom)
from crossedext.crossed import (CrossedExtension, CrossedModule,
                                CrossedMorphism, check_crossed_morphism,
                                choose_sections, classify2, leibniz_theta,
                                perturbed_sections, theta, validate_crossed,
                                yoneda_crossed_module)
from crossedext.extensions import (ExtensionMorphism,
                                   check_extension_morphism, negate,
                                   validate_extension, zero_extension)
from crossedext import samples

Z, O = QQ.zero, QQ.one


def test_identity_crossed_module_induces_zero_pair():
    g = samples.sl2(QQ)
    pres = samples.identity_crossed(g)
    assert pres.g.dim == 0 and pres.M.dim == 0
    assert classify2(pres).is_zero()


def test_zero_crossed_module_classifies_to_zero():
    g = samples.heisenberg(QQ)
    pres = zero_extension(g, adjoint(g), 2)
    validate_extension(pres)
    assert classify2(pres).is_zero()


def test_validate_crossed_rejects_bad_equivariance():
    g = samples.sl2(QQ)
    # partial = a non-equivariant map from the trivial module into sl2
    cm = CrossedModule(g, trivial_rep(g, 1),
                       LinearMap(Matrix(QQ, [[O], [Z], [Z]], cols=1)))
    with pytest.raises(CheckFailure) as exc:
        validate_crossed(cm)
    assert exc.value.code in ("EQUIVARIANCE_FAIL", "PEIFFER_FAIL")


def test_validate_presentation_rejects_wrong_kernel():
    g = samples.heisenberg(QQ)
    M = trivial_rep(g, 1)
    pres = zero_extension(g, M, 2)
    bad = CrossedExtension(2, g, M, LinearMap(Matrix(QQ, [[Z]], cols=1)),
                           (), (), pres.base, pres.pi)
    with pytest.raises(CheckFailure):
        validate_extension(bad)


def _jordan_yoneda(value_tuple=(1, 2), scale=1):
    g = samples.abelian(QQ, 3)
    ses = samples.nilpotent_ses(g)
    c = cochain_from_values(ses.tail, 2,
                            lambda t: (QQ.of(scale),) if t == value_tuple
                            else (Z,))
    return g, ses, c, yoneda_crossed_module(ses, c)


def test_theta_values_land_in_kernel_and_are_cocycles():
    rng = random.Random(11)
    for pres in samples.crossed_fixture_pool(QQ, rng, count=6):
        th = theta(pres, *choose_sections(pres))
        assert th.degree == 3
        # class_of raises NOT_A_COCYCLE if delta(theta) != 0
        class_of(th)


def test_theta_alternating_on_yoneda_fixture():
    _, _, _, pres = _jordan_yoneda()
    th = theta(pres, *choose_sections(pres))
    assert th.value_signed((1, 0, 2)) == tuple(-x for x in th.value((0, 1, 2)))
    assert th.value_signed((0, 0, 1)) == (Z,) * pres.M.dim


def test_theta_section_independence_up_to_coboundary():
    _, _, _, pres = _jordan_yoneda()
    s, q = choose_sections(pres)
    th = theta(pres, s, q)
    for seed in range(3):
        s2, q2 = perturbed_sections(pres, random.Random(seed))
        th2 = theta(pres, s2, q2)
        assert classify2(pres) == class_of(th2)
        assert coboundary_witness(th - th2) is not None


def test_yoneda_class_matches_connecting():
    g, ses, c, pres = _jordan_yoneda()
    assert classify2(pres) == connecting_hom(ses, class_of(c))


def test_classify_accepts_bare_crossed_module():
    g = samples.sl2(QQ)
    cm = zero_extension(g, trivial_rep(g, 1), 2).base
    assert classify2(cm).is_zero()


def test_negation_flips_class():
    _, _, _, pres = _jordan_yoneda()
    assert classify2(negate(pres)) == -classify2(pres)


def test_cohomologous_cocycles_give_crossed_morphism_and_equal_class():
    # c and c + delta(b) produce isomorphic abelian extensions; the shear
    # (m, x) -> (m - b(x), x) lifts to a crossed morphism over identity
    g, ses, c, presA = _jordan_yoneda()
    b = cochain_from_values(ses.tail, 1,
                            lambda t: (O,) if t == (1,) else (Z,))
    c2 = c + coboundary(b)
    presB = yoneda_crossed_module(ses, c2)
    shear_rows = [[O] + [-b.value((j,))[0] for j in range(3)]]
    for i in range(3):
        shear_rows.append([Z] +
                          [O if j == i else Z for j in range(3)])
    beta = LinearMap(Matrix(QQ, shear_rows, cols=4))
    phi = CrossedMorphism(LinearMap.identity(QQ, 2), beta)
    check_extension_morphism(presA, presB, ExtensionMorphism(
        LinearMap.identity(QQ, 1), (), phi))
    assert classify2(presA) == classify2(presB)


def test_crossed_morphism_square_failure_detected():
    g, ses, c, pres = _jordan_yoneda()
    bad = CrossedMorphism(LinearMap.identity(QQ, 2),
                          LinearMap(Matrix.zero(QQ, 4, 4)))
    with pytest.raises(CheckFailure):
        check_crossed_morphism(pres.base, pres.base, bad)


def test_leibniz_theta_is_cocycle_on_lie_fixture():
    from crossedext.algebra import leibniz_from_lie
    g = samples.heisenberg(QQ)
    pres = zero_extension(leibniz_from_lie(g),
                          samples.trivial_rep(leibniz_from_lie(g), 1), 2)
    th = leibniz_theta(pres, *choose_sections(pres))
    class_of(th)
    assert not any(th.vec)
