import pytest

from crossedext.errors import CheckFailure
from crossedext.field import PrimeField, QQ
from crossedext.linalg import Matrix
from crossedext.algebra import (ModuleMorphism, Representation, adjoint,
                                direct_sum_reps, leibniz_adjoint,
                                leibniz_from_lie, leibniz_rep_from_lie,
                                trivial_rep, validate_leibniz,
                                validate_leibniz_module, validate_lie,
                                validate_module, validate_morphism)
from crossedext import samples
from dense_oracle import dense_bracket

Z, O = QQ.zero, QQ.one


def test_sl2_bracket_table():
    g = samples.sl2(QQ)
    # [h, e] = 2e, [e, f] = h, [h, f] = -2f  (basis order e, f, h)
    assert g.c[2][0] == (QQ.of(2), Z, Z)
    assert g.c[0][1] == (Z, Z, O)
    assert g.c[2][1] == (Z, -QQ.of(2), Z)


def test_antisymmetry_violation_witnessed():
    with pytest.raises(CheckFailure) as exc:
        validate_lie(QQ, 2, [[(Z, Z), (Z, O)], [(Z, O), (Z, Z)]])
    assert exc.value.code == "ANTISYM_FAIL"
    assert exc.value.witness is not None


def test_jacobi_violation_witnessed():
    # [x,y]=z, [y,z]=x, [x,z]=x breaks Jacobi
    zz = (Z, Z, Z)
    with pytest.raises(CheckFailure) as exc:
        validate_lie(QQ, 3, [
            [zz, (Z, Z, O), (O, Z, Z)],
            [(Z, Z, -O), zz, (O, Z, Z)],
            [(-O, Z, Z), (-O, Z, Z), zz]])
    assert exc.value.code == "JACOBI_FAIL"


def test_adjoint_is_a_module():
    for make in (samples.sl2, samples.heisenberg, samples.solvable2):
        validate_module(adjoint(make(QQ)))


def test_adjoint_action_matches_bracket():
    g = samples.sl2(QQ)
    ad = adjoint(g)
    for i in range(3):
        for j in range(3):
            ej = tuple(O if k == j else Z for k in range(3))
            assert ad.action[i].apply(ej) == g.c[i][j]


def test_module_axiom_violation_witnessed():
    g = samples.sl2(QQ)
    bad = Representation(g, 1, [Matrix(QQ, [[O]], cols=1),
                                Matrix(QQ, [[O]], cols=1),
                                Matrix(QQ, [[Z]], cols=1)])
    with pytest.raises(CheckFailure) as exc:
        validate_module(bad)
    assert exc.value.code == "MODULE_AXIOM_FAIL"


def test_nonlie_leibniz_validates_but_not_antisymmetric():
    h = samples.nonlie_leibniz(QQ)
    y = (Z, O)
    assert any(dense_bracket(h, y, y))  # [y, y] = x


def test_leibniz_identity_violation_witnessed():
    zz = (Z, Z)
    with pytest.raises(CheckFailure) as exc:
        validate_leibniz(QQ, 2, [[zz, (O, Z)], [(Z, O), zz]])
    assert exc.value.code == "LEIBNIZ_FAIL"


def test_lie_algebra_is_leibniz():
    for make in (samples.sl2, samples.heisenberg):
        leibniz_from_lie(make(QQ))


def test_leibniz_adjoint_validates():
    h = samples.nonlie_leibniz(QQ)
    validate_leibniz_module(leibniz_adjoint(h))


def test_lie_rep_to_leibniz_rep():
    g = samples.sl2(QQ)
    h = leibniz_from_lie(g)
    rep = leibniz_rep_from_lie(adjoint(g), h)
    validate_leibniz_module(rep)
    for i in range(3):
        assert rep.left[i] == -rep.right[i]


def test_morphism_equivariance_checked():
    g = samples.sl2(QQ)
    K1 = trivial_rep(g, 1)
    ad = adjoint(g)
    bad = ModuleMorphism(ad, ad, Matrix(QQ, [[O, O, Z], [Z, O, Z], [Z, Z, O]],
                                        cols=3))
    with pytest.raises(CheckFailure) as exc:
        validate_morphism(bad)
    assert exc.value.code == "EQUIVARIANCE_FAIL"
    good = ModuleMorphism(K1, K1, Matrix(QQ, [[QQ.of(5)]], cols=1))
    validate_morphism(good)


def test_direct_sum_dims_and_axioms():
    g = samples.heisenberg(QQ)
    s = direct_sum_reps(adjoint(g), trivial_rep(g, 2))
    assert s.dim == 5
    validate_module(s)


def test_prime_field_algebras():
    g = samples.sl2(PrimeField(7))
    validate_module(adjoint(g))
