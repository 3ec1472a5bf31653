"""Frozen small-case values plus structural properties of both complexes."""
import math
import random

import pytest

from crossedext.errors import CheckFailure
from crossedext.field import PrimeField, QQ
from crossedext.linalg import Matrix
from crossedext.algebra import (ModuleMorphism, adjoint, leibniz_from_lie,
                                leibniz_rep_from_lie, trivial_rep)
from crossedext.cohomology import (Cochain, ShortExactSequence,
                                   abelian_extension_from_2cocycle, class_of,
                                   coboundary, coboundary_matrix,
                                   coboundary_witness, cochain_from_values,
                                   cohomology, cohomology_table,
                                   connecting_hom, h0_invariants, map_class,
                                   validate_ses)
from crossedext import samples
from dense_oracle import dense_bracket

Z, O = QQ.zero, QQ.one


# ----------------------------------------------------------- frozen tables

def test_sl2_trivial_table():
    g = samples.sl2(QQ)
    rows = cohomology_table(trivial_rep(g, 1), 3)
    assert rows == [(0, 1, 0, 1), (1, 3, 3, 0), (2, 3, 0, 0), (3, 1, 0, 1)]


def test_heisenberg_trivial_table():
    g = samples.heisenberg(QQ)
    rows = cohomology_table(trivial_rep(g, 1), 3)
    # classical Betti numbers (1, 2, 2, 1); delta_1 has rank 1, delta_2 is 0
    assert [r[3] for r in rows] == [1, 2, 2, 1]
    assert [r[2] for r in rows] == [0, 1, 0, 0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_abelian_binomial_dimensions(n):
    g = samples.abelian(QQ, n)
    K = trivial_rep(g, 1)
    for k in range(n + 1):
        dim, _ = cohomology(K, k)
        assert dim == math.comb(n, k)


def test_solvable2_delta1_matrix():
    # [x, y] = y, trivial coefficients: (delta f)(x, y) = -f([x, y]) = -f(y)
    g = samples.solvable2(QQ)
    d1 = coboundary_matrix(trivial_rep(g, 1), 1)
    assert d1.matrix == Matrix(QQ, [[Z, -O]], cols=2)


def test_solvable2_h1_h2():
    g = samples.solvable2(QQ)
    K = trivial_rep(g, 1)
    assert cohomology(K, 1)[0] == 1
    assert cohomology(K, 2)[0] == 0


def test_degree0_coboundary_is_action():
    # (delta m)(x) = [x, m]; on sl2 adjoint with m = h: (delta h)(e) = -2e
    g = samples.sl2(QQ)
    ad = adjoint(g)
    h = (Z, Z, O)
    dm = coboundary(Cochain(0, ad, h))
    assert dm.value((0,)) == (-QQ.of(2), Z, Z)   # [e, h] = -[h, e]
    assert dm.value((1,)) == (Z, QQ.of(2), Z)
    assert dm.value((2,)) == (Z, Z, Z)


def test_h0_invariants():
    g = samples.sl2(QQ)
    assert h0_invariants(adjoint(g)).dim == 0
    h = samples.heisenberg(QQ)
    inv = h0_invariants(adjoint(h))
    assert inv.dim == 1
    assert inv.contains(({2: 1}, 1))   # the center


def test_sl2_over_f7_same_table():
    F = PrimeField(7)
    g = samples.sl2(F)
    rows = cohomology_table(trivial_rep(g, 1), 3)
    assert [r[3] for r in rows] == [1, 0, 0, 1]


# ------------------------------------------------------------- delta-squared

@pytest.mark.parametrize("seed", range(6))
def test_delta_squared_zero_ce(seed):
    rng = random.Random(seed)
    g = samples.random_lie(QQ, rng)
    M = samples.random_module(g, rng)
    for n in range(0, 4):
        d_n = coboundary_matrix(M, n)
        d_n1 = coboundary_matrix(M, n + 1)
        assert not any(x for row in (d_n1.matrix @ d_n.matrix).data for x in row)


@pytest.mark.parametrize("seed", range(4))
def test_delta_squared_zero_leibniz(seed):
    rng = random.Random(seed)
    h = samples.random_leibniz(QQ, rng)
    M = samples.random_leibniz_module(h, rng)
    for n in range(0, 3):
        d_n = coboundary_matrix(M, n)
        d_n1 = coboundary_matrix(M, n + 1)
        assert not any(x for row in (d_n1.matrix @ d_n.matrix).data for x in row)


def test_random_lie_modules_act_and_have_delta_squared_zero():
    """The Lie generator, as acceptance criterion 1 draws it, gives a
    nonzero action at least half the time, and delta^2 = 0 holds on every
    such module."""
    acting = 0
    for seed in range(200):
        rng = random.Random(seed)
        g = samples.random_lie(QQ, rng, max_dim=5)
        M = samples.random_module(g, rng, max_dim=4)
        if all(m.is_zero() for m in M.action):
            continue
        acting += 1
        for n in range(0, 3):
            d_n = coboundary_matrix(M, n)
            d_n1 = coboundary_matrix(M, n + 1)
            assert (d_n1.matrix @ d_n.matrix).is_zero(), (seed, n)
    assert acting >= 100


def test_random_leibniz_modules_act_and_have_delta_squared_zero():
    """The Leibniz generator draws a nonzero action at least half the time,
    and delta^2 = 0 holds on every such module."""
    acting = 0
    for seed in range(200):
        rng = random.Random(seed)
        h = samples.random_leibniz(QQ, rng)
        M = samples.random_leibniz_module(h, rng)
        if all(m.is_zero() for m in M.left + M.right):
            continue
        acting += 1
        for n in range(0, 3):
            d_n = coboundary_matrix(M, n)
            d_n1 = coboundary_matrix(M, n + 1)
            assert (d_n1.matrix @ d_n.matrix).is_zero(), (seed, n)
    assert acting >= 100


# ------------------------------------------------------------------ Leibniz

def test_leibniz_abelian_full_tensor_dims():
    g = samples.abelian(QQ, 2)
    h = leibniz_from_lie(g)
    M = trivial_rep(h, 1)
    rows = cohomology_table(M, 3)
    assert [(r[1], r[3]) for r in rows] == [(1, 1), (2, 2), (4, 4), (8, 8)]


def test_nonlie_leibniz_low_degrees():
    h = samples.nonlie_leibniz(QQ)
    K = trivial_rep(h, 1)
    rows = cohomology_table(K, 1)
    # delta_1 kills f(x) through [y, y] = x, everything else vanishes
    assert rows == [(0, 1, 0, 1), (1, 2, 1, 1)]


def test_leibniz_degree1_diagonal_term():
    # (delta f)(y, y) = [y, f(y)] + [f(y), y] - f([y, y]) = -f(x)
    h = samples.nonlie_leibniz(QQ)
    K = trivial_rep(h, 1)
    f = cochain_from_values(K, 1,
                            lambda t: (O,) if t == (0,) else (Z,))
    df = coboundary(f)
    assert df.value((1, 1)) == (-O,)
    assert df.value((0, 1)) == (Z,)


def test_lie_ce_matches_leibniz_in_degree_one():
    # over an abelian algebra with trivial coefficients the two degree-1
    # coboundaries are both zero maps; the cochain spaces differ in degree 2
    g = samples.abelian(QQ, 2)
    h = leibniz_from_lie(g)
    K = trivial_rep(g, 1)
    KL = leibniz_rep_from_lie(K, h)
    assert coboundary_matrix(K, 1).codomain_dim == 1
    assert coboundary_matrix(KL, 1).codomain_dim == 4


# ----------------------------------------------------------- classes & maps

def test_class_of_rejects_non_cocycle():
    g = samples.sl2(QQ)
    ad = adjoint(g)
    f = cochain_from_values(ad, 1,
                            lambda t: (O, Z, Z) if t == (0,) else (Z, Z, Z))
    with pytest.raises(CheckFailure) as exc:
        class_of(f)
    assert exc.value.code == "NOT_A_COCYCLE"


def test_coboundary_witness_roundtrip():
    g = samples.sl2(QQ)
    K = trivial_rep(g, 1)
    f = cochain_from_values(K, 1, lambda t: (O,))
    df = coboundary(f)
    w = coboundary_witness(df)
    assert w is not None
    assert coboundary(w).vec == df.vec


def test_coboundary_witness_none_for_nonzero_class():
    g = samples.abelian(QQ, 2)
    K = trivial_rep(g, 1)
    vol = cochain_from_values(K, 2, lambda t: (O,))
    assert coboundary_witness(vol) is None


def test_map_class_functorial_on_identity():
    g = samples.sl2(QQ)
    K = trivial_rep(g, 1)
    vol = cochain_from_values(K, 3, lambda t: (O,))
    cl = class_of(vol)
    ident = ModuleMorphism(K, K, Matrix.identity(QQ, 1))
    assert map_class(ident, cl) == cl


# --------------------------------------------------------------- connecting

def _jordan_setup():
    g = samples.abelian(QQ, 3)
    ses = samples.nilpotent_ses(g)
    c = cochain_from_values(ses.tail, 2,
                            lambda t: (O,) if t == (1, 2) else (Z,))
    return g, ses, c


def test_connecting_nonzero_on_jordan_fixture():
    g, ses, c = _jordan_setup()
    cl = connecting_hom(ses, class_of(c))
    assert cl.degree == 3
    assert not cl.is_zero()


def test_connecting_kills_cocycles_with_equivariant_lift():
    # a cocycle supported away from the nontrivial action direction lifts to
    # a cocycle, so the connecting image vanishes
    g = samples.abelian(QQ, 3)
    ses = samples.nilpotent_ses(g)
    c = cochain_from_values(ses.tail, 2,
                            lambda t: (O,) if t == (0, 1) else (Z,))
    assert connecting_hom(ses, class_of(c)).is_zero()


def test_connecting_independent_of_lift():
    g, ses, c = _jordan_setup()
    base = connecting_hom(ses, class_of(c))
    for seed in range(3):
        assert connecting_hom(ses, class_of(c),
                              lift_rng=random.Random(seed)) == base


def test_connecting_vanishes_on_split_sequence():
    g = samples.abelian(QQ, 3)
    ses = samples.split_ses(g, trivial_rep(g, 1), trivial_rep(g, 1))
    c = cochain_from_values(ses.tail, 2,
                            lambda t: (O,) if t == (1, 2) else (Z,))
    assert connecting_hom(ses, class_of(c)).is_zero()


def test_validate_ses_rejects_non_exact():
    g = samples.abelian(QQ, 2)
    K = trivial_rep(g, 1)
    K2 = trivial_rep(g, 2)
    alpha = ModuleMorphism(K, K2, Matrix(QQ, [[O], [Z]], cols=1))
    beta = ModuleMorphism(K2, K, Matrix(QQ, [[O, Z]], cols=2))
    with pytest.raises(CheckFailure):
        validate_ses(ShortExactSequence(alpha, beta))


def test_abelian_extension_from_cocycle_is_lie():
    g, ses, c = _jordan_setup()
    e, incl, proj = abelian_extension_from_2cocycle(ses.tail, c)
    assert e.dim == 4
    # basis: the M'' copy first, then the lifted g basis; the bracket of the
    # lifts of e_1, e_2 in g realizes the cocycle value
    lift1 = (Z, Z, O, Z)
    lift2 = (Z, Z, Z, O)
    assert dense_bracket(e, lift1, lift2) == (O, Z, Z, Z)
    assert incl.matrix.cols == 1 and proj.matrix.rows == 3
