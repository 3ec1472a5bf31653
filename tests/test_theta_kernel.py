"""The integer theta agrees with the field-vector oracle `dense_theta`, the
theta it replaced: the same cochain, or the same (code, witness, detail),
over Q with denominators 1-6, F_2, F_5 and F_2147483647, for Lie and
Leibniz crossed modules, with canonical and perturbed sections; on every
crossed module of the benchmark's seed-1 crossed-mix document; and on a
crossed module that theta's own partial(theta) = 0 check refuses."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (LeibnizAlgebra, LeibnizRepresentation,
                                LieAlgebra, Representation, leibniz_adjoint,
                                leibniz_from_lie, leibniz_rep_from_lie,
                                validate_module)
from crossedext.crossed import (CrossedModule, choose_sections,
                                crossed_axioms, induced_pair,
                                perturbed_sections, theta, validate_crossed,
                                yoneda_crossed_module)
from crossedext.extensions import zero_extension
from crossedext.field import PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix, block_diag, kernel
from crossedext.workspace import parse_workspace
from dense_oracle import (dense_change_basis, dense_col, dense_lincomb,
                          dense_peiffer, dense_theta)
from support import perfbench_gen
from test_flavor_core import _rebased_crossed, outcome

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2147483647)]
KINDS = ["zero", "identity", "yoneda", "nonlie"]


def _scalar(field, rng):
    """A random scalar, over Q with a denominator from 1 to 6."""
    if field is QQ:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 6))
    return samples.random_scalar(field, rng)


def _invertible(field, n, rng):
    while True:
        m = Matrix(field, [[_scalar(field, rng) for _ in range(n)]
                           for _ in range(n)], cols=n)
        if kernel(LinearMap(m)).dim == 0:
            return m


def _nonlie(field, rng):
    """L = h + k^a, h the Leibniz algebra that is not Lie and k^a abelian,
    and V = h + k^k: h acts on h by brackets, k^a on k^k by multiples of a
    nilpotent N (on the right by -N), all else by zero, and d the
    projection of V onto h.  g = k^a and M = k^k, so theta is a coboundary
    that perturbed sections make nonzero."""
    h = samples.nonlie_leibniz(field)
    a, k, m = rng.randint(1, 2), rng.randint(1, 3), h.dim
    z = field.zero
    dim = m + a
    structure = [[tuple(h.c[i][j]) + (z,) * a if i < m and j < m
                  else (z,) * dim for j in range(dim)] for i in range(dim)]
    L = LeibnizAlgebra(field, dim, structure)
    ad = leibniz_adjoint(h)
    N = Matrix(field, [[_scalar(field, rng) if c > r else 0
                        for c in range(k)] for r in range(k)], cols=k)
    zk, zm = Matrix.zero(field, k, k), Matrix.zero(field, m, m)
    left = [block_diag(x, zk) for x in ad.left]
    right = [block_diag(x, zk) for x in ad.right]
    for _ in range(a):
        f = _scalar(field, rng)
        left.append(block_diag(zm, N.scale(f)))
        right.append(block_diag(zm, -N.scale(f)))
    V = LeibnizRepresentation(L, m + k, left, right)
    d = Matrix.identity(field, m).hstack(Matrix.zero(field, m, k)).vstack(
        Matrix.zero(field, a, m + k))
    return CrossedModule(L, V, LinearMap(d))


def _rebased_algebra(cm, P):
    """The same crossed module with L in the basis of P's columns."""
    L, V, field = cm.algebra, cm.rep, cm.algebra.field
    Pinv = samples._inverse(P)
    cols = [dense_col(P, i) for i in range(L.dim)]
    L2 = type(L)(field, L.dim, dense_change_basis(L, P))

    def acting(mats):
        return [dense_lincomb(field, x, mats, V.dim, V.dim) for x in cols]

    if isinstance(V, LeibnizRepresentation):
        V2 = LeibnizRepresentation(L2, V.dim, acting(V.left),
                                   acting(V.right))
    else:
        V2 = Representation(L2, V.dim, acting(V.action))
    return CrossedModule(L2, V2, LinearMap(Pinv @ cm.partial.matrix))


def theta_case(field, seed, kind, leibniz):
    """A crossed module of the drawn kind, read as a Leibniz one or not (the
    nonlie kind always is), with d scaled, and L and V in random bases."""
    rng = random.Random(seed)
    if kind == "nonlie":
        cm = _nonlie(field, rng)
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
        if leibniz:
            h = leibniz_from_lie(cm.algebra)
            cm = CrossedModule(h, leibniz_rep_from_lie(cm.rep, h), cm.partial)
    # a nonzero multiple of d is as much a crossed module as d
    f = _scalar(field, rng)
    if f:
        cm = CrossedModule(cm.algebra, cm.rep,
                           LinearMap(cm.partial.matrix.scale(f)))
    if cm.algebra.dim:
        cm = _rebased_algebra(cm, _invertible(field, cm.algebra.dim, rng))
    if cm.rep.dim:
        cm = _rebased_crossed(cm, _invertible(field, cm.rep.dim, rng))
    return cm


def _sections(pres, seeds):
    return [choose_sections(pres)] + \
        [perturbed_sections(pres, random.Random(s)) for s in seeds]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16), st.sampled_from(KINDS),
       st.booleans(), st.integers(0, 2**16))
def test_theta_matches_the_dense_oracle(field, seed, kind, leibniz, sseed):
    cm = theta_case(field, seed, kind, leibniz)
    assert outcome(validate_crossed, cm) is None
    pres = induced_pair(cm)
    for s, q in _sections(pres, [sseed]):
        want = dense_theta(pres, s, q)
        got = theta(pres, s, q)
        assert got.flavor == want.flavor
        assert got.vec == want.vec


def test_the_cases_give_nonzero_theta_in_both_flavors():
    """The drawn cases are not all zero cochains: both flavors, and the
    Leibniz algebra that is not Lie, reach a nonzero theta."""
    seen = set()
    for seed in range(10):
        for kind, leibniz in (("yoneda", False), ("yoneda", True),
                              ("nonlie", True)):
            pres = induced_pair(theta_case(QQ, seed, kind, leibniz))
            for s, q in _sections(pres, [seed]):
                th = theta(pres, s, q)
                assert th.vec == dense_theta(pres, s, q).vec
                if any(th.vec):
                    seen.add(kind + (" leibniz" if leibniz else ""))
    assert seen == {"yoneda", "yoneda leibniz", "nonlie leibniz"}


@pytest.fixture(scope="module")
def mix_document():
    """The seed-1 crossed-mix workspace, from perfbench/gen.py."""
    text, extra, _ = perfbench_gen().generate("crossed-mix", 1)
    assert extra == []
    return parse_workspace(text)


def test_theta_matches_the_dense_oracle_on_the_mix_document(mix_document):
    cms = mix_document.crossed_modules
    assert len(cms) > 100
    nonzero = 0
    for k, cm in enumerate(cms.values()):
        pres = induced_pair(cm)
        for s, q in _sections(pres, [k]):
            th = theta(pres, s, q)
            assert th.vec == dense_theta(pres, s, q).vec
            nonzero += any(th.vec)
    assert nonzero


def _broken(field, c, leibniz):
    """L = heisenberg + k (e_0, e_1, e_2 = [e_0, e_1], e_3 central) on
    V = k^3 by its standard module E_01, E_12, E_02 and e_3 by c, with
    d(v_2) = e_2.  V is an L-module, im(d) an ideal and ker(d) = <v_0, v_1>
    a module of g = L/im(d), so the pair is induced; but d is not
    equivariant (d(e_3 v_2) = c e_2, while [e_3, e_2] = 0) and the Peiffer
    identity fails at (v_2, v_2): rho(e_2) v_2 = v_0, not -v_0.  It is
    never validated."""
    z, o = field.zero, field.one
    zz = (z,) * 4
    structure = [[zz] * 4 for _ in range(4)]
    structure[0][1] = (z, z, o, z)
    structure[1][0] = (z, z, -o, z)
    L = LieAlgebra(field, 4, structure)

    def e(i, j):
        return Matrix(field, [[1 if (r, t) == (i, j) else 0
                               for t in range(3)] for r in range(3)])
    V = Representation(L, 3, [e(0, 1), e(1, 2), e(0, 2),
                              Matrix.identity(field, 3).scale(c)])
    d = Matrix(field, [[0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 0, 0]])
    cm = CrossedModule(L, V, LinearMap(d))
    if leibniz:
        h = leibniz_from_lie(L)
        cm = CrossedModule(h, leibniz_rep_from_lie(V, h), cm.partial)
    return cm


@pytest.mark.parametrize("field, c", [(QQ, QQ.one), (QQ, Fraction(1, 2)),
                                      (PrimeField(5), PrimeField(5).of(3))],
                         ids=["Q", "Q half", "F_5"])
@pytest.mark.parametrize("leibniz", [False, True], ids=["lie", "leibniz"])
def test_theta_refuses_a_nonzero_boundary(field, c, leibniz):
    cm = _broken(field, c, leibniz)
    assert outcome(validate_module, _broken(field, c, False).rep) is None
    assert outcome(crossed_axioms, cm) == ("EQUIVARIANCE_FAIL", (3,),
                                           "left action" if leibniz else "")
    assert outcome(dense_peiffer, cm, leibniz) == \
        ("PEIFFER_FAIL", (2, 2), "")
    pres = induced_pair(cm)
    # g's basis is the images of e_0, e_1, e_3, and theta(0, 1, 2) = c v_2
    want = ("PEIFFER_FAIL", (0, 1, 2), "partial(theta) != 0")
    for s, q in _sections(pres, [0, 1]):
        assert outcome(dense_theta, pres, s, q) == want
        assert outcome(theta, pres, s, q) == want
