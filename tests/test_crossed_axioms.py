"""The integer crossed-module axioms agree with the dense oracle, the
Matrix-product loops they replaced: the same (code, witness, detail) on
valid crossed modules and on planted equivariance and Peiffer failures,
over Q with denominators, F_2, F_5 and F_2147483647, for Lie and Leibniz
crossed modules, with V in a random basis.  A V over another algebra than
L is refused before either axiom."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (LeibnizRepresentation, Representation,
                                adjoint, leibniz_adjoint, leibniz_from_lie,
                                leibniz_rep_from_lie)
from crossedext.crossed import (CrossedModule, crossed_axioms,
                                validate_crossed, yoneda_crossed_module)
from crossedext.errors import CheckFailure
from crossedext.extensions import zero_extension
from crossedext.field import PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix, kernel
from dense_oracle import dense_crossed_axioms
from test_flavor_core import _nonlie_crossed, _rebased_crossed, outcome

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2147483647)]
KINDS = ["zero", "identity", "yoneda", "nonlie", "bad boundary",
         "bad action", "peiffer"]


def _random_matrix(field, rows, cols, rng):
    return Matrix(field, [[samples.random_scalar(field, rng)
                           for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def _valid(kind, field, rng):
    """A Lie crossed module: zero, identity or a Yoneda splice."""
    if kind == "zero":
        g = samples.random_lie(field, rng, max_dim=3)
        return zero_extension(g, samples.random_module(g, rng, 2), 2).base
    if kind == "identity":
        return samples.identity_crossed(
            samples.random_lie(field, rng, 3)).base
    return yoneda_crossed_module(
        *samples.yoneda_fixtures(field, rng, count=1)[0]).base


def _peiffer(field, rng):
    """An abelian L acting on V by polynomials in one strictly upper
    triangular matrix, and a d whose rows kill the image of every action:
    d is equivariant, since L acts on itself by zero, and the Peiffer
    identity fails unless d happens to be too small."""
    m, n = rng.randint(1, 3), rng.randint(2, 4)
    L = samples.abelian(field, m)
    N = Matrix(field, [[samples.random_scalar(field, rng) if c > r else 0
                        for c in range(n)] for r in range(n)], cols=n)
    N2 = N @ N
    acts = [N.scale(samples.random_scalar(field, rng))
            + N2.scale(samples.random_scalar(field, rng)) for _ in range(m)]
    stacked = acts[0].transpose()
    for a in acts[1:]:
        stacked = stacked.vstack(a.transpose())
    # the rows y with y A = 0 for every action matrix A
    ann = kernel(LinearMap(stacked)).basis.data
    rows = []
    for _ in range(m):
        row = [field.zero] * n
        for b in ann:
            c = samples.random_scalar(field, rng)
            row = [x + c * y for x, y in zip(row, b)]
        rows.append(row)
    return CrossedModule(L, Representation(L, n, acts),
                         LinearMap(Matrix(field, rows, cols=n)))


def _as_leibniz(cm):
    h = leibniz_from_lie(cm.algebra)
    return CrossedModule(h, leibniz_rep_from_lie(cm.rep, h), cm.partial)


def crossed_case(field, seed, kind, leibniz):
    """The crossed module of one drawn case (the nonlie kind is over Q)."""
    rng = random.Random(seed)
    if kind == "nonlie":
        cm = _nonlie_crossed(rng.randint(0, 2))
        field = QQ
    else:
        cm = _peiffer(field, rng) if kind == "peiffer" else \
            _valid(rng.choice(["zero", "identity", "yoneda"]), field, rng)
        if leibniz:
            cm = _as_leibniz(cm)
    L, V, d = cm.algebra, cm.rep, cm.partial.matrix
    if kind == "bad boundary" and V.dim and L.dim:
        # plus a random rank-one map
        u = _random_matrix(field, L.dim, 1, rng)
        v = _random_matrix(field, 1, V.dim, rng)
        cm = CrossedModule(L, V, LinearMap(d + u @ v))
    elif kind == "bad action" and V.dim and L.dim:
        # one matrix of the last action family plus a random matrix
        i = rng.randrange(L.dim)
        fams = [list(m) for m in ((V.left, V.right) if leibniz
                                  else (V.action,))]
        fams[-1][i] = fams[-1][i] + _random_matrix(field, V.dim, V.dim, rng)
        V = LeibnizRepresentation(L, V.dim, *fams) if leibniz else \
            Representation(L, V.dim, *fams)
        cm = CrossedModule(L, V, cm.partial)
    if field is QQ:
        # d/3 is as much a crossed module as d, with denominators
        cm = CrossedModule(cm.algebra, cm.rep,
                           LinearMap(cm.partial.matrix.scale(Fraction(1, 3))))
    if cm.rep.dim:
        cm = _rebased_crossed(cm, samples.random_invertible(
            cm.algebra.field, cm.rep.dim, rng))
    return cm


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16),
       st.sampled_from(KINDS), st.booleans())
def test_crossed_axioms_match_the_dense_oracle(field, seed, kind, leibniz):
    cm = crossed_case(field, seed, kind, leibniz)
    assert outcome(crossed_axioms, cm) == outcome(dense_crossed_axioms, cm)


def test_the_cases_reach_every_outcome():
    """The planted cases fail in every way the oracle can report, in both
    flavors, and the integer check agrees on each."""
    seen = set()
    for seed in range(12):
        for kind in KINDS:
            for leibniz in (False, True):
                field = FIELDS[seed % len(FIELDS)]
                cm = crossed_case(field, seed, kind, leibniz)
                want = outcome(dense_crossed_axioms, cm)
                assert outcome(crossed_axioms, cm) == want
                flavor = "leibniz" if cm.algebra.flavor == "leibniz" \
                    else "lie"
                seen.add((flavor,) + ((want[0], want[2]) if want else ()))
    assert seen >= {
        ("lie",), ("lie", "EQUIVARIANCE_FAIL", ""),
        ("lie", "PEIFFER_FAIL", ""),
        ("leibniz",), ("leibniz", "EQUIVARIANCE_FAIL", "left action"),
        ("leibniz", "EQUIVARIANCE_FAIL", "right action"),
        ("leibniz", "PEIFFER_FAIL", "")}


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
@pytest.mark.parametrize("leibniz", [False, True])
def test_a_v_over_another_algebra_is_a_base_mismatch(field, leibniz):
    """V the adjoint module of solvable2 beside the abelian L of the same
    dimension and d = 0: both axioms hold on the matrices, so the crossed
    module once passed and failed only later, inside `induced_pair`."""
    L, S = samples.abelian(field, 2), samples.solvable2(field)
    V = adjoint(S)
    if leibniz:
        L, V = leibniz_from_lie(L), leibniz_adjoint(leibniz_from_lie(S))
    cm = CrossedModule(L, V, LinearMap.zero(field, 2, 2))
    for check in (validate_crossed, crossed_axioms):
        with pytest.raises(CheckFailure) as exc:
            check(cm)
        assert (exc.value.code, exc.value.detail) == (
            "BASE_MISMATCH", "V is not a module over L")
