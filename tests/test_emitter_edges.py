"""The edge cases of the coboundary emitter and of `rank`, against the dense
oracles.

The CE emitter puts a bracket coordinate e_k into the sorted rest of the
output tuple by bisection: at the front (q = 0), at the end (q = len(rest)),
or nowhere when k already lies in the rest.  The action terms are skipped
when no action matrix has an entry, which is tested on each integer row,
so a module whose entries all lie in column 0 (rows {0: v}) still acts.
`rank` eliminates a matrix's rows last to first; its rank is that of the
dense Gauss-Jordan oracle on any matrix, including zero, repeated and
empty rows and either dimension 0."""
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (Representation, adjoint,
                                leibniz_rep_from_lie, trivial_rep,
                                validate_lie, validate_module)
from crossedext.cohomology import ce_tuples, coboundary_matrix
from crossedext.field import PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix, rank
from dense_oracle import (dense_ce_coboundary_matrix,
                          dense_leibniz_coboundary_matrix, dense_rref)
from support import scalars

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(2147483647)]


def _lie(field, dim, brackets):
    """The Lie algebra with [e_i, e_j] = sum coef e_k for each
    (i, j): {k: coef} of brackets, and the negatives for (j, i)."""
    c = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        for k, coef in vec.items():
            c[i][j][k] = field.of(coef)
            c[j][i][k] = -field.of(coef)
    return validate_lie(field, dim, c)


def _insertions(g, degrees):
    """Where delta_n of g, n in degrees, puts the bracket coordinates:
    'front' (q = 0 in a nonempty rest), 'end' (q = len(rest) > 0),
    'inside' or 'repeat'."""
    seen, c = set(), g.c
    for S in (S for n in degrees for S in ce_tuples(g.dim, n + 1)):
        n = len(S) - 1
        for pa in range(n + 1):
            for pb in range(pa + 1, n + 1):
                rest = S[:pa] + S[pa + 1:pb] + S[pb + 1:]
                for k, coef in enumerate(c[S[pa]][S[pb]]):
                    if not coef or not rest:
                        continue
                    q = bisect_left(rest, k)
                    seen.add("repeat" if k in rest else "front" if q == 0
                             else "end" if q == len(rest) else "inside")
    return seen


def _same(emitted, dense):
    assert emitted.matrix._ints == dense.matrix._ints
    assert emitted.matrix.data == dense.matrix.data


# [e1, e2] = e0 puts e0 before every rest; [e0, e1] = e3 puts e3 after it;
# dim 5 with [e0, e4] = e2 puts e2 inside (1, 3).  Each also repeats k.
INSERTIONS = [
    (4, {(1, 2): {0: 1}}, "front"),
    (4, {(0, 1): {3: 1}}, "end"),
    (5, {(0, 4): {2: 1}}, "inside"),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("dim, brackets, where", INSERTIONS,
                         ids=[w for _, _, w in INSERTIONS])
def test_ce_insertion_at_front_end_and_on_a_repeat(field, dim, brackets,
                                                   where):
    g = _lie(field, dim, brackets)
    assert {where, "repeat"} <= _insertions(g, range(dim))
    for M in (trivial_rep(g, 1), trivial_rep(g, 2), adjoint(g)):
        for n in range(dim + 1):
            _same(coboundary_matrix(M, n),
                  dense_ce_coboundary_matrix(g, M, n))


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)], ids=str)
def test_gl3_trivial_degree_4(field):
    """126 x 126: past the degrees the hypothesis tests draw (n <= 3)."""
    g = samples.gl(field, 3)
    assert {"front", "end", "inside", "repeat"} <= _insertions(g, [4])
    M = trivial_rep(g, 1)
    _same(coboundary_matrix(M, 4), dense_ce_coboundary_matrix(g, M, 4))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_an_action_only_in_column_0_is_not_skipped(field):
    """x0 acts on a 2-dimensional module by e_0 -> e_1, so its integer rows
    are {} and {0: 1}: a row dict with an entry, whose keys are all 0."""
    g = samples.abelian(field, 2)
    z, o = field.zero, field.one
    act = Matrix(field, [[z, z], [o, z]])
    assert act._ints[0] == ({}, {0: 1})
    M = validate_module(Representation(g, 2, [act, Matrix.zero(field, 2, 2)]))
    L = leibniz_rep_from_lie(M)
    for n in range(4):
        emitted = coboundary_matrix(M, n)
        if n < 2:      # C^3 of a 2-dimensional algebra is 0
            assert not emitted.matrix.is_zero()
        _same(emitted, dense_ce_coboundary_matrix(g, M, n))
        _same(coboundary_matrix(L, n),
              dense_leibniz_coboundary_matrix(L.algebra, L, n))


@st.composite
def matrices(draw):
    """A matrix over one of FIELDS with 0 to 6 rows and columns, whose rows
    come from a pool of at most three, the zero row among them, so zero and
    repeated rows are common."""
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row = st.lists(scalars(field), min_size=c, max_size=c)
    pool = [[field.zero] * c] + draw(st.lists(row, min_size=0, max_size=2))
    rows = draw(st.lists(st.sampled_from(pool), min_size=r, max_size=r))
    return Matrix(field, rows, cols=c)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_is_the_dense_rank(m):
    assert rank(LinearMap(m)) == len(dense_rref(m)[1])


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (3, 3)])
def test_rank_of_an_empty_or_zero_matrix(field, rows, cols):
    m = Matrix.zero(field, rows, cols)
    assert rank(LinearMap(m)) == len(dense_rref(m)[1]) == 0
