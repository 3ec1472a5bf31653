"""Coboundaries emitted as integer rows, matrices whose dense rows are built
on first read, the integer-view bracket and the change of basis of a Lie
algebra, checked against the dense builders, the Fraction/FpElement
bracket loop and the dense change of basis of dense_oracle; the
integer elimination's row scales, against the dense solve, RREF and kernel;
plus the gl_n samples at a size where only the integer rows fit in memory."""
import importlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (LeibnizAlgebra, LeibnizRepresentation,
                                LieAlgebra, adjoint, direct_sum_reps,
                                leibniz_adjoint, leibniz_from_lie,
                                leibniz_rep_from_lie, trivial_rep,
                                validate_leibniz, validate_leibniz_module,
                                validate_lie)
from crossedext.cohomology import (CochainComplex, ce_coboundary_matrix,
                                   cohomology_table,
                                   leibniz_coboundary_matrix)
from crossedext.field import PrimeField, QQ
from crossedext.linalg import (Echelon, LinearMap, Matrix, Subspace, kernel,
                               rank, rref)
from dense_oracle import (dense, dense_apply, dense_bracket,
                          dense_ce_coboundary_matrix, dense_change_basis,
                          dense_kernel_rows,
                          dense_leibniz_coboundary_matrix, dense_matmul,
                          dense_rref, dense_solve, view)
from support import scalars

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2147483647)]
cohomology_mod = importlib.import_module("crossedext.cohomology")
linalg_mod = importlib.import_module("crossedext.linalg")


def vectors(field, n):
    return st.lists(scalars(field), min_size=n, max_size=n).map(tuple)


@st.composite
def invertibles(draw, field, n):
    """A unit lower-triangular times an upper-triangular matrix with a
    nonzero diagonal: invertible by construction."""
    nonzero = scalars(field).filter(bool)
    lo = Matrix(field, [[draw(scalars(field)) if j < i else
                         (field.one if j == i else field.zero)
                         for j in range(n)] for i in range(n)], cols=n)
    up = Matrix(field, [[draw(scalars(field)) if j > i else
                         (draw(nonzero) if j == i else field.zero)
                         for j in range(n)] for i in range(n)], cols=n)
    return lo @ up


def _rebased(alg, P, validate):
    """The algebra in the basis of P's columns, by the dense oracle."""
    return validate(alg.field, alg.dim, dense_change_basis(alg, P))


LIE_BASES = ["abelian0", "abelian1", "abelian2", "abelian3", "solvable2",
             "heisenberg", "sl2", "gl2"]


def _lie(field, name):
    if name == "gl2":
        return samples.gl(field, 2)
    return samples.lie_by_name(field, name)


@st.composite
def ce_cases(draw):
    """(g, M) with g in a changed basis and M zero (dimension 0), trivial,
    adjoint or adjoint plus trivial, in a changed basis of its own."""
    field = draw(st.sampled_from(FIELDS))
    g = _lie(field, draw(st.sampled_from(LIE_BASES)))
    if g.dim and draw(st.booleans()):
        g = _rebased(g, draw(invertibles(field, g.dim)),
                     validate_lie)
    kind = draw(st.sampled_from(["zero", "trivial", "adjoint", "sum"]))
    if kind == "zero":
        return g, trivial_rep(g, 0)
    if kind == "trivial":
        return g, trivial_rep(g, draw(st.integers(1, 2)))
    M = adjoint(g) if kind == "adjoint" else \
        direct_sum_reps(adjoint(g), trivial_rep(g, 1))
    if M.dim and draw(st.booleans()):
        M = samples.conjugate_module(M, draw(invertibles(field, M.dim)))
    return g, M


@st.composite
def leibniz_cases(draw):
    """(h, M) with h not Lie or a Lie algebra read as Leibniz, and M zero,
    trivial, the Leibniz adjoint module of h in a changed basis, or a Lie
    adjoint module read as Leibniz (right action minus the left); M in a
    changed basis of its own."""
    field = draw(st.sampled_from(FIELDS))
    name = draw(st.sampled_from(["nonlie"] + LIE_BASES[:6]))
    g = None if name == "nonlie" else _lie(field, name)
    h = samples.nonlie_leibniz(field) if g is None else leibniz_from_lie(g)
    kind = draw(st.sampled_from(["zero", "trivial", "adjoint", "lie"]))
    if kind == "lie" and g is not None:
        M = leibniz_rep_from_lie(adjoint(g), h)
    else:
        if h.dim and draw(st.booleans()):
            h = _rebased(h, draw(invertibles(field, h.dim)), validate_leibniz)
        if kind in ("zero", "trivial"):
            return h, trivial_rep(h, 0 if kind == "zero" else
                                  draw(st.integers(1, 2)))
        M = leibniz_adjoint(h)
    if M.dim and draw(st.booleans()):
        Q = draw(invertibles(field, M.dim))
        Qinv = samples._inverse(Q)
        M = validate_leibniz_module(LeibnizRepresentation(
            h, M.dim, [Qinv @ a @ Q for a in M.left],
            [Qinv @ a @ Q for a in M.right]))
    return h, M


def _assert_same_matrix(emitted: Matrix, dense: Matrix):
    """Integer view, dense rows, equality both ways and hash."""
    assert emitted._data is None
    assert (emitted.rows, emitted.cols) == (dense.rows, dense.cols)
    assert emitted._ints == dense._ints
    assert emitted.data == dense.data
    assert emitted == dense and dense == emitted
    assert hash(emitted) == hash(dense)


@settings(max_examples=80, deadline=None)
@given(ce_cases(), st.integers(0, 3))
def test_ce_coboundary_matches_dense_builder(case, n):
    g, M = case
    _assert_same_matrix(ce_coboundary_matrix(g, M, n).matrix,
                        dense_ce_coboundary_matrix(g, M, n).matrix)


@settings(max_examples=80, deadline=None)
@given(leibniz_cases(), st.integers(0, 3))
def test_leibniz_coboundary_matches_dense_builder(case, n):
    h, M = case
    _assert_same_matrix(leibniz_coboundary_matrix(h, M, n).matrix,
                        dense_leibniz_coboundary_matrix(h, M, n).matrix)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    return Matrix(field, draw(st.lists(vectors(field, c), min_size=r,
                                       max_size=r)), cols=c)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_matrix_from_int_rows_is_the_dense_matrix(m, data):
    rows, d = m._ints

    def lazy():
        return Matrix._from_int_rows(m.field, [dict(r) for r in rows], d,
                                     m.cols)

    _assert_same_matrix(lazy(), m)
    # transpose, elimination, kernel and apply read the integer view and
    # leave the dense rows unbuilt
    a = lazy()
    t = a.transpose()
    assert a._data is None and t._data is None
    assert t == m.transpose() and t._ints == m.transpose()._ints
    a = lazy()
    assert rref(a) == rref(m) == dense_rref(m)
    assert Echelon(a).kernel() == kernel(LinearMap(m))
    v = tuple(m.field.of(j + 1) for j in range(m.cols))
    assert a.apply(v) == m.apply(v)
    assert a.is_zero() == m.is_zero()
    n = -a
    assert a._data is None and n._data is None
    _assert_same_matrix(n, -m)
    # the engine scales each row to integers by the view's common d; the
    # solves and kernels of both factorizations match the dense oracles
    field = m.field
    bs = data.draw(st.lists(vectors(field, m.rows), max_size=3))
    bs.insert(data.draw(st.integers(0, len(bs))), dense_apply(m, v))
    null = Subspace.row_space(Matrix(field, dense_kernel_rows(m),
                                     cols=m.cols))
    for ech in (Echelon(lazy()), Echelon(m)):
        assert ech.kernel() == null
        # the first solve eliminates [A | b], the later ones use [A | I]
        for b in bs + bs:
            assert dense(field, ech.solve(view(field, b)), m.cols) == \
                dense_solve(m, b)
    assert a._data is None


def test_matrix_from_no_int_rows():
    for field in FIELDS:
        m = Matrix._from_int_rows(field, [], 1, 3)
        assert m.data == () and m == Matrix.zero(field, 0, 3)
        z = Matrix._from_int_rows(field, [{}, {}], 1, 2)
        assert z.data == Matrix.zero(field, 2, 2).data and z.is_zero()
        # equal integer views, different widths
        assert z != Matrix._from_int_rows(field, [{}, {}], 1, 3)
        assert z != Matrix.zero(field, 2, 3) and z == Matrix.zero(field, 2, 2)
        # no rows at all, different widths
        assert m != Matrix._from_int_rows(field, [], 1, 5)
        assert LinearMap.zero(field, 3, 0) != LinearMap.zero(field, 5, 0)


def test_dense_matrices_keep_plain_attribute_reads():
    """Matrix has no `__getattr__` of its own, which would slow every
    attribute read of every matrix; a product keeps its dense rows unbuilt
    until `.data` is read, and then they are the dense product."""
    assert "__getattr__" not in vars(Matrix)
    a = Matrix(QQ, [[1, Fraction(1, 2)], [0, 3]])
    b = Matrix(QQ, [[Fraction(2, 3), 0], [5, -1]])
    prod = a @ b
    assert prod._data is None
    assert prod.data == dense_matmul(a, b).data
    assert prod._data is prod.data


@st.composite
def brackets(draw):
    """Any bilinear structure constants, Lie or not, and two vectors."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, 3))
    c = [[draw(vectors(field, dim)) for _ in range(dim)] for _ in range(dim)]
    cls = draw(st.sampled_from([LieAlgebra, LeibnizAlgebra]))
    return cls(field, dim, c), draw(vectors(field, dim)), \
        draw(vectors(field, dim))


@settings(max_examples=100, deadline=None)
@given(brackets())
def test_bracket_matches_dense_bracket(case):
    alg, u, v = case
    (us, du), (vs, dv) = view(alg.field, u), view(alg.field, v)
    d = alg.structure._ints[1] * du * dv
    assert dense(alg.field, (alg._bracket(us, vs), d), alg.dim) == \
        dense_bracket(alg, u, v)
    assert alg.structure._ints is alg.structure._ints


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_change_basis_lie_matches_the_dense_change_of_basis(field):
    rng = random.Random(7)
    for name in LIE_BASES:
        g = _lie(field, name)
        for _ in range(5):
            P = samples.random_invertible(field, g.dim, rng)
            want = _rebased(g, P, validate_lie)
            assert samples.change_basis_lie(g, P).structure._ints == \
                want.structure._ints, (name, P)


def test_cohomology_reads_delta_as_integer_rows(monkeypatch):
    """cohomology_table and a CochainComplex eliminate delta and its
    transpose without building a dense row of either."""
    built = []
    original = cohomology_mod.ce_coboundary_matrix

    def recorded(*args):
        built.append(original(*args).matrix)
        return LinearMap(built[-1])
    monkeypatch.setattr(cohomology_mod, "ce_coboundary_matrix", recorded)
    g = samples.sl2(QQ)
    M = adjoint(g)
    assert [row[3] for row in cohomology_table(M, 3)] == [0, 0, 0, 0]
    cx = CochainComplex(M)
    assert [cx.dim_h(n) for n in range(4)] == [0, 0, 0, 0]
    assert len(built) == 4 + 4
    assert all(m._data is None for m in built)


def test_gl4_adjoint_table_fits_in_integer_rows():
    """H^n(gl_4, adjoint) is exterior on generators of degrees 1, 3, 5, 7
    (Whitehead on sl_4 plus the centre), so dim H = 1, 1, 0 up to degree 2.
    delta_2 is 8960 x 1920 with 21 840 nonzeros: a dense grid of it would
    take about 270 MB."""
    g = samples.gl(QQ, 4)
    M = adjoint(g)
    tracemalloc.start()
    try:
        rows = cohomology_table(M, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [row[3] for row in rows] == [1, 1, 0]
    assert peak < 64 * 10**6


def test_rank_builds_no_dense_rref(monkeypatch):
    """rank enters rref, whose result stays an integer view: the rank x cols
    grid of field elements is never built.  rank of gl_4's adjoint delta_2
    (8960 x 1920) peaked at 26.8 MB of Python objects when rref built that
    grid."""
    results = []
    original = linalg_mod.rref

    def recorded(m):
        results.append(original(m))
        return results[-1]
    monkeypatch.setattr(linalg_mod, "rref", recorded)
    for field in (QQ, PrimeField(2147483647)):
        d2 = cohomology_mod.coboundary_matrix(adjoint(samples.gl(field, 4)),
                                              2)
        tracemalloc.start()
        try:
            r = rank(d2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r == 1680
        assert results[-1][0]._data is None
        assert peak < 8 * 10**6


def test_gl4_trivial_table_is_exterior_on_degrees_1_3_5_7():
    """H^*(gl_4) is exterior on generators of degrees 1, 3, 5 and 7, so
    dim H^n = 1, 1, 0, 1, 1 for n = 0..4 (delta_4 is 4368 x 1820)."""
    want = cohomology_table(trivial_rep(samples.gl(QQ, 4), 1), 4)
    assert [row[3] for row in want] == [1, 1, 0, 1, 1]
    F = PrimeField(2147483647)
    assert cohomology_table(trivial_rep(samples.gl(F, 4), 1), 4) == want


def test_gl3_adjoint_table_over_a_large_prime_equals_q():
    F = PrimeField(2147483647)
    want = cohomology_table(adjoint(samples.gl(QQ, 3)), 3)
    assert cohomology_table(adjoint(samples.gl(F, 3)), 3) == want
    assert [row[3] for row in want] == [1, 1, 0, 1]


def test_gl_brackets_and_catalog():
    """[E_01, E_10] = E_00 - E_11 in gl_2; gl_n stays out of LIE_CATALOG,
    whose order seeds random_lie."""
    g = samples.gl(QQ, 2)
    e = [tuple(QQ.of(int(i == k)) for i in range(4)) for k in range(4)]
    assert dense_bracket(g, e[1], e[2]) == (1, 0, 0, -1)
    assert not any(name.startswith("gl") for name in samples.LIE_CATALOG)
