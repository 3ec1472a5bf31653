import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedext.field import PrimeField, QQ
from crossedext.linalg import (LinearMap, Matrix, Subspace, _echelon,
                               block_diag, kernel, linear_section, quotient,
                               rank, rref, solve, solve_matrix)
from dense_oracle import dense, dense_rref, view
from support import perfbench_gen

FIELDS = [QQ, PrimeField(5)]
ORACLE_FIELDS = [QQ, PrimeField(5), PrimeField(2147483647)]


def _entries(field):
    if field is QQ:
        return st.integers(-6, 6).map(field.of)
    return st.integers(0, 4).map(field.of)


def matrices(field, max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(_entries(field), min_size=c, max_size=c),
                min_size=r, max_size=r).map(
                    lambda rows: Matrix(field, rows, cols=c))))


def test_rref_known():
    m = Matrix(QQ, [[QQ.of(2), QQ.of(4)], [QQ.of(1), QQ.of(2)]], cols=2)
    r, piv = rref(m)
    assert piv == (0,)
    assert r.data[0] == (QQ.one, QQ.of(2))
    assert not any(r.data[1])


def test_rref_idempotent_small():
    m = Matrix(QQ, [[QQ.of(1), QQ.of(3), QQ.of(1)],
                    [QQ.of(2), QQ.of(6), QQ.of(3)]], cols=3)
    r, _ = rref(m)
    r2, _ = rref(r)
    assert r == r2


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_rank_nullity(m):
    f = LinearMap(m)
    assert rank(f) + kernel(f).dim == f.domain_dim


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_kernel_vectors_map_to_zero(m):
    f = LinearMap(m)
    for row in kernel(f).basis.data:
        assert not any(f.apply(row))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_quotient_projection_section_identity(m):
    f = LinearMap(m)
    sub = kernel(f)
    proj, sect, qdim = quotient(f.domain_dim, sub)
    assert proj.compose(sect) == LinearMap.identity(m.field, qdim)
    for row in sub.basis.data:
        assert not any(proj.apply(row))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_solve_roundtrip(m):
    f = LinearMap(m)
    rng = random.Random(0)
    v = tuple(m.field.of(rng.randint(-3, 3)) for _ in range(f.domain_dim))
    target = f.apply(v)
    w = dense(m.field, solve(f, view(m.field, target)), f.domain_dim)
    assert w is not None
    assert f.apply(w) == target


def test_solve_unsolvable_returns_none():
    f = LinearMap(Matrix(QQ, [[QQ.of(1)], [QQ.of(1)]], cols=1))
    assert solve(f, view(QQ, (QQ.of(1), QQ.of(2)))) is None


def test_linear_section_is_right_inverse():
    m = Matrix(QQ, [[QQ.of(1), QQ.of(2), QQ.of(0)],
                    [QQ.of(0), QQ.of(0), QQ.of(3)]], cols=3)
    f = LinearMap(m)
    s = linear_section(f)
    assert f.compose(s) == LinearMap.identity(QQ, 2)


def test_subspace_equality_is_basis_independent():
    a = Subspace.row_space(Matrix(QQ, [(QQ.of(1), QQ.of(1), QQ.of(0)),
                                       (QQ.of(0), QQ.of(2), QQ.of(0))]))
    b = Subspace.row_space(Matrix(QQ, [(QQ.of(3), QQ.of(5), QQ.of(0)),
                                       (QQ.of(1), QQ.of(0), QQ.of(0))]))
    assert a == b


def test_zero_row_matrix_keeps_column_count():
    m = Matrix.zero(QQ, 0, 3)
    assert m.cols == 3
    assert kernel(LinearMap(m)).dim == 3


def test_quotient_by_full_space_is_zero_dimensional():
    full = Subspace.row_space(Matrix(QQ, [(QQ.one, QQ.zero),
                                          (QQ.zero, QQ.one)]))
    proj, sect, qdim = quotient(2, full)
    assert qdim == 0
    assert proj.matrix.cols == 2


def test_declared_width_is_checked():
    # a width given beside non-empty rows of another length is an error,
    # not ignored (the matrix would be 1 x 2)
    for field in ORACLE_FIELDS:
        with pytest.raises(ValueError, match="ragged"):
            Matrix(field, [[1, 2]], cols=5)
        with pytest.raises(ValueError, match="ragged"):
            Matrix(field, [[1, 2], [3, 4]], cols=1)
        with pytest.raises(ValueError, match="ragged"):
            Subspace.row_space(Matrix(field, [(field.one, field.zero)],
                                      cols=3))
        assert Matrix(field, [[1, 2]], cols=2).cols == 2
        assert (Matrix(field, [], cols=5).rows,
                Matrix(field, [], cols=5).cols) == (0, 5)


def test_solve_matrix_inverts():
    m = Matrix(QQ, [[QQ.of(2), QQ.of(1)], [QQ.of(1), QQ.of(1)]], cols=2)
    inv = solve_matrix(LinearMap(m), Matrix.identity(QQ, 2))
    assert m @ inv == Matrix.identity(QQ, 2)


def test_block_diag_shape():
    a = Matrix.identity(QQ, 2)
    b = Matrix.zero(QQ, 1, 3)
    d = block_diag(a, b)
    assert (d.rows, d.cols) == (3, 5)


def _sparse_scalars(field):
    """Mostly zeros, as in coboundary matrices, plus small and full-size
    values of the field."""
    if field is QQ:
        other = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    else:
        other = st.integers(0, field.p - 1)
    return st.one_of(st.just(0), st.just(0), st.sampled_from([1, -1, 2]),
                     other).map(field.of)


@st.composite
def oracle_cases(draw):
    """A matrix with zero rows and columns allowed (including 0 x n and
    n x 0 shapes), sometimes with rows that are combinations of others."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    nr, nc = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    rows = [draw(st.lists(_sparse_scalars(field), min_size=nc, max_size=nc))
            for _ in range(nr)]
    if nr >= 2 and draw(st.booleans()):
        k = draw(_sparse_scalars(field))
        rows.append([k * a + b for a, b in zip(rows[0], rows[1])])
    return Matrix(field, rows, cols=nc)


@settings(max_examples=200, deadline=None)
@given(oracle_cases())
def test_rref_matches_dense_oracle(m):
    expected = dense_rref(m)
    assert rref(m) == expected
    reduced = expected[0]
    assert rref(reduced) == dense_rref(reduced) == expected
    assert rank(LinearMap(m)) == len(dense_rref(m.transpose())[1])


def test_rref_oracle_on_degenerate_shapes():
    for field in ORACLE_FIELDS:
        for m in (Matrix.zero(field, 0, 4), Matrix.zero(field, 3, 0),
                  Matrix.zero(field, 3, 4), Matrix.identity(field, 3)):
            assert rref(m) == dense_rref(m)
            assert (rref(m)[0].rows, rref(m)[0].cols) == (m.rows, m.cols)


# perfbench/gen.py, for the random bases the benchmark documents are drawn in
GEN = perfbench_gen()


def _int_matrices(rows, cols, bound):
    return st.lists(st.lists(st.integers(-bound, bound), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


@st.composite
def growth_cases(draw):
    """Dense random integer matrices up to 10 x 10 with entries up to
    +-10^6, where an elimination that never divided by the content would
    blow up; and random unimodular bases as perfbench/gen.py draws them,
    alone or times a small random integer matrix."""
    r, c = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["dense", "unimodular", "product"]))
    if kind == "dense":
        return Matrix(QQ, draw(_int_matrices(r, c, 10**6)), cols=c)
    p, _ = GEN.unimodular(r, random.Random(draw(st.integers(0, 2**32))))
    if kind == "unimodular":
        return Matrix(QQ, p, cols=r)
    return Matrix(QQ, p, cols=r) @ Matrix(QQ, draw(_int_matrices(r, c, 3)),
                                         cols=c)


@settings(max_examples=150, deadline=None)
@given(growth_cases())
def test_pivot_rows_are_primitive_multiples_of_the_rref(m):
    """Every stored pivot row is the primitive integer multiple, with a
    positive lead, of its RREF row: no entry is larger than the RREF row on
    the lcm of its denominators, whatever the elimination went through."""
    want, piv = dense_rref(m)
    got = _echelon([dict(r) for r in m._ints[0]], None)
    assert tuple(sorted(got)) == piv
    for k, c in enumerate(piv):
        lead, tail = got[c]
        assert lead > 0 and math.gcd(lead, *tail.values()) == 1
        row = [Fraction(0)] * m.cols
        row[c] = Fraction(1)
        for j, v in tail.items():
            row[j] = Fraction(v, lead)
        assert tuple(row) == want.data[k]
    r, p = rref(m)
    assert p == piv and r.data == want.data
    assert all(type(x) is Fraction for row in r.data for x in row)


def test_raw_matrix_equals_coerced_matrix():
    for field in ORACLE_FIELDS:
        data = ((field.of(1), field.zero), (field.of(-2), field.of(3)))
        raw = Matrix(field, data, 2)
        coerced = Matrix(field, [[1, 0], [-2, 3]])
        assert raw == coerced and hash(raw) == hash(coerced)
        assert type(raw.data) is tuple
        assert all(type(row) is tuple for row in raw.data)
        zero = Matrix.zero(field, 2, 2)
        for built in (raw.transpose().transpose(), raw + zero, raw - zero,
                      zero - (-raw), raw.scale(1),
                      raw @ Matrix.identity(field, 2), -(-raw),
                      raw.hstack(Matrix.zero(field, 2, 0)),
                      raw.vstack(Matrix.zero(field, 0, 2))):
            assert built == coerced and hash(built) == hash(coerced)
            assert all(type(row) is tuple for row in built.data)
        assert raw + raw == raw.scale(2) == Matrix(field, [[2, 0], [-4, 6]])
        assert (raw - raw).is_zero() and raw.scale(0).is_zero()
        # constructors, stacking and scaling on the integer view, against
        # the coerced matrix of the same entries; over Q the two stacked
        # operands sit on denominators 2 and 3
        half, third = field.one / field.of(2), field.one / field.of(3)
        halves = Matrix(field, [[half, 0], [-1, 3 * half]])
        thirds = Matrix(field, [[third, 0], [0, 1]])
        for built, want in (
                (Matrix.zero(field, 2, 3), Matrix(field, [[0] * 3] * 2)),
                (Matrix.identity(field, 2), Matrix(field, [[1, 0], [0, 1]])),
                (Matrix(field, [(1, -2), (0, 3)]).transpose(), coerced),
                (halves.hstack(thirds),
                 Matrix(field, [[half, 0, third, 0], [-1, 3 * half, 0, 1]])),
                (thirds.vstack(halves),
                 Matrix(field, [[third, 0], [0, 1], [half, 0],
                                [-1, 3 * half]])),
                (raw.scale(half), halves),
                (raw.scale(0), Matrix(field, [[0, 0], [0, 0]])),
                (Matrix.zero(field, 0, 3), Matrix(field, [], cols=3)),
                (Matrix.zero(field, 3, 0), Matrix(field, [[], [], []])),
                (Matrix(field, [], cols=3).transpose(),
                 Matrix(field, [[], [], []])),
                (Matrix.zero(field, 0, 2).vstack(raw), coerced),
                (Matrix.zero(field, 2, 0).hstack(raw), coerced)):
            assert built == want and hash(built) == hash(want)
            assert built.data == want.data
    q = Matrix(QQ, [[Fraction(1, 2), 3]])
    assert Subspace.row_space(Matrix(QQ, q.data, cols=2)).basis == \
        Matrix(QQ, [[1, 6]])
