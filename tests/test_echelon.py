"""`Echelon` (one factorization, many questions) and the solvers built on it,
checked against the dense oracles: the augmented-matrix solve, eliminated
afresh for each right-hand side, the dense RREF, the whole-row reduce loop
and the reduce-built quotient.  The engine eliminates integer rows, each
row of A scaled to integers, so the matrices drawn include integer views
on a common denominator d > 1 and dense rows of different denominators:
a scale dropped from an augmented column would show as a wrong solve."""
import random

from hypothesis import given, settings, strategies as st

from crossedext.field import PrimeField, QQ
from crossedext.linalg import (Echelon, LinearMap, Matrix, Subspace,
                               _from_ints, kernel, linear_section, quotient,
                               solve, solve_matrix)
from dense_oracle import (dense, dense_apply, dense_col, dense_kernel_rows,
                          dense_quotient, dense_reduce, dense_rref,
                          dense_solve, dense_transpose, view)
from support import scalars

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2147483647)]


def vectors(field, n):
    return st.lists(scalars(field), min_size=n, max_size=n).map(tuple)


@st.composite
def matrices(draw, field, rows=None, cols=None):
    """Random, zero, rank-one-repeated or 0 x n / n x 0 matrices; integer
    views on a common denominator d of 2 to 6 (1 over F_p), whose dense
    rows are built only when read; and over Q rows scaled by 1/k, k = 1 to
    6 a row, so that the rows' denominators differ."""
    r = draw(st.integers(0, 5)) if rows is None else rows
    c = draw(st.integers(0, 5)) if cols is None else cols
    kind = draw(st.sampled_from(["random", "random", "zero", "repeated",
                                 "view", "scaled"]))
    if kind == "zero":
        return Matrix.zero(field, r, c)
    if kind == "repeated" and r:
        row = draw(vectors(field, c))
        return Matrix(field, [row] * r, cols=c)
    if kind == "view":
        ints = st.one_of(st.just(0), st.integers(-9, 9))
        view = [dict(enumerate(draw(st.lists(ints, min_size=c,
                                             max_size=c)))) for _ in range(r)]
        return _from_ints(field, view, draw(st.integers(2, 6)), c)
    if kind == "scaled" and field is QQ:
        return Matrix(field, [[x / k for x in draw(vectors(field, c))]
                              for k in draw(st.lists(st.integers(1, 6),
                                                     min_size=r,
                                                     max_size=r))], cols=c)
    return Matrix(field, draw(st.lists(vectors(field, c), min_size=r,
                                       max_size=r)), cols=c)


@st.composite
def systems(draw):
    """A matrix with several right-hand sides: images of random vectors
    (always consistent) and random vectors (often not)."""
    field = draw(st.sampled_from(FIELDS))
    m = draw(matrices(field))
    xs = draw(st.lists(vectors(field, m.cols), max_size=4))
    bs = draw(st.lists(vectors(field, m.rows), max_size=4))
    targets = [dense_apply(m, x) for x in xs] + bs
    draw(st.randoms()).shuffle(targets)
    return m, targets


@settings(max_examples=200, deadline=None)
@given(systems())
def test_echelon_solve_matches_augmented_oracle(system):
    m, targets = system
    ech = Echelon(m)
    for b in targets:
        want = dense_solve(m, b)
        assert dense(m.field, ech.solve(view(m.field, b)), m.cols) == want
        assert dense(m.field, solve(LinearMap(m), view(m.field, b)),
                     m.cols) == want
    # the rank and pivots asked after the solves match the RREF
    _, piv = dense_rref(m)
    assert (ech.rank, ech.pivots) == (len(piv), piv)


@settings(max_examples=100, deadline=None)
@given(systems())
def test_consistent_targets_solve_and_others_are_none(system):
    m, targets = system
    ech = Echelon(m)
    for b in targets:
        x = dense(m.field, ech.solve(view(m.field, b)), m.cols)
        if x is None:
            assert dense_solve(m, b) is None
        else:
            assert dense_apply(m, x) == tuple(b)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.integers(0, 5).flatmap(
        lambda n: st.tuples(matrices(f, rows=n), matrices(f, rows=n)))))
def test_solve_matrix_matches_columnwise_oracle(ab):
    a, b = ab
    want = [dense_solve(a, dense_col(b, j)) for j in range(b.cols)]
    got = solve_matrix(LinearMap(a), b)
    if any(x is None for x in want):
        assert got is None
    else:
        assert got == dense_transpose(Matrix(a.field, want, cols=a.cols))


def oracle_section(m: Matrix) -> Matrix:
    """Column i is the oracle preimage of basis row r of image(m) when i is
    pivot r, zero otherwise."""
    basis, piv = dense_rref(m.transpose())
    cols = [[m.field.zero] * m.cols for _ in range(m.rows)]
    for r, p in enumerate(piv):
        cols[p] = list(dense_solve(m, basis.data[r]))
    return dense_transpose(Matrix(m.field, cols, cols=m.cols))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_linear_section_matches_oracle(m):
    q = linear_section(LinearMap(m))
    assert q.matrix == oracle_section(m)
    # f . q is the identity on image(f)
    for row in dense_rref(m.transpose())[0].data:
        assert dense_apply(m, dense_apply(q.matrix, row)) == row


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.integers(0, 5).flatmap(
        lambda n: st.tuples(matrices(f, cols=n),
                            st.lists(vectors(f, n), max_size=4)))))
def test_subspace_reduce_and_coordinates_match_oracle(case):
    m, vecs = case
    basis, piv = dense_rref(m)
    basis = Matrix(m.field, basis.data[:len(piv)], cols=m.cols)
    sub = Subspace.row_space(m)
    # a member of the row space too, not only random vectors
    coefs = tuple(m.field.of(k % 3 + 1) for k in range(m.rows))
    member = dense_apply(m.transpose(), coefs)
    for vec in list(vecs) + [member]:
        want = dense_reduce(basis, piv, vec)
        v = view(m.field, vec)
        assert dense(m.field, sub.reduce(v), m.cols) == want
        inside = not any(want)
        assert sub.contains(v) == inside
        coords = tuple(vec[p] for p in piv) if inside else None
        assert dense(m.field, sub.coordinates(v), len(piv)) == coords


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_kernel_matches_oracle(m):
    want = Subspace.row_space(Matrix(m.field, dense_kernel_rows(m),
                                     cols=m.cols))
    assert Echelon(m).kernel() == want
    assert kernel(LinearMap(m)) == want


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_quotient_matches_reduce_built_oracle(m):
    sub = Subspace.row_space(m)
    proj, sect, qdim = quotient(m.cols, sub)
    want_proj, want_sect = dense_quotient(m.cols, sub.basis, sub.pivots)
    assert proj.matrix == want_proj
    assert sect.matrix == want_sect
    assert qdim == m.cols - sub.dim
    assert (proj.matrix.rows, proj.matrix.cols) == (qdim, m.cols)
    assert (sect.matrix.rows, sect.matrix.cols) == (m.cols, qdim)


def test_empty_shapes():
    for field in FIELDS:
        tall = Echelon(Matrix.zero(field, 3, 0))       # 3 x 0
        assert tall.rank == 0 and tall.pivots == ()
        assert dense(field, tall.solve(view(field, (field.zero,) * 3)),
                     0) == ()
        assert tall.solve(view(field, (field.zero, field.one,
                                       field.zero))) is None
        wide = Echelon(Matrix.zero(field, 0, 3))       # 0 x 3
        assert dense(field, wide.solve(view(field, ())), 3) == \
            (field.zero,) * 3
        assert wide.kernel().dim == 3
        row = Echelon(Matrix(field, [[0, 1, 1]], cols=3))     # 1 x 3
        assert row.rank == 1 and row.pivots == (1,)
        assert dense(field, row.solve(view(field, (field.of(2),))), 3) == \
            (field.zero, field.of(2), field.zero)


def test_solve_coerces_plain_int_targets():
    # plain ints are an integer view on d = 1; the solution is one too,
    # plain ints on a positive denominator (1 over F_p)
    for field in FIELDS:
        m = Matrix(field, [[1, 2, 0], [0, 1, 1], [1, 3, 1]], cols=3)
        f = LinearMap(m)
        b = (3, 1, 4)
        want = dense_solve(m, tuple(map(field.of, b)))
        assert want is not None
        x, d = solve(f, (dict(enumerate(b)), 1))
        assert dense(field, (x, d), 3) == want
        assert all(type(v) is int for v in [*x.values(), d]) and d > 0
        targets = Matrix(field, [[3, 0], [1, 1], [4, 1]])
        assert solve_matrix(f, targets) == dense_transpose(Matrix(
            field, [want, dense_solve(m, (field.zero, field.one, field.one))],
            cols=3))


def test_one_shot_and_repeated_solves_agree():
    # the first solve eliminates [A | b], later ones use the row transform
    rng = random.Random(11)
    for field in FIELDS:
        m = Matrix(field, [[field.of(rng.randint(-2, 2)) for _ in range(3)]
                           for _ in range(7)], cols=3)
        x = tuple(field.of(rng.randint(-3, 3)) for _ in range(3))
        targets = [dense_apply(m, x),
                   tuple(field.of(rng.randint(-3, 3)) for _ in range(7))]
        for b in targets:
            fresh = Echelon(m)
            first = dense(field, fresh.solve(view(field, b)), 3)
            assert first == dense(field, fresh.solve(view(field, b)), 3) \
                == dense_solve(m, b)
            assert (fresh.rank, fresh.pivots) == (len(dense_rref(m)[1]),
                                                  dense_rref(m)[1])


def test_many_targets_against_one_factorization():
    rng = random.Random(5)
    for field in FIELDS:
        m = Matrix(field, [[field.of(rng.randint(-2, 2)) for _ in range(6)]
                           for _ in range(5)], cols=6)
        ech = Echelon(m)
        for _ in range(40):
            x = tuple(field.of(rng.randint(-3, 3)) for _ in range(6))
            b = dense_apply(m, x)
            assert dense(field, ech.solve(view(field, b)), 6) == \
                dense_solve(m, b)
            b = tuple(field.of(rng.randint(-3, 3)) for _ in range(5))
            assert dense(field, ech.solve(view(field, b)), 6) == \
                dense_solve(m, b)
