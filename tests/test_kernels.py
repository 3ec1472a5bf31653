"""The integer multiply-accumulate kernels under `@`, `apply`, `_lincomb`
(the action of a combination of basis vectors, as `pulled_back` and the
Leibniz-module validator form it) and the validators, checked entry for
entry against the Fraction/FpElement loops of dense_oracle."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedext.errors import CheckFailure
from crossedext.field import FpElement, PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix, _from_ints, _int_vec, _lincomb
from crossedext.algebra import (LeibnizAlgebra, LeibnizRepresentation,
                                Representation, adjoint, leibniz_from_lie,
                                validate_leibniz, validate_leibniz_module,
                                validate_lie, validate_module)
from crossedext.crossed import CrossedModule, validate_crossed
from crossedext import samples
from dense_oracle import (dense_apply, dense_change_basis, dense_lincomb,
                          dense_matmul, dense_peiffer,
                          dense_validate_leibniz,
                          dense_validate_leibniz_module, dense_validate_lie,
                          dense_validate_module)
from support import scalars

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2147483647)]


@st.composite
def matrices(draw, field, rows=None, cols=None):
    r = draw(st.integers(0, 4)) if rows is None else rows
    c = draw(st.integers(0, 4)) if cols is None else cols
    kind = draw(st.sampled_from(["random", "random", "zero", "identity"]))
    if kind == "zero":
        return Matrix.zero(field, r, c)
    if kind == "identity" and r == c:
        return Matrix.identity(field, r)
    return Matrix(field, draw(st.lists(
        st.lists(scalars(field), min_size=c, max_size=c),
        min_size=r, max_size=r)), cols=c)


def assert_canonical(m: Matrix):
    """Zeros are the shared field.zero; other entries are field elements."""
    kind = Fraction if m.field is QQ else FpElement
    for row in m.data:
        for x in row:
            assert x is m.field.zero if not x else type(x) is kind


@st.composite
def products(draw):
    field = draw(st.sampled_from(FIELDS))
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return draw(matrices(field, r, k)), draw(matrices(field, k, c))


@settings(max_examples=150, deadline=None)
@given(products())
def test_matmul_matches_oracle(ab):
    a, b = ab
    out = a @ b
    assert out == dense_matmul(a, b)
    assert (out.rows, out.cols) == (a.rows, b.cols)
    assert_canonical(out)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(matrices(f), matrices(f))))
def test_add_sub_match_oracle(ab):
    a, b = ab
    if (a.rows, a.cols) != (b.rows, b.cols):
        b = Matrix.zero(a.field, a.rows, a.cols)
    for out, want in ((a + b, [[x + y for x, y in zip(r, s)]
                               for r, s in zip(a.data, b.data)]),
                      (a - b, [[x - y for x, y in zip(r, s)]
                               for r, s in zip(a.data, b.data)])):
        assert out == Matrix(a.field, want, cols=a.cols)
        assert_canonical(out)


@st.composite
def applications(draw):
    field = draw(st.sampled_from(FIELDS))
    m = draw(matrices(field))
    vec = tuple(draw(st.lists(scalars(field), min_size=m.cols,
                              max_size=m.cols)))
    return m, vec


@settings(max_examples=150, deadline=None)
@given(applications())
def test_apply_matches_oracle(mv):
    m, vec = mv
    out = m.apply(vec)
    assert out == dense_apply(m, vec)
    assert_canonical(Matrix(m.field, (out,), len(out)))


@st.composite
def combinations(draw):
    field = draw(st.sampled_from(FIELDS))
    r, c, n = (draw(st.integers(0, 4)) for _ in range(3))
    mats = [draw(matrices(field, r, c)) for _ in range(n)]
    coefs = tuple(draw(st.lists(scalars(field), min_size=n, max_size=n)))
    return field, coefs, mats, r, c


@settings(max_examples=150, deadline=None)
@given(combinations())
def test_lincomb_matches_oracle(case):
    field, coefs, mats, r, c = case
    out = _from_ints(field, *_lincomb(_int_vec(field, coefs), mats, r), c)
    assert out == dense_lincomb(*case)
    assert_canonical(out)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(matrices))
def test_int_view_is_cached_and_exact(m):
    view = m._ints
    assert m._ints is view
    rows, d = view
    if m.field is QQ:
        assert d == math.lcm(*(x.denominator for r in m.data for x in r))
    else:
        assert d == 1
    for row, ints in zip(m.data, rows):
        assert ints == {j: v for j, v in ints.items() if v}
        for j, x in enumerate(row):
            v = ints.get(j, 0)
            assert x == (Fraction(v, d) if m.field is QQ else m.field.of(v))


def outcome(check, *args):
    """(code, witness, detail) of the CheckFailure check raises, or None."""
    try:
        check(*args)
    except CheckFailure as exc:
        return exc.code, exc.witness, exc.detail
    return None


@st.composite
def structures(draw):
    """Structure constants that are antisymmetric as a rule, so that the
    Jacobi loop is reached; over F_2 the [e_i, e_i] need not vanish."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(0, 3))

    def vec():
        return draw(st.lists(scalars(field), min_size=dim, max_size=dim))

    c = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        c[i][i] = vec() if field.of(2) == 0 else [field.zero] * dim
        for j in range(i + 1, dim):
            c[i][j] = vec()
            c[j][i] = [-x for x in c[i][j]]
    if dim and draw(st.integers(0, 9)) == 0:
        c[draw(st.integers(0, dim - 1))][0] = vec()
    return field, dim, c


@settings(max_examples=200, deadline=None)
@given(structures())
def test_validate_lie_matches_oracle(case):
    field, dim, c = case
    assert outcome(validate_lie, field, dim, c) == \
        outcome(dense_validate_lie, field, dim, [[tuple(v) for v in row]
                                                 for row in c])


ALGEBRAS = [samples.sl2, samples.heisenberg, samples.solvable2,
            lambda f: samples.abelian(f, 2)]


def _nonlie_leibniz3(field):
    """Dim 3, [e2, e2] = e0 with e0 central: Leibniz, not Lie."""
    z, o = field.zero, field.one
    c = [[(z, z, z)] * 3 for _ in range(3)]
    c[2][2] = (o, z, z)
    return validate_leibniz(field, 3, c)


LEIBNIZ_ALGEBRAS = [samples.nonlie_leibniz, _nonlie_leibniz3] + [
    lambda f, make=make: leibniz_from_lie(make(f)) for make in ALGEBRAS]


@st.composite
def leibniz_structures(draw):
    """Leibniz algebras in a random basis, some with one bracket replaced
    by a random vector (a planted failure)."""
    field = draw(st.sampled_from(FIELDS))
    h = draw(st.sampled_from(LEIBNIZ_ALGEBRAS))(field)
    rng = random.Random(draw(st.integers(0, 2**16)))
    c = dense_change_basis(h, samples.random_invertible(field, h.dim, rng))
    if draw(st.booleans()):
        i, j = (draw(st.integers(0, h.dim - 1)) for _ in range(2))
        c[i][j] = tuple(draw(st.lists(scalars(field), min_size=h.dim,
                                      max_size=h.dim)))
    return field, h.dim, c


@settings(max_examples=150, deadline=None)
@given(leibniz_structures())
def test_validate_leibniz_matches_oracle(case):
    field, dim, c = case
    assert outcome(validate_leibniz, field, dim, c) == \
        outcome(dense_validate_leibniz, LeibnizAlgebra(field, dim, c))


@st.composite
def broken_modules(draw):
    """An adjoint module with one action matrix replaced."""
    field = draw(st.sampled_from(FIELDS))
    g = draw(st.sampled_from(ALGEBRAS))(field)
    acts = list(adjoint(g).action)
    acts[draw(st.integers(0, g.dim - 1))] = draw(
        matrices(field, g.dim, g.dim))
    return Representation(g, g.dim, acts)


@settings(max_examples=100, deadline=None)
@given(broken_modules())
def test_validate_module_matches_oracle(rep):
    assert outcome(validate_module, rep) == \
        outcome(dense_validate_module, rep)


@st.composite
def broken_leibniz_modules(draw):
    field = draw(st.sampled_from(FIELDS))
    h = LeibnizAlgebra(field, 2, [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]
                       if draw(st.booleans()) else
                       [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    n = draw(st.integers(1, 3))
    left = [draw(matrices(field, n, n)) for _ in range(2)]
    right = [draw(matrices(field, n, n)) for _ in range(2)]
    return LeibnizRepresentation(h, n, left, right)


@settings(max_examples=150, deadline=None)
@given(broken_leibniz_modules())
def test_validate_leibniz_module_matches_oracle(rep):
    assert outcome(validate_leibniz_module, rep) == \
        outcome(dense_validate_leibniz_module, rep)


@st.composite
def crossed_modules(draw):
    """L one-dimensional abelian, partial = first coordinate of V, and an
    action N with first row zero, so that every check before the Peiffer
    loop passes; the Leibniz one acts by 0 on the left and N on the right."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(scalars(field), min_size=n, max_size=n),
                         min_size=n - 1, max_size=n - 1))
    N = Matrix(field, [[field.zero] * n] + rows, cols=n)
    d = LinearMap(Matrix(field, [[field.one] + [field.zero] * (n - 1)]))
    if draw(st.booleans()):
        L = LeibnizAlgebra(field, 1, [[[0]]])
        V = LeibnizRepresentation(L, n, [Matrix.zero(field, n, n)], [N])
        return CrossedModule(L, V, d), True
    L = samples.abelian(field, 1)
    return CrossedModule(L, Representation(L, n, [N]), d), False


@settings(max_examples=150, deadline=None)
@given(crossed_modules())
def test_peiffer_loop_matches_oracle(case):
    cm, leibniz = case
    got = outcome(validate_crossed, cm)
    want = outcome(dense_peiffer, cm, leibniz)
    if want is None:
        assert got is None or got[1] is None  # only the derived check
    else:
        assert got == want


# Broken inputs with the code and witness the Fraction loops gave.
def _e(i, j, n=3, field=QQ):
    return Matrix(field, [[1 if (r, c) == (i, j) else 0 for c in range(n)]
                          for r in range(n)])


def test_module_axiom_witness_off_the_first_pair():
    g = samples.abelian(QQ, 3)
    rep = Representation(g, 3, [Matrix.zero(QQ, 3, 3), _e(0, 1), _e(1, 2)])
    assert outcome(validate_module, rep) == ("MODULE_AXIOM_FAIL", (1, 2), "")


def test_module_axiom_witness_with_fractions():
    g = samples.sl2(QQ)
    acts = list(adjoint(g).action)
    acts[2] = acts[2].scale(Fraction(1, 2))
    assert outcome(validate_module, Representation(g, 3, acts)) == \
        ("MODULE_AXIOM_FAIL", (0, 1), "")


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_leibniz_module_slot_witnesses(field):
    h1 = LeibnizAlgebra(field, 1, [[[0]]])
    zero = Matrix.zero(field, 2, 2)
    slot_y = LeibnizRepresentation(h1, 2, [_e(0, 1, 2, field)],
                                   [_e(1, 1, 2, field)])
    assert outcome(validate_leibniz_module, slot_y) == \
        ("MODULE_AXIOM_FAIL", (0, 0), "slot y")
    h2 = LeibnizAlgebra(field, 2, [[[0, 0], [0, 0]], [[0, 0], [0, 0]]])
    slot_x = LeibnizRepresentation(h2, 2, [zero, zero],
                                   [_e(0, 1, 2, field), _e(1, 0, 2, field)])
    assert outcome(validate_leibniz_module, slot_x) == \
        ("MODULE_AXIOM_FAIL", (0, 1), "slot x")
    h = samples.sl2(field)
    from crossedext.algebra import leibniz_from_lie, leibniz_rep_from_lie
    lr = leibniz_rep_from_lie(adjoint(h), leibniz_from_lie(h))
    right = list(lr.right)
    right[1] = -right[1]
    slot_z = LeibnizRepresentation(lr.algebra, 3, lr.left, right)
    assert outcome(validate_leibniz_module, slot_z) == \
        ("MODULE_AXIOM_FAIL", (0, 1), "slot z")


def test_peiffer_witnesses():
    a1 = samples.abelian(QQ, 1)
    cm = CrossedModule(a1, Representation(a1, 3, [_e(1, 2)]),
                       LinearMap(Matrix(QQ, [[1, 0, 0]])))
    assert outcome(validate_crossed, cm) == ("PEIFFER_FAIL", (0, 2), "")
    N = Matrix(QQ, [[0, 0, 0], [0, 0, 0], [0, Fraction(2, 3), 0]])
    cm = CrossedModule(a1, Representation(a1, 3, [N]),
                       LinearMap(Matrix(QQ, [[0, 1, 0]])))
    assert outcome(validate_crossed, cm) == ("PEIFFER_FAIL", (1, 1), "")
    h1 = LeibnizAlgebra(QQ, 1, [[[0]]])
    V = LeibnizRepresentation(h1, 3, [Matrix.zero(QQ, 3, 3)], [_e(2, 1)])
    cm = CrossedModule(h1, V, LinearMap(Matrix(QQ, [[1, 0, 0]])))
    assert outcome(validate_crossed, cm) == ("PEIFFER_FAIL", (1, 0), "")


def test_jacobi_witnesses_over_f2_with_nonzero_self_brackets():
    F2 = PrimeField(2)
    # [e, e] = e: antisymmetric over F_2, and 3[[e,e],e] = e != 0
    assert outcome(validate_lie, F2, 1, [[[1]]]) == \
        ("JACOBI_FAIL", (0, 0, 0), "")
    assert outcome(validate_lie, F2, 2, [[[0, 0], [0, 1]],
                                         [[0, 1], [1, 0]]]) == \
        ("JACOBI_FAIL", (1, 1, 1), "")
    assert outcome(validate_lie, F2, 2, [[[0, 0], [1, 0]],
                                         [[1, 0], [0, 1]]]) == \
        ("JACOBI_FAIL", (0, 1, 1), "")


def test_jacobi_witness_with_fractions():
    h = Fraction(1, 2)
    c = [[[0, 0, 0], [0, 0, 1], [h, 0, 0]],
         [[0, 0, -1], [0, 0, 0], [0, 1, 0]],
         [[-h, 0, 0], [0, -1, 0], [0, 0, 0]]]
    assert outcome(validate_lie, QQ, 3, c) == ("JACOBI_FAIL", (0, 1, 2), "")


def test_jacobi_witness_is_the_rotation_with_the_least_index_first():
    """[e0, e1] = e0 and [e2, e2] = e0 over F_2: the only failing orbit is
    that of (2, 2, 1), where [[e2, e2], e1] = e0 is the one nonzero term.
    Its rotation (1, 2, 2) comes first in lexicographic order, and both the
    loop over j, k >= i and the oracle's loop over all triples report it."""
    F2 = PrimeField(2)
    c = [[[0, 0, 0], [1, 0, 0], [0, 0, 0]],
         [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
         [[0, 0, 0], [0, 0, 0], [1, 0, 0]]]
    assert outcome(validate_lie, F2, 3, c) == ("JACOBI_FAIL", (1, 2, 2), "")
    assert outcome(dense_validate_lie, F2, 3,
                   [[tuple(F2.of(x) for x in v) for v in row]
                    for row in c]) == ("JACOBI_FAIL", (1, 2, 2), "")
