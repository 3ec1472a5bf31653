"""The loops that visit only the half of the basis pairs or triples that
antisymmetry leaves independent agree with the full-loop oracles of
dense_oracle, witness for witness:

- `validate_lie`: the pairs i <= j of `_skew_defect`, the triples
  i < j < k of the Jacobi loop;
- `validate_module`: the pairs i < j, as it refuses an algebra that is
  not alternating (ANTISYM_FAIL) before any pair;
- `bracket_defect`: the pairs i < j when the algebras are alternating,
  and every pair when not;
- the Lie Peiffer loop of `crossed_axioms`: the pairs w >= v, with
  rho(dv) v = 0 on the diagonal;
- `_g2_table` of a Lie crossed module: g2(e_j, e_i) = -g2(e_i, e_j).

The failures are planted on the side the halves skip (j < i, w < v) and
on the diagonal over F_2, where a skew [e_i, e_i] may be nonzero: such an
algebra is not alternating, `validate_lie` refuses it, and built without
validation it must take the full loops, or be refused, as must one that
is not skew.
The fields are Q with denominators, F_2, F_3, F_5 and F_2147483647."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (LeibnizAlgebra, LieAlgebra, Representation, _skew_defect,
                                bracket_defect, validate_leibniz,
                                validate_lie, validate_module)
from crossedext.crossed import (CrossedExtension, CrossedModule, _g2_table,
                                crossed_axioms)
from crossedext.field import PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix
from dense_oracle import (dense, dense_bracket_defect, dense_g2_table,
                          dense_peiffer, dense_validate_lie,
                          dense_validate_module)
from test_flavor_core import _rebased_crossed, outcome

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5),
          PrimeField(2147483647)]
F2 = FIELDS[1]


def _scalar(field, rng):
    """Zero half the time; over Q with denominators."""
    if rng.random() < 0.5:
        return field.zero
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return field.of(rng.randrange(field.p))


def _vec(field, n, rng):
    return [_scalar(field, rng) for _ in range(n)]


def _matrix(field, rows, cols, rng):
    return Matrix(field, [_vec(field, cols, rng) for _ in range(rows)],
                  cols=cols)


def _skew(field, dim, rng):
    """Random skew structure constants, c[i][j] the vector of [e_i, e_j]:
    c[j][i] = -c[i][j], and c[i][i] = 0 except over F_2."""
    c = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        c[i][i] = _vec(field, dim, rng) if field is F2 else [field.zero] * dim
        for j in range(i + 1, dim):
            c[i][j] = _vec(field, dim, rng)
            c[j][i] = [-x for x in c[i][j]]
    return c


def _table(g):
    """The structure constants of g as a mutable table."""
    return [list(map(list, row)) for row in g.c]


def _mirror_at(c, i, j):
    """c with 1 added to each coordinate of c[i][j]."""
    c[i][j] = [x + 1 for x in c[i][j]]
    return c


def _mirror_plant(c, rng):
    """c with one entry below the diagonal, c[i][j] with j < i, changed:
    c is then not skew, and c[j][i] is as it was."""
    i = rng.randrange(1, len(c))
    return _mirror_at(c, i, rng.randrange(i))


def _lie(field, rng, max_dim=3):
    """A catalogue Lie algebra in a random basis, or over F_2, half the
    time, a `LieAlgebra` built without validation that is not alternating:
    the first random skew structure with some [e_i, e_i] nonzero that
    satisfies the Leibniz identity on every triple (in dimension 2 or
    more: [e0, e0] = e0 fails it).  `validate_lie` refuses it, and the
    loops must take its diagonal."""
    if field is F2 and rng.random() < 0.5:
        dim = rng.randint(2, max_dim)
        while True:
            c = _skew(field, dim, rng)
            if any(any(c[i][i]) for i in range(dim)) and \
                    outcome(validate_leibniz, field, dim, c) is None:
                return LieAlgebra(field, dim, c)
    return samples.random_lie(field, rng, max_dim)


# ------------------------------------------------------------ validate_lie

def lie_case(field, seed):
    """Structure constants (dim, c): skew and random, a Lie algebra's, or
    either with an entry below the diagonal replaced."""
    rng = random.Random(seed)
    if rng.random() < 0.5:
        c = _skew(field, rng.randint(0, 4), rng)
    else:
        c = _table(samples.random_lie(field, rng, 4))
    if len(c) > 1 and rng.random() < 0.4:
        c = _mirror_plant(c, rng)
    return len(c), c


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_validate_lie_matches_the_full_loops(field, seed):
    dim, c = lie_case(field, seed)
    assert outcome(validate_lie, field, dim, c) == \
        outcome(dense_validate_lie, field, dim, c)


def test_a_jacobi_failure_on_the_f2_diagonal_is_found():
    """[e0, e0] = e1 and [e1, e1] = e0 over F_2: skew, and J(0, 0, 1) =
    [e1, [e0, e0]] = e0, though no triple of distinct indices exists.  The
    bracket is not alternating, so `validate_lie` refuses it at the pair
    (0, 0) before any triple; the Leibniz validator, which visits every
    triple, finds the failure at (0, 0, 1)."""
    o, z = F2.one, F2.zero
    c = [[[z, o], [z, z]], [[z, z], [o, z]]]
    assert outcome(validate_lie, F2, 2, c) == \
        outcome(dense_validate_lie, F2, 2, c) == ("ANTISYM_FAIL", (0, 0), "")
    assert outcome(validate_leibniz, F2, 2, c) == \
        ("LEIBNIZ_FAIL", (0, 0, 1), "")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_a_nonzero_self_bracket_is_skew_only_over_f2(field):
    """[e1, e1] = e0 is -[e1, e1] over F_2 alone, but a Lie bracket is
    alternating, so on every field the diagonal pair (1, 1) is the
    ANTISYM_FAIL witness."""
    z, o = field.zero, field.one
    c = [[[z, z], [z, z]], [[z, z], [o, z]]]
    assert outcome(validate_lie, field, 2, c) == \
        outcome(dense_validate_lie, field, 2, c) == ("ANTISYM_FAIL", (1, 1), "")


# --------------------------------------------------------- validate_module

def module_case(field, seed):
    """A module over a Lie algebra with one action matrix replaced, or over
    the algebra with an entry below the diagonal replaced (not validated,
    not skew), or both."""
    rng = random.Random(seed)
    g = _lie(field, rng)
    # `samples.random_module` validates, and refuses an F_2 `_lie`
    M = samples.random_module(g, rng, 3) if g.dim and \
        _skew_defect(g) is None and rng.random() < 0.7 \
        else Representation(g, 2, [_matrix(field, 2, 2, rng)
                                   for _ in range(g.dim)])
    acts = list(M.action)
    if g.dim and rng.random() < 0.5:
        acts[rng.randrange(g.dim)] = _matrix(field, M.dim, M.dim, rng)
    if g.dim > 1 and rng.random() < 0.5:
        g = LieAlgebra(field, g.dim, _mirror_plant(_table(g), rng))
    return Representation(g, M.dim, acts)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_validate_module_matches_the_full_loop(field, seed):
    rep = module_case(field, seed)
    assert outcome(validate_module, rep) == outcome(dense_validate_module,
                                                    rep)


def test_a_non_skew_algebra_keeps_its_mirror_witness():
    """[e1, e0] = e0 and [e0, e1] = 0, not validated, on k with rho(e0) = 1
    and rho(e1) = 0: only the pair (1, 0) fails the module axiom, but the
    bracket is not alternating, so the module is refused at its mirror
    (0, 1) before any pair is checked."""
    g = LieAlgebra(QQ, 2, [[[0, 0], [0, 0]], [[1, 0], [0, 0]]])
    rep = Representation(g, 1, [Matrix(QQ, [[1]]), Matrix(QQ, [[0]])])
    assert outcome(validate_module, rep) == outcome(dense_validate_module,
                                                    rep) == \
        ("ANTISYM_FAIL", (0, 1), "")


def test_a_module_failure_on_the_f2_diagonal_is_found():
    """[e0, e0] = e1 over F_2 with rho(e1) = 1: rho([e0, e0]) != 0, but
    the bracket is not alternating, so the module is refused at (0, 0)
    before any pair is checked."""
    o, z = F2.one, F2.zero
    g = LieAlgebra(F2, 2, [[[z, o], [z, z]], [[z, z], [z, z]]])
    rep = Representation(g, 1, [Matrix(F2, [[0]]), Matrix(F2, [[1]])])
    assert outcome(validate_module, rep) == outcome(dense_validate_module,
                                                    rep) == \
        ("ANTISYM_FAIL", (0, 0), "")


# ---------------------------------------------------------- bracket_defect

def map_case(field, seed):
    """(f, A, B): A is B in the basis of P's columns and f = P : A -> B
    (an isomorphism), or f is a random map from another algebra; either
    algebra is perhaps changed below the diagonal."""
    rng = random.Random(seed)
    B = _lie(field, rng)
    # `samples.change_basis_lie` validates, and refuses an F_2 `_lie`
    if rng.random() < 0.5 and _skew_defect(B) is None:
        P = samples.random_invertible(field, B.dim, rng)
        A = samples.change_basis_lie(B, P)
        f = LinearMap(P)
    else:
        A = _lie(field, rng)
        f = LinearMap(_matrix(field, B.dim, A.dim, rng))
    if A.dim > 1 and rng.random() < 0.3:
        A = LieAlgebra(field, A.dim, _mirror_plant(_table(A), rng))
    elif B.dim > 1 and rng.random() < 0.3:
        B = LieAlgebra(field, B.dim, _mirror_plant(_table(B), rng))
    return f, A, B


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_bracket_defect_matches_the_full_loop(field, seed):
    f, A, B = map_case(field, seed)
    assert bracket_defect(f, A, B) == dense_bracket_defect(f, A, B)


@pytest.mark.parametrize("planted", ["source", "target"])
def test_a_non_skew_algebra_keeps_its_bracket_witness(planted):
    """The identity of heis3 with [e2, e1] changed in one of the two
    algebras: only the pair (2, 1) fails."""
    g = samples.heisenberg(QQ)
    bent = LieAlgebra(QQ, 3, _mirror_at(_table(g), 2, 1))
    A, B = (bent, g) if planted == "source" else (g, bent)
    f = LinearMap(Matrix.identity(QQ, 3))
    assert bracket_defect(f, A, B) == dense_bracket_defect(f, A, B) == (2, 1)


def test_a_bracket_failure_on_the_f2_diagonal_is_found():
    """The identity from [e0, e0] = e1 over F_2 to the abelian algebra."""
    o, z = F2.one, F2.zero
    A = LieAlgebra(F2, 2, [[[z, o], [z, z]], [[z, z], [z, z]]])
    f = LinearMap(Matrix.identity(F2, 2))
    B = samples.abelian(F2, 2)
    assert bracket_defect(f, A, B) == dense_bracket_defect(f, A, B) == (0, 0)


# --------------------------------------------------------- Peiffer loop

def peiffer_case(field, seed):
    """(cm, leibniz): L = span(e) abelian, d the first coordinate of V,
    and V acted on by N, whose first row is zero, so that d is
    equivariant.  A Lie module has rho(e) = N, and the Peiffer identity
    of (v, w) asks for N e_w = 0 if v = 0, and of (0, 0) for N e_0 = 0.
    A Leibniz one acts by 0 on the left and N on the right, and (v, 0)
    asks for N e_v = 0: with column 0 of N zero that fails only below the
    diagonal.  V is then perhaps put in a random basis."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    leibniz = rng.random() < 0.5
    N = Matrix(field, [[field.zero] * n] + [
        [field.zero if leibniz and col == 0 else _scalar(field, rng)
         for col in range(n)] for _ in range(n - 1)], cols=n)
    d = LinearMap(Matrix(field, [[field.one] + [field.zero] * (n - 1)]))
    if leibniz:
        L = LeibnizAlgebra(field, 1, [[[0]]])
        V = Representation(L, n, [Matrix.zero(field, n, n)], [N])
    else:
        L = samples.abelian(field, 1)
        V = Representation(L, n, [N])
    cm = CrossedModule(L, V, d)
    if rng.random() < 0.3:
        cm = _rebased_crossed(cm, samples.random_invertible(field, n, rng))
    return cm, leibniz


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_peiffer_loop_matches_the_full_loop(field, seed):
    cm, leibniz = peiffer_case(field, seed)
    assert outcome(crossed_axioms, cm) == outcome(dense_peiffer, cm, leibniz)


def test_a_lie_peiffer_failure_on_the_diagonal_is_found():
    """rho(e) = N with N e_0 = e_1: (0, 0) asks for [e_0, e_0] = N e_0 = 0,
    which fails on every field, F_2 too, where 2 N e_0 = 0 would hold."""
    for field, want in ((QQ, (0, 0)), (FIELDS[2], (0, 0)), (F2, (0, 0))):
        L = samples.abelian(field, 1)
        N = Matrix(field, [[0, 0], [1, 0]])
        cm = CrossedModule(L, Representation(L, 2, [N]),
                           LinearMap(Matrix(field, [[1, 0]])))
        got = outcome(crossed_axioms, cm)
        assert got == outcome(dense_peiffer, cm, False)
        assert got == (want and ("PEIFFER_FAIL", want, ""))


# ------------------------------------------------------------- g2 table

def g2_case(field, seed):
    """A presentation whose g2 table is defined, with random sections s
    and q: Lie with skew L and g (with nonzero [e_i, e_i] over F_2), or
    Leibniz with random, not skew, L and g; V is trivial."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        L, g = _lie(field, rng), _lie(field, rng)
        V = Representation(L, n, [Matrix.zero(field, n, n)] * L.dim)
    else:
        L, g = (LeibnizAlgebra(field, k, [[_vec(field, k, rng)
                                           for _ in range(k)]
                                          for _ in range(k)])
                for k in (rng.randint(1, 3), rng.randint(1, 3)))
        zeros = [Matrix.zero(field, n, n)] * L.dim
        V = Representation(L, n, zeros, zeros)
    cm = CrossedModule(L, V, LinearMap(Matrix.zero(field, L.dim, n)))
    pres = CrossedExtension(2, g, None, None, (), (), cm, None)
    return (pres, LinearMap(_matrix(field, L.dim, g.dim, rng)),
            LinearMap(_matrix(field, n, L.dim, rng)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_g2_table_matches_the_full_loop(field, seed):
    pres, s, q = g2_case(field, seed)
    table, d = _g2_table(pres, s, q)
    n = pres.base.rep.dim
    _, want = dense_g2_table(pres, s, q)
    assert set(table) == set(want)
    assert {t: dense(field, (v, d), n) for t, v in table.items()} == want


# ------------------------------------------------- the plants are reached

def _side(pair):
    i, j = pair
    return "diagonal" if i == j else "mirror" if j < i else "upper"


def test_the_plants_reach_the_skipped_sides():
    """The drawn cases fail below the diagonal, which a half loop taken
    without reason would miss, and on the diagonal, which a loop without
    it would miss; and some of them pass.  A module plant that makes its
    algebra non-alternating is refused as ANTISYM_FAIL, at the upper pair
    of a mirror plant or on the diagonal."""
    seen = set()
    for seed in range(120):
        field = FIELDS[seed % len(FIELDS)]
        rep = module_case(field, seed)
        got = outcome(dense_validate_module, rep)
        seen.add(("module", got[0], _side(got[1])) if got else
                 ("module", "pass"))
        pair = dense_bracket_defect(*map_case(field, seed))
        seen.add(("bracket", _side(pair) if pair else "pass"))
        cm, leibniz = peiffer_case(field, seed)
        got = outcome(dense_peiffer, cm, leibniz)
        seen.add(("peiffer", leibniz, _side(got[1]) if got else "pass"))
        got = outcome(dense_validate_lie, field, *lie_case(field, seed))
        seen.add(("lie", got[0] if got else "pass"))
    assert seen >= {
        ("module", "ANTISYM_FAIL", "upper"),
        ("module", "ANTISYM_FAIL", "diagonal"),
        ("module", "MODULE_AXIOM_FAIL", "upper"), ("module", "pass"), ("bracket", "mirror"), ("bracket", "pass"),
        ("bracket", "diagonal"), ("peiffer", True, "mirror"),
        ("peiffer", True, "pass"), ("peiffer", False, "diagonal"),
        ("peiffer", False, "pass"), ("lie", "ANTISYM_FAIL"),
        ("lie", "JACOBI_FAIL"), ("lie", "pass")}
