"""`equivariance_defect`, one `linalg._first_nonzero_row` pass per basis
vector and action family, against the field-element loop of
dense_oracle, over Q with denominators, F_2, F_3 and F_2147483647.  It is
reached the three ways the package reaches it: through `validate_morphism`
(targets as matrices), through the bracket families of `crossed_axioms`
and with `pulled_back` targets.  Besides random cases, each strategy plants
a single failing entry in a row that is not row 0 of an otherwise
equivariant case, and over F_p a difference whose integer lift is
nonzero but vanishes mod p must pass."""
import pytest
from hypothesis import given, settings, strategies as st

from crossedext.errors import CheckFailure
from crossedext.field import PrimeField, QQ
from crossedext.linalg import LinearMap, Matrix, _first_nonzero_row
from crossedext.algebra import (LeibnizAlgebra, LeibnizRepresentation,
                                LieAlgebra, ModuleMorphism, Representation,
                                equivariance_defect, pulled_back, sides,
                                validate_morphism)
from crossedext.crossed import CrossedModule, crossed_axioms
from dense_oracle import (_adjoint_matrix, dense_equivariance_defect,
                          dense_pulled_back)
from support import scalars

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(2147483647)]
PRIMES = FIELDS[1:]


def outcome(check, *args):
    """(code, witness, detail) of the CheckFailure check raises, or None."""
    try:
        check(*args)
    except CheckFailure as exc:
        return exc.code, exc.witness, exc.detail
    return None


@st.composite
def matrices(draw, field, rows, cols):
    return Matrix(field, draw(st.lists(
        st.lists(scalars(field), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows)), cols=cols)


def nonzero(field):
    return scalars(field).filter(bool)


def _module(alg, dim, families):
    if isinstance(alg, LeibnizAlgebra):
        return LeibnizRepresentation(alg, dim, *families)
    return Representation(alg, dim, families[0])


@st.composite
def planted(draw, field, families, dim):
    """families with one entry changed, in a row that is not row 0 when
    dim > 1."""
    s = draw(st.integers(0, len(families) - 1))
    i = draw(st.integers(0, len(families[s]) - 1))
    r = draw(st.integers(min(1, dim - 1), dim - 1))
    c = draw(st.integers(0, dim - 1))
    x = draw(nonzero(field))
    bump = Matrix(field, [[x if (a, b) == (r, c) else 0 for b in range(dim)]
                          for a in range(dim)])
    out = [list(fam) for fam in families]
    out[s][i] = out[s][i] + bump
    return out


@st.composite
def morphisms(draw):
    """A module morphism over an abelian algebra of either flavor: random,
    or c times the identity between a module and a copy of it with one
    entry planted (equivariant when nothing is planted)."""
    field = draw(st.sampled_from(FIELDS))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    leib = draw(st.booleans())
    alg = (LeibnizAlgebra if leib else LieAlgebra)(
        field, k, [[[0] * k for _ in range(k)] for _ in range(k)])
    fams = [[draw(matrices(field, n, n)) for _ in range(k)]
            for _ in range(2 if leib else 1)]
    kind = draw(st.sampled_from(["random", "planted", "equivariant"]))
    if kind == "random":
        m = draw(st.integers(1, 4))
        tfams = [[draw(matrices(field, m, m)) for _ in range(k)]
                 for _ in fams]
        f = draw(matrices(field, m, n))
    else:
        m, f = n, Matrix.identity(field, n).scale(draw(nonzero(field)))
        tfams = draw(planted(field, fams, n)) if kind == "planted" \
            else fams
    return ModuleMorphism(_module(alg, n, fams), _module(alg, m, tfams), f)


@settings(max_examples=200, deadline=None)
@given(morphisms())
def test_validate_morphism_matches_the_oracle(phi):
    hit = dense_equivariance_defect(phi.matrix, sides(phi.source),
                                    sides(phi.target))
    want = None if hit is None else \
        ("EQUIVARIANCE_FAIL", hit[:1], hit[1] and f"{hit[1]} action")
    assert outcome(validate_morphism, phi) == want


@st.composite
def crossed_modules(draw):
    """L with random constants (the equivariance check reads them only),
    and V = L's own bracket families, one entry planted, with d = c times
    the identity; or V and d random."""
    field = draw(st.sampled_from(FIELDS))
    k = draw(st.integers(1, 3))
    leib = draw(st.booleans())
    table = [[[draw(scalars(field)) for _ in range(k)] for _ in range(k)]
             for _ in range(k)]
    L = (LeibnizAlgebra if leib else LieAlgebra)(field, k, table)
    brackets = [[_adjoint_matrix(L, i, side) for i in range(k)]
                for side in (("left", "right") if leib else ("",))]
    if draw(st.booleans()):
        fams = draw(planted(field, brackets, k))
        d, n = Matrix.identity(field, k).scale(draw(nonzero(field))), k
    else:
        n = draw(st.integers(1, 4))
        fams = [[draw(matrices(field, n, n)) for _ in range(k)]
                for _ in brackets]
        d = draw(matrices(field, k, n))
    return CrossedModule(L, _module(L, n, fams), LinearMap(d)), brackets


@settings(max_examples=200, deadline=None)
@given(crossed_modules())
def test_crossed_axioms_bracket_families_match_the_oracle(case):
    cm, brackets = case
    V = cm.rep
    hit = dense_equivariance_defect(
        cm.partial.matrix, sides(V),
        [(side, mats) for (side, _), mats in zip(sides(V), brackets)])
    got = outcome(crossed_axioms, cm)
    if hit is None:
        # the Peiffer loop may still fail, but not on equivariance
        assert got is None or got[0] != "EQUIVARIANCE_FAIL"
    else:
        assert got == ("EQUIVARIANCE_FAIL", hit[:1],
                       hit[1] and f"{hit[1]} action")


@st.composite
def pullbacks(draw):
    """f : V -> W with W over h pulled back along m : g -> h, random; or
    h = g, m = a times the identity, W a copy of V with its families
    scaled by 1/a and one entry planted, and f = c times the identity."""
    field = draw(st.sampled_from(FIELDS))
    k, n = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    leib = draw(st.booleans())
    kind = LeibnizAlgebra if leib else LieAlgebra
    g = kind(field, k, [[[0] * k for _ in range(k)] for _ in range(k)])
    fams = [[draw(matrices(field, n, n)) for _ in range(k)]
            for _ in range(2 if leib else 1)]
    if draw(st.booleans()):
        a = draw(nonzero(field))
        scaled = [[x.scale(1 / a) for x in fam] for fam in fams]
        wfams = draw(planted(field, scaled, n))
        h, m, w = g, Matrix.identity(field, k).scale(a), n
        f = Matrix.identity(field, n).scale(draw(nonzero(field)))
    else:
        kh, w = draw(st.integers(1, 3)), draw(st.integers(1, 4))
        h = kind(field, kh, [[[0] * kh for _ in range(kh)]
                             for _ in range(kh)])
        wfams = [[draw(matrices(field, w, w)) for _ in range(kh)]
                 for _ in fams]
        m, f = draw(matrices(field, kh, k)), draw(matrices(field, w, n))
    return f, _module(g, n, fams), _module(h, w, wfams), m


@settings(max_examples=200, deadline=None)
@given(pullbacks())
def test_pulled_back_targets_match_the_oracle(case):
    f, V, W, m = case
    assert equivariance_defect(f, sides(V), pulled_back(W, m)) == \
        dense_equivariance_defect(f, sides(V), dense_pulled_back(W, m))


@pytest.mark.parametrize("field", PRIMES, ids=lambda F: F.name)
def test_a_difference_that_vanishes_only_mod_p_passes(field):
    """f = [1, p - 1] and A = the all-ones 2 x 2 matrix: f A is [p, p] on
    the integer residues, zero mod p, so f intertwines A with the zero
    action on a line and not with the identity."""
    p = field.p
    g = LieAlgebra(field, 1, [[[0]]])
    V = Representation(g, 2, [Matrix(field, [[1, 1], [1, 1]])])
    f = Matrix(field, [[1, p - 1]])
    F, A = f._ints[0], V.action[0]._ints[0]
    assert _first_nonzero_row([(1, F, A)], (), 1, None) == 0
    assert _first_nonzero_row([(1, F, A)], (), 1, p) is None
    for action, want in (([[0]], None),
                         ([[1]], ("EQUIVARIANCE_FAIL", (0,), ""))):
        W = Representation(g, 1, [Matrix(field, action)])
        phi = ModuleMorphism(V, W, f)
        assert outcome(validate_morphism, phi) == want
        hit = dense_equivariance_defect(f, sides(V), sides(W))
        assert (hit is None) == (want is None)


@pytest.mark.parametrize("field", FIELDS, ids=lambda F: F.name)
def test_the_kernel_finds_a_row_after_row_0(field):
    """One entry planted in row 2 of 3: the first nonzero row is 2, and a
    pass over the first two rows finds none."""
    X = [{0: 1}, {1: 1}, {2: 1}]
    Y = [{0: 2}, {1: 2}, {2: 2}]
    Z = [{0: 2}, {1: 2}, {2: 2, 1: 1}]
    for n, want in ((3, 2), (2, None)):
        assert _first_nonzero_row([(1, X, Y)], [(-1, Z)], n,
                                  getattr(field, "p", None)) == want
