"""Lie and Leibniz algebras by structure constants, and their modules.

Structure constants are stored fully (all i, j) and the symmetry axioms are
validated, not implied by storage; this lets Lie and Leibniz algebras share
one representation.
"""
from __future__ import annotations

from . import _forward, _maps
from .errors import CheckFailure
from .linalg import (Matrix, _common_rows, _first_nonzero_row, _from_ints,
                     _lincomb, _negated, _sum)

# the map layer, a lazy module, whose names are served from here too
__getattr__ = _forward(__name__, _maps)

# the cochain flavor of a Lie module and of a Leibniz module
CE = "ce"
LEIBNIZ = "leibniz"


class _AlgebraBase:
    """An algebra by its structure constants: `structure` is the dim^2 x dim
    `Matrix` whose row i * dim + j is [e_i, e_j], so two algebras of one
    class are equal iff these are.  It may be given as that Matrix or as a
    table, structure[i][j] the coefficient vector of [e_i, e_j]."""

    __slots__ = ("field", "dim", "structure", "_skew")

    def __init__(self, field, dim, structure):
        if not isinstance(structure, Matrix):
            structure = Matrix(field, [structure[i][j] for i in range(dim)
                                       for j in range(dim)], cols=dim)
        elif (structure.rows, structure.cols) != (dim * dim, dim):
            raise ValueError("structure matrix of wrong shape")
        self.field, self.dim, self.structure = field, dim, structure
        self._skew = ()     # not yet known: see _skew_defect

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, field={self.field!r})"

    @property
    def c(self):
        """c[i][j], the coefficient vector of [e_i, e_j] in field elements."""
        data, n = self.structure.data, self.dim
        return tuple(data[i * n:(i + 1) * n] for i in range(n))

    def _bracket(self, u, v):
        """[u, v] of two {index: int} vectors, on d times their
        denominators (neither reduced mod p nor freed of zeros)."""
        c, n = self.structure._ints[0], self.dim
        return _sum((a * b, c[i * n + j]) for i, a in u.items()
                    for j, b in v.items())

    def __eq__(self, other):
        return (type(self) is type(other)
                and self.structure == other.structure)

    def __hash__(self):
        return hash((type(self).__name__, self.structure))


class LieAlgebra(_AlgebraBase):
    flavor = "lie"


class LeibnizAlgebra(_AlgebraBase):
    flavor = "leibniz"


def _skew_defect(g):
    """The first basis pair (i, j), j >= i, with [e_j, e_i] != -[e_i, e_j]
    on the integer structure constants (mod p over F_p), or None when g is
    skew-symmetric.  A failing (i, j) fails as (j, i) too, so this is the
    lexicographically first failing pair of all.  Kept on g from the first
    call on, as its structure matrix is immutable."""
    if g._skew == ():
        (c, _), dim, p = g.structure._ints, g.dim, g.field.p
        g._skew = next(((i, j) for i in range(dim) for j in range(i, dim)
                        if c[j * dim + i] != _negated(c[i * dim + j], p)),
                       None)
    return g._skew


def _leibniz_identity(g, code, skew):
    """g, unless the Leibniz defect [ei,[ej,ek]] - [[ei,ej],ek] + [[ei,ek],ej]
    is nonzero on a basis triple: then a failure with code and the first such
    (i, j, k) in lexicographic order, among those with i <= j <= k when g is
    known to be skew (the defect is then totally antisymmetric, see
    `validate_lie`), and among all triples when not.  The sum runs on the
    integer structure constants on their denominator d (residues over F_p):
    each term is a product of two constants, so the sum is d^2 times the
    true one and vanishes with it."""
    dim, p = g.dim, g.field.p
    c, _ = g.structure._ints
    for i in range(dim):
        for j in range(i if skew else 0, dim):
            for k in range(j if skew else 0, dim):
                acc = {}
                for m, coef in c[j * dim + k].items():
                    for t, s in c[i * dim + m].items():
                        acc[t] = acc.get(t, 0) + coef * s
                for m, coef in c[i * dim + j].items():
                    for t, s in c[m * dim + k].items():
                        acc[t] = acc.get(t, 0) - coef * s
                for m, coef in c[i * dim + k].items():
                    for t, s in c[m * dim + j].items():
                        acc[t] = acc.get(t, 0) + coef * s
                if any(v % p if p else v for v in acc.values()):
                    raise CheckFailure(code, (i, j, k))
    return g


def validate_lie(field, dim, structure) -> LieAlgebra:
    """Check antisymmetry (`_skew_defect`), then the Jacobi identity on the
    C(dim + 2, 3) basis triples i <= j <= k: given antisymmetry the Leibniz
    defect is the Jacobi sum J(i, j, k) = [ei,[ej,ek]] + [ej,[ek,ei]] +
    [ek,[ei,ej]], which is totally antisymmetric, so every permutation of a
    failing triple fails and the sorted one comes first.  A structure that
    is not skew fails before the triples."""
    g = LieAlgebra(field, dim, structure)
    pair = _skew_defect(g)
    if pair:
        raise CheckFailure("ANTISYM_FAIL", pair)
    # repeated indices stay in: over F_2 a nonzero [ei, ei] is skew, and
    # J(i, i, k) = [ek, [ei, ei]] need not vanish
    return _leibniz_identity(g, "JACOBI_FAIL", skew=True)


def validate_leibniz(field, dim, structure) -> LeibnizAlgebra:
    """Check the right Leibniz identity [x,[y,z]] = [[x,y],z] - [[x,z],y]
    on all basis triples."""
    return _leibniz_identity(LeibnizAlgebra(field, dim, structure),
                             "LEIBNIZ_FAIL", skew=False)


class Representation:
    """A module over a Lie algebra: one action matrix per basis vector."""

    __slots__ = ("algebra", "dim", "action", "_complex")
    flavor = CE

    def __init__(self, algebra: LieAlgebra, dim: int, action):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self._complex = None    # its cochain complex, cohomology.complex_of
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis vector")
        for m in self.action:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix of wrong shape")

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.dim == other.dim
                and self.algebra == other.algebra
                and self.action == other.action)

    def __hash__(self):
        return hash((self.dim, self.algebra, self.action))

    def __repr__(self):
        return f"Representation(dim={self.dim} over dim-{self.algebra.dim} algebra)"


def _products(xs, ys):
    """The table t[i][j] = xs[i] @ ys[j]."""
    return [[x @ y for y in ys] for x in xs]


def validate_module(rep: Representation) -> Representation:
    """Check rho([ei,ej]) = rho(ei)rho(ej) - rho(ej)rho(ei) on the pairs
    i <= j: when g is skew (`_skew_defect`), the defect of (j, i) is minus
    that of (i, j).  A non-skew algebra, which no validated Lie algebra is,
    takes all pairs.  Either way the first failing pair in lexicographic
    order is reported.

    The check runs on integers.  With A_k the integer rows of rho(e_k) on
    the common denominator D of all the action matrices, and c, d_c the
    integer structure constants (`structure._ints`), the axiom for (i, j)
    times d_c D^2 is

        D * sum_k c_ij^k A_k = d_c * (A_i A_j - A_j A_i),

    compared entry by entry, mod p over F_p (where D = d_c = 1), one
    `_first_nonzero_row` pass per pair, which stores no product A_i A_j;
    the diagonal has no product terms."""
    g, n = rep.algebra, rep.algebra.dim
    p = g.field.p
    c, dc = g.structure._ints
    A, D = _common_rows(rep.action)
    if not any(any(rows) for rows in A):
        return rep      # every action is zero, and so is either side
    skew = _skew_defect(g) is None
    for i in range(n):
        for j in range(i if skew else 0, n):
            if _first_nonzero_row(
                    [(-dc, A[i], A[j]), (dc, A[j], A[i])] if i != j else (),
                    [(D * s, A[k]) for k, s in c[i * n + j].items()],
                    rep.dim, p) is not None:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j))
    return rep


class LeibnizRepresentation:
    """A module over a Leibniz algebra: left and right action families."""

    __slots__ = ("algebra", "dim", "left", "right", "_complex")
    flavor = LEIBNIZ

    def __init__(self, algebra: LeibnizAlgebra, dim: int, left, right):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        self.right = tuple(right)
        self._complex = None    # its cochain complex, cohomology.complex_of
        if len(self.left) != algebra.dim or len(self.right) != algebra.dim:
            raise ValueError("need one left and one right matrix per basis vector")
        for m in self.left + self.right:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix of wrong shape")

    def __eq__(self, other):
        return (isinstance(other, LeibnizRepresentation)
                and self.dim == other.dim and self.algebra == other.algebra
                and self.left == other.left and self.right == other.right)

    def __hash__(self):
        return hash((self.dim, self.algebra, self.left, self.right))

    def __repr__(self):
        return f"LeibnizRepresentation(dim={self.dim})"


def validate_leibniz_module(rep: LeibnizRepresentation) -> LeibnizRepresentation:
    """The three mixed Leibniz identities, one module slot at a time.

    With L_i, R_i the left/right matrices and c the structure constants:
      slot z:  L_i L_j = L_[ij] - R_j L_i
      slot y:  L_i R_j = R_j L_i - L_[ij]
      slot x:  R_[jk]  = R_k R_j - R_j R_k

    Unlike `validate_module` and `validate_morphism`, which compare integer
    products, this check keeps its `Matrix` products (`@`): on the
    benchmark's cohomology ladders it is the only caller of `@`, and their
    traced runs are required to enter `linalg.matmul`.  L_[ij] and R_[ij]
    take the integer structure constants as coefficients.
    """
    h, n = rep.algebra, rep.dim
    c, dc = h.structure._ints
    L, R = rep.left, rep.right
    LL, LR = _products(L, L), _products(L, R)
    RL, RR = _products(R, L), _products(R, R)
    for i in range(h.dim):
        for j in range(h.dim):
            bracket = (c[i * h.dim + j], dc)
            lb = _from_ints(h.field, *_lincomb(bracket, L, n), n)
            if LL[i][j] != lb - RL[j][i]:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot z")
            if LR[i][j] != RL[j][i] - lb:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot y")
            rb = _from_ints(h.field, *_lincomb(bracket, R, n), n)
            if rb != RR[j][i] - RR[i][j]:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot x")
    return rep
