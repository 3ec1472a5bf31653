"""The map layer of `algebra`, which serves its names: a module's action
families, trivial, adjoint and direct-sum modules, the Lie-to-Leibniz
views, module morphisms and the integer equivariance, Hom_g and
algebra-map kernels.  A lazy module (see `crossedext`): a cohomology table
only validates its modules."""
from __future__ import annotations

from .errors import CheckFailure
from .linalg import (LinearMap, Matrix, _columns, _first_nonzero_row,
                     _from_ints, _lincomb, _mul_vec, _reduced, _sum)
from ._spaces import block_diag
from .algebra import (LEIBNIZ, LeibnizAlgebra, LeibnizRepresentation,
                      LieAlgebra, Representation, _skew_defect)


def sides(rep):
    """The action families of a module, as (side, matrices) pairs: ρ alone
    (side "") for a Lie module, left then right for a Leibniz module.  The
    side names the family in a failure's detail and in a workspace."""
    if isinstance(rep, LeibnizRepresentation):
        return ("left", rep.left), ("right", rep.right)
    return ("", rep.action),


def trivial_rep(algebra, dim) -> "Representation | LeibnizRepresentation":
    field = algebra.field
    zeros = [Matrix.zero(field, dim, dim) for _ in range(algebra.dim)]
    if algebra.flavor == LEIBNIZ:
        return LeibnizRepresentation(algebra, dim, zeros, list(zeros))
    return Representation(algebra, dim, zeros)


def _bracket_view(h, i, side):
    """The integer view (rows, d) of the matrix whose column j is
    [e_j, e_i] on the "right" side and [e_i, e_j] on any other (d the
    denominator of the structure constants)."""
    (c, d), n = h.structure._ints, h.dim
    return _columns([c[j * n + i] if side == "right" else c[i * n + j]
                     for j in range(n)], n), d


def _adjoint_family(h, side):
    """The matrices of the bracket with each e_i on one side."""
    return [_from_ints(h.field, *_bracket_view(h, i, side), h.dim)
            for i in range(h.dim)]


def adjoint(g: LieAlgebra) -> Representation:
    """g acting on itself by the bracket; column j of the matrix of e_i is
    the bracket of e_i with e_j."""
    return Representation(g, g.dim, _adjoint_family(g, "left"))


def pulled_back(V, m: Matrix):
    """V's action families pulled back along the columns of m, a matrix
    into V's algebra: (side, views) pairs as in `sides(V)`, views[u] the
    integer view (rows, d), unreduced, of the action of column u of m."""
    rows, d = m._ints
    cols = _columns(rows, m.cols)
    return [(side, [_lincomb((col, d), mats, V.dim) for col in cols])
            for side, mats in sides(V)]


def equivariance_defect(f: Matrix, src, tgt):
    """The first (i, side) with f A_i != B_i f, or None when the map with
    matrix f intertwines the action families src of its source, (side,
    matrices) pairs as `sides` gives them, and tgt of its target, (side,
    integer views) pairs as `pulled_back` gives them, paired in order; i is
    the outer loop.  With F, A, B the integer rows of f, A_i and B_i on d_f,
    d_A and d_B, the test is F A d_B = B F d_A (d_f d_A d_B times the true
    one), one `linalg._first_nonzero_row` pass, mod p over F_p; each caller
    raises its own failure."""
    (F, _), p = f._ints, f.field.p
    for i in range(len(src[0][1])):
        for (side, a), (_, b) in zip(src, tgt):
            (A, da), (B, db) = a[i]._ints, b[i]
            if _first_nonzero_row([(db, F, A), (-da, B, F)], (), f.rows,
                                  p) is not None:
                return i, side
    return None


def hom_rows(A, B):
    """The equations of Hom_g(A, B) as integer rows (neither reduced mod p
    nor freed of zeros): the unknown h[b][a] of h : A -> B is column
    b * A.dim + a, and each row is an entry of (h S - T h) ds dt = 0, for S
    and T the actions on A and B of one basis vector and side, on ds, dt."""
    n, rows = A.dim, []
    for i in range(A.algebra.dim):
        for (_, src), (_, tgt) in zip(sides(A), sides(B)):
            (S, ds), (T, dt) = src[i]._ints, tgt[i]._ints
            Sc = _columns(S, n)
            rows += [_sum([(dt, {b * n + k: x for k, x in Sc[a].items()}),
                           (-ds, {k * n + a: x for k, x in T[b].items()})])
                     for b in range(B.dim) for a in range(n)]
    return rows


def bracket_defect(f: LinearMap, A, B):
    """The first basis pair (i, j) with f([e_i, e_j]_A) != [f e_i, f e_j]_B,
    or None when the linear map f : A -> B is an algebra map.  When A and B
    are both skew (`_skew_defect`) the defect of (j, i) is minus that of
    (i, j), so only the pairs i <= j are visited; otherwise all pairs.  On
    integers (mod p over F_p), f([e_i, e_j]) is on d_f d_A and
    [f e_i, f e_j] on d_f^2 d_B (d_f, d_A and d_B the denominators of f and
    the constants)."""
    F, df = f.matrix._ints
    cols = _columns(F, A.dim)
    (ca, da), db = A.structure._ints, B.structure._ints[1]
    p = A.field.p
    skew = _skew_defect(A) is None and _skew_defect(B) is None
    for i in range(A.dim):
        for j in range(i if skew else 0, A.dim):
            image = _mul_vec(F, ca[i * A.dim + j])
            if _reduced(_sum([(df * db, image),
                              (-da, B._bracket(cols[i], cols[j]))]), p):
                return i, j
    return None


def leibniz_adjoint(h: LeibnizAlgebra) -> LeibnizRepresentation:
    return LeibnizRepresentation(h, h.dim, _adjoint_family(h, "left"),
                                 _adjoint_family(h, "right"))


def leibniz_from_lie(g: LieAlgebra) -> LeibnizAlgebra:
    """Every Lie algebra is a Leibniz algebra with the same constants."""
    return LeibnizAlgebra(g.field, g.dim, g.structure)


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
    """Check f rho(e_i) = rho'(e_i) f for every basis vector and action
    family (`equivariance_defect`)."""
    if phi.source.algebra != phi.target.algebra:
        raise CheckFailure("BASE_MISMATCH", detail="morphism across different algebras")
    hit = equivariance_defect(phi.matrix, sides(phi.source), [
        (side, [m._ints for m in mats]) for side, mats in sides(phi.target)])
    if hit:
        raise CheckFailure("EQUIVARIANCE_FAIL", hit[:1],
                           hit[1] and f"{hit[1]} action")
    return phi


def direct_sum_reps(a: Representation, b: Representation) -> Representation:
    if a.algebra != b.algebra:
        raise CheckFailure("BASE_MISMATCH", detail="direct sum over different algebras")
    mats = [block_diag(x, y) for x, y in zip(a.action, b.action)]
    return Representation(a.algebra, a.dim + b.dim, mats)
