"""The subspace layer of `linalg`, which serves its names: factorizations,
subspaces, kernels, images, quotients, solves, sections and block diagonal
matrices.  A lazy module (see `crossedext`): a cohomology table needs only
`linalg.rank`."""
from __future__ import annotations

import math

from .linalg import (LinearMap, Matrix, _columns, _common_rows, _echelon,
                     _from_ints, _reduced, rref)


class Echelon:
    """One sparse factorization of the rows of a matrix A, asked many
    questions: rank, pivots, kernel and solve.

    The row echelon form (the pivot dict of `_echelon`) is built on the first
    question that needs it.  The first solve eliminates [A | b], one column
    more than A; a second solve eliminates [A | I] once for the row
    transform, and every later solve is a product with it.  So a one-shot
    solve of a tall A costs no more than one elimination of A, and a
    factorization that is never asked to solve never pays for the transform.
    Nothing is cached outside the object: it lives exactly as long as the
    caller that built it keeps it.  Vectors passed in and returned are
    integer views (ints, d) (see `Matrix`); no field element is formed.

    Engine row i is the integer row d A_i of A's integer view (rows, d).
    An augmented column carries the same d: [A | b] enters as d (A_i | b_i)
    and [A | I] as d (A_i | e_i).
    """

    __slots__ = ("field", "cols", "_p", "_rows", "_d", "_piv", "_transform",
                 "_solved")

    def __init__(self, matrix: Matrix):
        self.field, self.cols = matrix.field, matrix.cols
        self._p = matrix.field.p
        self._rows, self._d = matrix._ints
        self._piv = self._transform = None
        self._solved = False

    def _pivots(self):
        if self._piv is None:
            self._piv = _echelon([dict(r) for r in self._rows], self._p)
        return self._piv

    @property
    def rank(self):
        return len(self._pivots())

    @property
    def pivots(self):
        return tuple(sorted(self._pivots()))

    def kernel(self) -> "Subspace":
        """{x | A x = 0}: one basis vector per free column j, with 1 at j
        and minus column j of the RREF at the pivots, each scaled to
        integers by the lcm D of the leads."""
        piv = self._pivots()
        D = math.lcm(*(lead for lead, _ in piv.values()))
        free = {j: {j: D} for j in range(self.cols) if j not in piv}
        for c, (lead, tail) in piv.items():
            for j, x in tail.items():
                free[j][c] = -x * (D // lead)
        return Subspace.row_space(_from_ints(self.field, list(free.values()),
                                             1, self.cols))

    def _solver(self):
        """The row transform of A, from one elimination of [A | I].

        Every row of the eliminated space is (y A | y).  A row with its pivot
        c in A's columns is (R_r | T_r): the RREF row R_r = T_r A, so a
        consistent b has the solution x[c] = T_r . b with zero free
        coordinates.  A row (0 | N) has N A = 0, so N . b = 0 for every
        consistent b.  Returns ([(c, lead, T_r)], [N]) with lead * T_r and
        N as lists of (index into b, integer value).
        """
        if self._transform is None:
            n, d = self.cols, self._d
            piv = _echelon([{**r, n + i: d} for i, r in enumerate(self._rows)],
                           self._p)
            solutions, checks = [], []
            for c, (lead, tail) in piv.items():
                t = [(j - n, v) for j, v in tail.items() if j >= n]
                if c < n:
                    solutions.append((c, lead, t))
                else:
                    checks.append([(c - n, lead)] + t)
            self._transform = (solutions, checks)
        return self._transform

    def _solve_once(self, bv, db):
        """Solve for one right-hand side b = bv / db by eliminating
        [A | bv]: b is consistent unless column n = cols becomes a pivot,
        and then x[c] is entry n of the RREF row with pivot c, over db."""
        n, d = self.cols, self._d
        piv = _echelon([{**r, n: d * bv[i]} if i in bv else dict(r)
                        for i, r in enumerate(self._rows)], self._p)
        if n in piv:
            return None
        return _over_leads({c: (tail[n], lead)
                            for c, (lead, tail) in piv.items() if n in tail},
                           db)

    def solve(self, b):
        """The vector x with A x = b whose free coordinates are zero, or None
        if b is not in the column space of A; both integer views."""
        bv, db = _reduced(b[0], self._p), b[1]
        if not self._solved:
            self._solved = True
            return self._solve_once(bv, db)
        solutions, checks = self._solver()
        p = self._p

        def dot(t):
            s = 0
            for k, v in t:
                x = bv.get(k)
                if x is not None:
                    s += v * x
            return s if p is None else s % p

        if any(dot(t) for t in checks):
            return None
        return _over_leads({c: (s, lead) for c, lead, t in solutions
                            if (s := dot(t))}, db)


def _over_leads(v, d):
    """The integer view of {c: x / (lead d)} for v[c] = (x, lead)."""
    L = math.lcm(*(lead for _, lead in v.values()))
    return {c: x * (L // lead) for c, (x, lead) in v.items()}, L * d


class Subspace:
    """Subspace of field^n carried by its canonical RREF basis (one row each)."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis: Matrix, pivots):
        self.field, self.ambient_dim = field, ambient_dim
        self.basis, self.pivots = basis, tuple(pivots)

    @classmethod
    def row_space(cls, m: Matrix):
        """The span of the rows of m."""
        r, piv = rref(m)
        rows, d = r._ints
        return cls(m.field, m.cols,
                   Matrix._from_int_rows(m.field, rows[:len(piv)], d, m.cols),
                   piv)

    @classmethod
    def zero_space(cls, field, ambient_dim):
        return cls.row_space(Matrix.zero(field, 0, ambient_dim))

    @property
    def dim(self):
        return self.basis.rows

    def reduce(self, vec):
        """The canonical representative of vec, an integer view (ints, d)
        (see `Matrix`), modulo this subspace: db * v minus v[p] times the
        basis row with pivot p (whose entry there is db), on d * db."""
        v, d = vec
        rows, db = self.basis._ints
        out = {j: x * db for j, x in v.items()} if db != 1 else dict(v)
        for row, p in zip(rows, self.pivots):
            f = v.get(p)
            if f:
                for j, x in row.items():
                    out[j] = out.get(j, 0) - f * x
        return _reduced(out, self.field.p), d * db

    def contains(self, vec):
        """Whether the vector with integer view vec lies in the subspace."""
        return not self.reduce(vec)[0]

    def coordinates(self, vec):
        """Coefficients of the vector with integer view vec = (ints, d) in
        the RREF basis, as an integer view on d, or None if it is outside."""
        if self.reduce(vec)[0]:
            return None
        v, d = vec
        return _reduced({r: v.get(p, 0) for r, p in enumerate(self.pivots)},
                        self.field.p), d

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


def kernel(f: LinearMap) -> Subspace:
    return Echelon(f.matrix).kernel()


def image(f: LinearMap) -> Subspace:
    return Subspace.row_space(f.matrix.transpose())


def quotient(ambient_dim: int, sub: Subspace):
    """Quotient of field^ambient_dim by sub.

    Returns (projection, section, dim) with projection . section = id on the
    quotient and kernel(projection) = sub.  The section embeds the quotient
    along the non-pivot coordinates of sub's RREF basis.
    """
    if sub.ambient_dim != ambient_dim:
        raise ValueError("subspace ambient dimension mismatch")
    free = {c: k for k, c in enumerate(c for c in range(ambient_dim)
                                       if c not in sub.pivots)}
    rows, d = sub.basis._ints
    # entry (f, i) of the projection is coordinate f of sub.reduce(e_i): 1 at
    # i = f, minus entry f of basis row r at i = pivot r, 0 elsewhere
    proj = _from_ints(sub.field, [
        {f: d, **{p: -row[f] for row, p in zip(rows, sub.pivots) if f in row}}
        for f in free], d, ambient_dim)
    sect = Matrix._from_int_rows(sub.field, [{free[i]: 1} if i in free else {}
                                             for i in range(ambient_dim)],
                                 1, len(free))
    return LinearMap(proj), LinearMap(sect), len(free)


def solve(f: LinearMap, target):
    """The vector v with f(v) = target whose free coordinates are zero, as
    an integer view, or None if target is not in the image of f.  target is
    an integer view (ints, d) (see `Matrix`)."""
    return Echelon(f.matrix).solve(target)


def solve_matrix(f: LinearMap, targets: Matrix):
    """Columnwise solve: a matrix X with f.matrix @ X = targets, or None."""
    ech = Echelon(f.matrix)
    rows, d = targets._ints
    xs = [ech.solve((col, d)) for col in _columns(rows, targets.cols)]
    if None in xs:
        return None
    D = math.lcm(*(dx for _, dx in xs))
    return _from_ints(f.field, _columns([{i: v * (D // dx) for i, v in
                                          x.items()} for x, dx in xs],
                                        f.domain_dim), D, targets.cols)


def linear_section(f: LinearMap) -> LinearMap:
    """A map q with f . q = id on image(f), chosen by pivot preimages.

    q is defined on the whole codomain: a codomain vector is first written in
    the RREF basis of image(f) by reading off pivot coordinates, so column i
    of q is the preimage of basis row r when i is pivot r of image(f), and
    zero otherwise.  The preimage is zero at the free columns of f's RREF,
    as `Echelon.solve` gives it.

    One elimination of the rows (column j of f | e_j) of [F^T | I], with
    I's columns reversed, gives both: a row with its pivot among F^T's m
    columns is (R | T), R a row of image(f)'s RREF basis and f(T) = R.  The
    other rows span ker(f), reduced on the reversed coordinates: their
    pivots are the free columns of f's RREF, where T is therefore zero.
    """
    rows, d = f.matrix._ints
    m, top = f.codomain_dim, f.codomain_dim + f.domain_dim - 1
    # domain coordinate j is column top - j
    piv = _echelon([{**col, top - j: d} for j, col in
                    enumerate(_columns(rows, f.domain_dim))],
                   f.field.p)
    image_rows = [(c, lead, tail) for c, (lead, tail) in piv.items() if c < m]
    D = math.lcm(*(lead for _, lead, _ in image_rows))
    out = [{} for _ in range(f.domain_dim)]
    for c, lead, tail in image_rows:
        for k, v in tail.items():
            if k >= m:
                out[top - k][c] = v * (D // lead)
    return LinearMap(_from_ints(f.field, out, D, m))


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    """[[a, 0], [0, b]] from the integer views in one pass, both on the lcm
    of their denominators, which keeps the view canonical (`hstack`)."""
    (x, y), d = _common_rows((a, b))
    n = a.cols
    return Matrix._from_int_rows(a.field, [*x, *({j + n: v for j, v in
                                                  r.items()} for r in y)],
                                 d, n + b.cols)
