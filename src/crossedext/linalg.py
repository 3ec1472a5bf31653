"""Exact linear algebra: matrices, canonical subspaces, linear maps.

Subspaces are always carried by a reduced row-echelon basis, which makes
subspace equality (and hence kernel/image/class comparisons everywhere
above this module) a plain data comparison.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .field import FpElement, PrimeField


def _modulus(field):
    """p for F_p, None for Q."""
    return field.p if isinstance(field, PrimeField) else None


class Matrix:
    """Immutable matrix over an exact field, stored as its integer view.

    The view `_ints = (rows, d)` holds row i as {column: int} for its
    nonzero entries, on one common denominator: over Q entry (i, j) is
    rows[i][j] / d, with d > 0 the lcm of the entries' denominators; over
    F_p it is the residue rows[i][j] in [1, p) and d = 1.  The view is
    canonical (over Q no factor is common to d and all entries), so two
    matrices of one shape are equal iff their views are, and every
    operation reads the view alone.  `.data`, the dense rows as a tuple of
    row tuples of field elements, is derived from the view on its first
    read and cached.  The public constructor coerces every entry with
    `field.of`, checks each row's length against cols when it is given,
    and keeps the rows as that cache; `_from_int_rows` builds a matrix
    from its view alone.

    A vector crosses the same boundary as an integer view (ints, d): entry
    i is ints.get(i, 0) / d over Q (d > 0) and ints.get(i, 0) mod p over
    F_p (d = 1).  `Echelon`, `Subspace` and `solve` take and give vectors
    in this form; `apply` takes and gives field vectors.
    """

    __slots__ = ("field", "rows", "cols", "_ints", "_data")

    def __init__(self, field, data, cols=None):
        data = tuple(tuple(field.of(x) for x in row) for row in data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged matrix rows")
        self.field, self.rows, self.cols = field, len(data), cols
        views = [_int_vec(field, row) for row in data]   # on their lcm D
        D = math.lcm(*(d for _, d in views))
        self._data, self._ints = data, (tuple(
            {j: v * (D // d) for j, v in r.items()} for r, d in views), D)

    @staticmethod
    def _from_int_rows(field, rows, d, cols):
        """Trusted constructor from a canonical integer view: rows is a
        sequence of {column: nonzero int} dicts -- residues in [1, p) and
        d = 1 over F_p; over Q, d > 0 with no common factor of d and all
        entries."""
        m, rows = object.__new__(Matrix), tuple(rows)
        m.field, m.rows, m.cols = field, len(rows), cols
        m._ints, m._data = (rows, d), None
        return m

    @property
    def data(self):
        """The dense rows, built from the integer view on the first read."""
        if self._data is None:
            rows, d = self._ints
            self._data = tuple(_field_vec(self.field, r, d, self.cols)
                               for r in rows)
        return self._data

    @classmethod
    def zero(cls, field, rows, cols):
        return cls._from_int_rows(field, [{} for _ in range(rows)], 1, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._from_int_rows(field, [{i: 1} for i in range(n)], 1, n)

    def transpose(self):
        rows, d = self._ints
        return Matrix._from_int_rows(self.field, _columns(rows, self.cols), d,
                                     self.rows)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other on the integer views."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in " + ("+" if sign > 0 else "-"))
        (a, b), d = _common_rows((self, other))
        return _from_ints(self.field, _lincomb_rows([(1, a), (sign, b)],
                                                    self.rows), d, self.cols)

    def __neg__(self):
        rows, d = self._ints
        p = _modulus(self.field)
        return Matrix._from_int_rows(
            self.field, [_negated(r, p) for r in rows], d, self.cols)

    def scale(self, c):
        c, dc = _int_vec(self.field, (self.field.of(c),))
        rows, d = self._ints
        return _from_ints(self.field, _lincomb_rows([(c.get(0, 0), rows)],
                                                    self.rows), d * dc,
                          self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @")
        arows, da = self._ints
        brows, db = other._ints
        return _from_ints(self.field, _mul_rows(arows, brows), da * db,
                          other.cols)

    def apply(self, vec):
        """self times the field vector vec, as a field vector."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        rows, d = self._ints
        v, dv = _int_vec(self.field, vec)
        return _field_vec(self.field, _mul_vec(rows, v), d * dv, self.rows)

    # both operands on the lcm of their denominators: each prime of the lcm
    # divides the denominator it came from to its full power, and some
    # entry of that operand not at all, so the stacked view stays canonical
    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        (a, b), d = _common_rows((self, other))
        n = self.cols
        return Matrix._from_int_rows(
            self.field, [{**x, **{j + n: v for j, v in y.items()}}
                         for x, y in zip(a, b)], d, n + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        (a, b), d = _common_rows((self, other))
        return Matrix._from_int_rows(self.field, [*a, *b], d, self.cols)

    def is_zero(self):
        return not any(self._ints[0])

    def __eq__(self, other):
        # integer views are canonical, so they are equal iff the entries are
        return (isinstance(other, Matrix) and self.field == other.field
                and self.cols == other.cols and self._ints == other._ints)

    def __hash__(self):
        rows, d = self._ints
        return hash((self.field, self.cols, d,
                     tuple(frozenset(r.items()) for r in rows)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"


def _common_rows(mats, base=1):
    """The integer rows of each of mats on one common denominator D, the
    lcm of base and the views' denominators (1 over F_p): (rows per
    matrix, D)."""
    views = [m._ints for m in mats]
    D = math.lcm(base, *(d for _, d in views))
    return [rows if d == D else
            [{j: v * (D // d) for j, v in row.items()} for row in rows]
            for rows, d in views], D


def _columns(rows, cols):
    """The columns of cols-wide integer rows, as {row index: int} dicts."""
    out = [{} for _ in range(cols)]
    for i, r in enumerate(rows):
        for j, v in r.items():
            out[j][i] = v
    return out


def _reduced(row, p):
    """The integer row without its zeros, its entries reduced mod p when p
    is not None."""
    if p is None:
        return {j: v for j, v in row.items() if v}
    out = {}
    for j, v in row.items():
        v %= p
        if v:
            out[j] = v
    return out


def _negated(row, p):
    """-row of a canonical integer row: p - v for the residues over F_p."""
    return {j: p - v if p else -v for j, v in row.items()}


def _mul_rows(arows, brows):
    """The integer rows of the product of two matrices given by integer
    rows (neither reduced mod p nor freed of zeros)."""
    out = []
    for arow in arows:
        acc = {}
        for k, a in arow.items():
            for j, b in brows[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append(acc)
    return out


def _mul_vec(rows, v):
    """The integer rows times the {index: int} vector v, as {row: int}
    (neither reduced mod p nor freed of zeros)."""
    out = {}
    for i, row in enumerate(rows):
        s = 0
        for j, a in row.items():
            x = v.get(j)
            if x:
                s += a * x
        out[i] = s
    return out


def _sum(terms):
    """sum f * vec over the (int f, {index: int} vec) terms."""
    acc = {}
    for f, vec in terms:
        for r, x in vec.items():
            acc[r] = acc.get(r, 0) + f * x
    return acc


def _products_differ(a, b, c, e, p):
    """Whether a b != c e for the integer views (rows, d) of four matrices:
    A B d_c d_e against C E d_a d_b, row by row, mod p over F_p."""
    (A, da), (B, db), (C, dc), (E, de) = a, b, c, e
    return any(_reduced(_sum([(dc * de, x), (-da * db, y)]), p)
               for x, y in zip(_mul_rows(A, B), _mul_rows(C, E)))


def _int_vec(field, vec):
    """The integer view (ints, d) of the field vector vec (see `Matrix`):
    its nonzero entries on d, the lcm of their denominators, over Q; the
    residues and d = 1 over F_p."""
    if _modulus(field) is None:
        d = math.lcm(*[x.denominator for x in vec])
        return {i: x.numerator * (d // x.denominator)
                for i, x in enumerate(vec) if x}, d
    return {i: x.val for i, x in enumerate(vec) if x.val}, 1


def _field_vec(field, acc, d, n):
    """The field vector of length n with entry k acc[k] / d over Q and
    acc[k] mod p over F_p, for {index: int} acc, and zero elsewhere."""
    p, out = _modulus(field), [field.zero] * n
    for k, x in _reduced(acc, p).items():
        out[k] = Fraction(x, d) if p is None else FpElement(x, p)
    return tuple(out)


def _from_ints(field, rows, d, cols):
    """The matrix whose entry (i, j) is rows[i][j] / d over Q and rows[i][j]
    mod p over F_p (zero where rows[i] has no j), built from its integer
    view: zeros dropped, residues reduced mod p, and over Q the entries and
    d divided by their common gcd.  Its dense rows are built on first
    read."""
    p = _modulus(field)
    view = [_reduced(r, p) for r in rows]
    if p is not None:
        return Matrix._from_int_rows(field, view, 1, cols)
    g = d
    for r in view:
        if g == 1:
            break
        g = math.gcd(g, *r.values())
    if g > 1:
        d //= g
        view = [{j: v // g for j, v in r.items()} for r in view]
    return Matrix._from_int_rows(field, view, d, cols)


def _lincomb(coefs, mats, rows):
    """The integer view (rows, d) of sum_k x_k / d * mats[k], for the view
    (x, d) of the coefficients (neither reduced mod p nor freed of zeros)."""
    x, dx = coefs
    terms = [(c, mats[k]._ints) for k, c in x.items() if c]
    D = math.lcm(*(dm for _, (_, dm) in terms))
    return _lincomb_rows([(c * (D // dm), mrows) for c, (mrows, dm) in terms],
                         rows), D * dx


def _lincomb_rows(terms, n):
    """sum f * rows over the (int f, integer rows) terms, as n integer rows
    (neither reduced mod p nor freed of zeros)."""
    acc = [{} for _ in range(n)]
    for f, rows in terms:
        for a, row in zip(acc, rows):
            for j, x in row.items():
                a[j] = a.get(j, 0) + f * x
    return acc


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    top = a.hstack(Matrix.zero(a.field, a.rows, b.cols))
    bot = Matrix.zero(a.field, b.rows, a.cols).hstack(b)
    return top.vstack(bot)


def _axpy(row, x, lead, tail, p):
    """row = (lead/g) row - (x/g) tail in place, g = gcd(lead, x), dropping
    zeros; mod p when p is not None (lead is 1 there).  Returns lead/g."""
    g = math.gcd(lead, x)
    a, b = lead // g, x // g
    if a != 1:
        for j in row:
            row[j] *= a
    if p is None:
        for j, v in tail.items():
            x = row.get(j, 0) - b * v
            if x:
                row[j] = x
            else:
                del row[j]
    else:
        for j, v in tail.items():
            x = (row.get(j, 0) - b * v) % p
            if x:
                row[j] = x
            else:
                del row[j]
    return a


def _primitive(lead, tail, p):
    """[lead, tail] divided by its content, with lead > 0; over F_p divided
    by lead, so lead is 1."""
    if p is not None:
        inv = pow(lead, -1, p)
        return [1, {j: v * inv % p for j, v in tail.items()}]
    g = math.gcd(lead, *tail.values())
    g = -g if lead < 0 else g
    if g == 1:
        return [lead, tail]
    return [lead // g, {j: v // g for j, v in tail.items()}]


def _insert(piv, r, p):
    """Add the integer row r ({column: nonzero int}, consumed) to the pivot
    dict piv of `_echelon`, keeping piv fully reduced.  Returns whether r
    was independent of piv's rows (and so raised the rank)."""
    for c in [c for c in r if c in piv]:
        _axpy(r, r.pop(c), *piv[c], p)
    if not r:
        return False
    c = min(r)
    lead, tail = piv[c] = _primitive(r.pop(c), r, p)
    for t in piv.values():
        if c in t[1]:
            t[0] *= _axpy(t[1], t[1].pop(c), lead, tail, p)
            if t[0] != 1:
                t[:] = _primitive(t[0], t[1], p)
    return True


def _echelon(rows, p):
    """Sparse fraction-free Gauss-Jordan elimination (Bareiss-style, each
    stored row divided by its content) of integer rows {column: nonzero
    int}: a row over Q scaled to integers (a nonzero scale leaves the row
    space alone), residues over F_p.

    Returns {pivot column c: [lead, tail]}, where lead * e_c + tail is the
    primitive integer multiple, lead > 0, of the reduced row with pivot c
    (lead is 1 over F_p).  A row is reduced by (lead/g) row - (x/g) tail,
    g = gcd(lead, x), so only integers are formed.  The dict stays fully
    reduced after each insertion -- no tail holds a pivot column -- so an
    incoming row is reduced by one pass over its own pivot-column entries,
    and the pivot of every row is its leftmost column: the rows divided by
    their leads are the canonical RREF of the row space.
    """
    piv = {}
    for r in rows:
        _insert(piv, r, p)
    return piv


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, pivot column tuple).

    The engine eliminates m's integer view; the result is built from the
    pivot rows as an integer view on the lcm of their leads, so its dense
    rows are built only if `.data` is read.
    """
    rows, _ = m._ints
    piv = _echelon([dict(r) for r in rows], _modulus(m.field))
    pivots = tuple(sorted(piv))
    # the pivot rows are primitive, so the view on D has no common factor
    D = math.lcm(*(piv[c][0] for c in pivots))
    out = []
    for c in pivots:
        lead, tail = piv[c]
        if lead != D:
            tail = {j: v * (D // lead) for j, v in tail.items()}
        tail[c] = D
        out.append(tail)
    out.extend([{}] * (m.rows - len(pivots)))
    return Matrix._from_int_rows(m.field, out, D, m.cols), pivots


class Echelon:
    """One sparse factorization of the rows of a matrix A, asked many
    questions: rank, pivots, kernel, solve, and grown one row at a time by
    extend.

    The row echelon form (the pivot dict of `_echelon`) is built on the first
    question that needs it.  The first solve eliminates [A | b], one column
    more than A; a second solve eliminates [A | I] once for the row
    transform, and every later solve is a product with it.  So a one-shot
    solve of a tall A costs no more than one elimination of A, and a
    factorization that is never asked to solve never pays for the transform.
    Nothing is cached outside the object: it lives exactly as long as the
    caller that built it keeps it.  Vectors passed in and returned are
    integer views (ints, d) (see `Matrix`); no field element is formed.

    Engine row i is the integer row s_i A_i, s_i = _scale[i] (A's integer
    view, or an extended row on its own denominator).  An augmented column
    carries the same scale: [A | b] enters as s_i (A_i | b_i) and [A | I] as
    s_i (A_i | e_i).
    """

    __slots__ = ("field", "cols", "_p", "_rows", "_scale", "_piv",
                 "_transform", "_solved")

    def __init__(self, matrix: Matrix):
        self.field, self.cols = matrix.field, matrix.cols
        self._p = _modulus(matrix.field)
        rows, d = matrix._ints
        self._rows, self._scale = list(rows), [d] * len(rows)
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

    def extend(self, row):
        """Add the row with integer view (ints, d) to A.  Returns whether it
        raised the rank."""
        piv = self._pivots()
        r = _reduced(row[0], self._p)
        self._rows.append(dict(r))
        self._scale.append(row[1])
        self._transform = None
        return _insert(piv, r, self._p)

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
            n, p = self.cols, self._p
            piv = _echelon([{**r, n + i: s} for i, (r, s) in
                            enumerate(zip(self._rows, self._scale))], p)
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
        n = self.cols
        piv = _echelon([{**r, n: s * bv[i]} if i in bv else dict(r)
                        for i, (r, s) in enumerate(zip(self._rows,
                                                       self._scale))],
                       self._p)
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
        return _reduced(out, _modulus(self.field)), d * db

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
                        _modulus(self.field)), d

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


class LinearMap:
    """A linear map carried by a codomain_dim x domain_dim matrix."""

    __slots__ = ("matrix", "domain_dim", "codomain_dim")

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        self.domain_dim, self.codomain_dim = matrix.cols, matrix.rows

    @classmethod
    def zero(cls, field, domain_dim, codomain_dim):
        return cls(Matrix.zero(field, codomain_dim, domain_dim))

    @classmethod
    def identity(cls, field, n):
        return cls(Matrix.identity(field, n))

    @property
    def field(self):
        return self.matrix.field

    def apply(self, vec):
        return self.matrix.apply(vec)

    def compose(self, other: "LinearMap"):
        """self after other."""
        return LinearMap(self.matrix @ other.matrix)

    def __neg__(self):
        return LinearMap(-self.matrix)

    def __eq__(self, other):
        return isinstance(other, LinearMap) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"LinearMap({self.domain_dim} -> {self.codomain_dim})"


def kernel(f: LinearMap) -> Subspace:
    return Echelon(f.matrix).kernel()


def image(f: LinearMap) -> Subspace:
    return Subspace.row_space(f.matrix.transpose())


def rank(f: LinearMap) -> int:
    """Row rank of f's matrix, which equals the dimension of its image."""
    return len(rref(f.matrix)[1])


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
                   _modulus(f.field))
    image_rows = [(c, lead, tail) for c, (lead, tail) in piv.items() if c < m]
    D = math.lcm(*(lead for _, lead, _ in image_rows))
    out = [{} for _ in range(f.domain_dim)]
    for c, lead, tail in image_rows:
        for k, v in tail.items():
            if k >= m:
                out[top - k][c] = v * (D // lead)
    return LinearMap(_from_ints(f.field, out, D, m))
