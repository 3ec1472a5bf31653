"""Exact linear algebra: matrices, canonical subspaces, linear maps.

Subspaces are always carried by a reduced row-echelon basis, which makes
subspace equality (and hence kernel/image/class comparisons everywhere
above this module) a plain data comparison.
"""
from __future__ import annotations

import math
from fractions import Fraction

from . import _forward, _spaces

# the subspace layer, a lazy module, whose names are served from here too
__getattr__ = _forward(__name__, _spaces)


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

    __slots__ = ("field", "rows", "cols", "_ints", "_data", "_hash")

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
        self._hash = None

    @staticmethod
    def _from_int_rows(field, rows, d, cols):
        """Trusted constructor from a canonical integer view: rows is a
        sequence of {column: nonzero int} dicts -- residues in [1, p) and
        d = 1 over F_p; over Q, d > 0 with no common factor of d and all
        entries."""
        m, rows = object.__new__(Matrix), tuple(rows)
        m.field, m.rows, m.cols = field, len(rows), cols
        m._ints, m._data, m._hash = (rows, d), None, None
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
        p = self.field.p
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
        if self._hash is None:
            rows, d = self._ints
            self._hash = hash((self.field, self.cols, d,
                               tuple(frozenset(r.items()) for r in rows)))
        return self._hash

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


def _first_nonzero_row(products, linear, n, p):
    """The first r < n at which row r of sum f X Y + sum g Z is nonzero
    (mod p when p is not None), or None, for the (int f, integer rows X,
    integer rows Y) products and (int g, integer rows Z) linear terms: each
    row is accumulated once, from rows r of X and Z, no product is stored,
    and the rows after the first nonzero one are never formed."""
    for r in range(n):
        acc = {}
        for g, Z in linear:
            for j, x in Z[r].items():
                acc[j] = acc.get(j, 0) + g * x
        for f, X, Y in products:
            for k, a in X[r].items():
                a *= f
                for j, b in Y[k].items():
                    acc[j] = acc.get(j, 0) + a * b
        if any(v % p for v in acc.values()) if p else any(acc.values()):
            return r
    return None


def _int_vec(field, vec):
    """The integer view (ints, d) of the field vector vec (see `Matrix`):
    its nonzero entries on d, the lcm of their denominators, over Q; the
    residues and d = 1 over F_p."""
    if field.p is None:
        d = math.lcm(*[x.denominator for x in vec])
        return {i: x.numerator * (d // x.denominator)
                for i, x in enumerate(vec) if x}, d
    return {i: x.val for i, x in enumerate(vec) if x.val}, 1


def _field_vec(field, acc, d, n):
    """The field vector of length n with entry k acc[k] / d over Q and
    acc[k] mod p over F_p, for {index: int} acc, and zero elsewhere."""
    p, out = field.p, [field.zero] * n
    for k, x in _reduced(acc, p).items():
        out[k] = Fraction(x, d) if p is None else field.of(x)
    return tuple(out)


def _from_ints(field, rows, d, cols):
    """The matrix whose entry (i, j) is rows[i][j] / d over Q and rows[i][j]
    mod p over F_p (zero where rows[i] has no j), built from its integer
    view: zeros dropped, residues reduced mod p, and over Q the entries and
    d divided by their common gcd.  Its dense rows are built on first
    read."""
    p = field.p
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
    piv = _echelon([dict(r) for r in rows], m.field.p)
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


def rank(f: LinearMap) -> int:
    """Row rank of f's matrix, which equals the dimension of its image.  The
    RREF is canonical whatever the row order, and rows entered last to
    first eliminate a coboundary faster: in about 0.7 of the time on gl_3's
    adjoint delta_2, and half on gl_2's Leibniz trivial delta_6."""
    rows, d = f.matrix._ints
    return len(rref(Matrix._from_int_rows(f.field, rows[::-1], d,
                                          f.domain_dim))[1])
