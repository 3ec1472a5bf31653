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
    """Immutable matrix over an exact field.

    A matrix has two forms.  `.data` is the dense form: a tuple of row
    tuples of field elements.  The integer view of `_int_rows`, cached in
    `_ints`, is the sparse form: each row as {column: int} on one common
    denominator, canonical, so two views are equal iff the entries are.
    The public constructor coerces every entry with `field.of`, and `_raw`
    takes entries that already are field elements; both build the dense
    form.  `_from_int_rows` builds a matrix from its integer view alone --
    the results of `@`, `+`, `-`, `lincomb` and the coboundary emitter --
    and its `.data` is built on the first read (see `_IntRowMatrix`).
    `==`, `is_zero`, negation, `transpose`, `apply`, `@` and elimination
    read the view when `.data` is not built.
    """

    __slots__ = ("field", "rows", "cols", "data", "_ints")

    def __init__(self, field, data, cols=None):
        self.field = field
        self._ints = None
        self.data = tuple(tuple(field.of(x) for x in row) for row in data)
        self.rows = len(self.data)
        if self.rows:
            self.cols = len(self.data[0])
        elif cols is not None:
            self.cols = cols
        else:
            self.cols = 0
        for row in self.data:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @classmethod
    def _raw(cls, field, data, cols):
        """Trusted constructor: data is a tuple of row tuples, each of
        length cols, whose entries already are elements of field."""
        m = object.__new__(cls)
        m.field = field
        m._ints = None
        m.data = data
        m.rows = len(data)
        m.cols = cols
        return m

    @staticmethod
    def _from_int_rows(field, rows, d, cols):
        """Trusted constructor from an integer view (see `_int_rows`): rows
        is a sequence of {column: nonzero int} dicts, canonical -- residues
        in [1, p) and d = 1 over F_p; over Q, d > 0 with no common factor
        of d and all entries.  `.data` is left unset until it is read."""
        m = object.__new__(_IntRowMatrix)
        m.field = field
        m._ints = (tuple(rows), d)
        m.rows = len(m._ints[0])
        m.cols = cols
        return m

    @classmethod
    def zero(cls, field, rows, cols):
        return cls._raw(field, ((field.zero,) * cols,) * rows, cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._raw(field, tuple(
            tuple(o if i == j else z for j in range(n)) for i in range(n)), n)

    @classmethod
    def from_cols(cls, field, cols, rows_count):
        return cls(field, [[c[i] for c in cols] for i in range(rows_count)],
                   cols=len(cols))

    def col(self, j):
        return tuple(row[j] for row in self.data)

    def transpose(self):
        if _built_rows(self) is None:
            rows, d = self._ints
            out = [{} for _ in range(self.cols)]
            for i, r in enumerate(rows):
                for j, v in r.items():
                    out[j][i] = v
            return Matrix._from_int_rows(self.field, out, d, self.rows)
        data = tuple(zip(*self.data)) if self.rows else ((),) * self.cols
        return Matrix._raw(self.field, data, self.rows)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign * other on the integer views."""
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch in " + ("+" if sign > 0 else "-"))
        arows, da = _int_rows(self)
        brows, db = _int_rows(other)
        d = math.lcm(da, db)
        fa, fb = d // da, sign * (d // db)
        out = []
        for arow, brow in zip(arows, brows):
            acc = {j: fa * a for j, a in arow.items()}
            for j, b in brow.items():
                acc[j] = acc.get(j, 0) + fb * b
            out.append(acc)
        return _from_ints(self.field, out, d, self.cols)

    # negation of a matrix without dense rows negates its integer view; on
    # dense rows, negation and scale skip the scalar arithmetic on zero
    # entries, which most entries of action and coboundary matrices are.
    def __neg__(self):
        if _built_rows(self) is None:
            rows, d = self._ints
            p = _modulus(self.field)
            return Matrix._from_int_rows(
                self.field, [{j: p - v if p else -v for j, v in r.items()}
                             for r in rows], d, self.cols)
        return Matrix._raw(self.field, tuple(tuple(-a if a else a for a in row)
                                             for row in self.data), self.cols)

    def scale(self, c):
        c = self.field.of(c)
        return Matrix._raw(self.field, tuple(tuple(c * a if a else a
                                                   for a in row)
                                             for row in self.data), self.cols)

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in @")
        arows, da = _int_rows(self)
        brows, db = _int_rows(other)
        return _from_ints(self.field, _mul_rows(arows, brows), da * db,
                          other.cols)

    def apply(self, vec):
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        rows, d = _int_rows(self)
        field = self.field
        p = _modulus(field)
        v, dv = _int_vec(field, vec)
        make = _to_field(field, d * dv)
        out = []
        for row in rows:
            s = 0
            for j, a in row.items():
                s += a * v[j]
            if p is not None:
                s %= p
            out.append(make(s) if s else field.zero)
        return tuple(out)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        return Matrix._raw(self.field, tuple(r1 + r2 for r1, r2 in
                                             zip(self.data, other.data)),
                           self.cols + other.cols)

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch in vstack")
        return Matrix._raw(self.field, self.data + other.data, self.cols)

    def is_zero(self):
        if self._ints is not None:
            return not any(self._ints[0])
        return all(not a for row in self.data for a in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix) or self.field != other.field:
            return False
        if self._ints is None or other._ints is None:
            return self.data == other.data
        # integer views are canonical, so they are equal iff the entries are
        return self._ints == other._ints and (self.cols == other.cols
                                              or not self.rows)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.data!r})"


class _IntRowMatrix(Matrix):
    """A matrix built by `Matrix._from_int_rows`.  The hook that builds
    `.data` on first read lives on this subclass only: a class with
    `__getattr__` loses the interpreter's fast path for every attribute
    read of its instances (about 40 ns against 6 ns per read on CPython
    3.11), so dense matrices keep plain slot reads."""

    __slots__ = ()

    def __getattr__(self, name):
        # reached only for unset slots, that is for `data` before its
        # first read
        if name != "data":
            raise AttributeError(name)
        rows, d = self._ints
        zero, make, cols = self.field.zero, _to_field(self.field, d), self.cols
        out = []
        for r in rows:
            line = [zero] * cols
            for j, v in r.items():
                line[j] = make(v)
            out.append(tuple(line))
        self.data = tuple(out)
        return self.data


_DATA = Matrix.data


def _built_rows(m: Matrix):
    """m's dense rows if they are built, else None (reading the slot
    directly never builds them)."""
    try:
        return _DATA.__get__(m)
    except AttributeError:
        return None


def _int_rows(m: Matrix):
    """The integer view of m: (rows, d) with rows[i] = {column: int} for the
    nonzero entries of row i.  Over Q, entry (i, j) is rows[i][j] / d with d
    the lcm of the entries' denominators; over F_p it is rows[i][j] mod p
    (the residue itself) and d is 1.  Computed once per matrix."""
    ints = m._ints
    if ints is None:
        zero = m.field.zero
        rows = [{j: x for j, x in enumerate(row) if x is not zero and x}
                for row in m.data]
        if _modulus(m.field) is None:
            d = math.lcm(*{x.denominator for r in rows for x in r.values()})
            ints = (tuple({j: x.numerator * (d // x.denominator)
                           for j, x in r.items()} for r in rows), d)
        else:
            ints = (tuple({j: x.val for j, x in r.items()} for r in rows), 1)
        m._ints = ints
    return ints


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


def _int_vec(field, vec):
    """vec on one denominator: (ints, d) with vec[i] = ints[i] / d over Q,
    d the lcm of the entries' denominators; the residues and d = 1 over
    F_p."""
    if _modulus(field) is None:
        d = math.lcm(*[x.denominator for x in vec])
        if d == 1:
            return [x.numerator for x in vec], 1
        return [x.numerator * (d // x.denominator) for x in vec], d
    return [x.val for x in vec], 1


def _to_field(field, d):
    """The map from a nonzero integer v (reduced mod p over F_p) to the
    field element v / d over Q, v mod p over F_p."""
    p = _modulus(field)
    if p is not None:
        return lambda v: FpElement(v, p)
    if d == 1:
        return Fraction
    return lambda v: Fraction(v, d)


def _from_ints(field, rows, d, cols):
    """The matrix whose entry (i, j) is rows[i][j] / d over Q and rows[i][j]
    mod p over F_p (zero where rows[i] has no j), built from its integer
    view: zeros dropped, residues reduced mod p, and over Q the entries and
    d divided by their common gcd.  Its dense rows are built on first
    read."""
    p = _modulus(field)
    view = []
    if p is not None:
        for r in rows:
            kept = {}
            for j, v in r.items():
                v %= p
                if v:
                    kept[j] = v
            view.append(kept)
        return Matrix._from_int_rows(field, view, 1, cols)
    view = [{j: v for j, v in r.items() if v} for r in rows]
    g = d
    for r in view:
        if g == 1:
            break
        g = math.gcd(g, *r.values())
    if g > 1:
        d //= g
        view = [{j: v // g for j, v in r.items()} for r in view]
    return Matrix._from_int_rows(field, view, d, cols)


def lincomb(field, coefs, mats, rows, cols) -> Matrix:
    """sum_i coefs[i] * mats[i], a rows x cols matrix (zero when every
    coefficient is zero), accumulated on the integer views of the mats."""
    p = _modulus(field)
    terms = [(c, _int_rows(m)) for c, m in zip(coefs, mats) if c]
    if p is None:
        d = math.lcm(*(c.denominator * dm for c, (_, dm) in terms))
        scaled = [(c.numerator * (d // (c.denominator * dm)), mrows)
                  for c, (mrows, dm) in terms]
    else:
        d = 1
        scaled = [(c.val, mrows) for c, (mrows, _) in terms]
    acc = [{} for _ in range(rows)]
    for f, mrows in scaled:
        for a, mrow in zip(acc, mrows):
            for j, x in mrow.items():
                a[j] = a.get(j, 0) + f * x
    return _from_ints(field, acc, d, cols)


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    top = a.hstack(Matrix.zero(a.field, a.rows, b.cols))
    bot = Matrix.zero(a.field, b.rows, a.cols).hstack(b)
    return top.vstack(bot)


def _axpy(row, f, tail, p):
    """row -= f * tail in place, dropping entries that cancel.  Scalars are
    Fractions when p is None and ints mod p otherwise."""
    if p is None:
        for j, v in tail.items():
            x = row.get(j)
            if x is None:
                row[j] = -f * v
            else:
                x -= f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
    else:
        for j, v in tail.items():
            x = (row.get(j, 0) - f * v) % p
            if x:
                row[j] = x
            else:
                del row[j]


def _insert(piv, r, p):
    """Add row r ({column: nonzero}, consumed) to the pivot dict piv of
    `_echelon`, keeping piv fully reduced.  Returns whether r was
    independent of piv's rows (and so raised the rank)."""
    for c in [c for c in r if c in piv]:
        _axpy(r, r.pop(c), piv[c], p)
    if not r:
        return False
    c = min(r)
    lead = r.pop(c)
    if p is None:
        inv = 1 / lead
        tail = {j: v * inv for j, v in r.items()}
    else:
        inv = pow(lead, -1, p)
        tail = {j: v * inv % p for j, v in r.items()}
    for t in piv.values():
        if c in t:
            _axpy(t, t.pop(c), tail, p)
    piv[c] = tail
    return True


def _echelon(rows, p):
    """Sparse Gauss-Jordan elimination of rows given as {column: nonzero}.

    Returns {pivot column: tail}, where the tail maps the non-pivot columns
    of that reduced row to their values (the pivot entry is an implicit 1).
    The dict stays fully reduced after each insertion -- no tail holds a
    pivot column -- so an incoming row is reduced by one pass over its own
    pivot-column entries, and the pivot of every row is its leftmost column:
    the result is the canonical RREF of the row space.
    """
    piv = {}
    for r in rows:
        _insert(piv, r, p)
    return piv


def _engine_rows(m: Matrix):
    """m's rows as fresh {column: nonzero entry} dicts in the engine's
    scalars: Fractions over Q, ints mod p over F_p.  A matrix whose dense
    rows are not built is read from its integer view."""
    if _built_rows(m) is None:
        rows, d = m._ints
        if _modulus(m.field) is not None:
            return [dict(r) for r in rows]
        make = _to_field(m.field, d)
        return [{j: make(v) for j, v in r.items()} for r in rows]
    zero = m.field.zero
    # `x is not zero` skips the shared zero object before a slower truth test
    if _modulus(m.field) is None:
        return [{j: x for j, x in enumerate(row) if x is not zero and x}
                for row in m.data]
    return [{j: x.val for j, x in enumerate(row) if x is not zero and x}
            for row in m.data]


def rref(m: Matrix):
    """Reduced row echelon form.  Returns (rref matrix, pivot column tuple).

    Prime-field entries enter the engine as plain ints mod p and leave it as
    FpElements; rationals stay Fractions throughout.
    """
    field = m.field
    p = _modulus(field)
    zero, one = field.zero, field.one
    piv = _echelon(_engine_rows(m), p)
    pivots = tuple(sorted(piv))
    out = []
    for c in pivots:
        line = [zero] * m.cols
        line[c] = one
        for j, v in piv[c].items():
            line[j] = v if p is None else FpElement(v, p)
        out.append(tuple(line))
    out.extend([(zero,) * m.cols] * (m.rows - len(pivots)))
    return Matrix._raw(field, tuple(out), m.cols), pivots


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
    caller that built it keeps it.  Vectors passed in hold field elements.
    """

    __slots__ = ("field", "cols", "_p", "_rows", "_piv", "_transform",
                 "_solved")

    def __init__(self, matrix: Matrix):
        self.field = matrix.field
        self.cols = matrix.cols
        self._p = _modulus(matrix.field)
        self._rows = _engine_rows(matrix)
        self._piv = None
        self._transform = None
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

    def _sparse(self, vec):
        """vec as {index: nonzero entry} in the engine's scalars."""
        zero = self.field.zero
        if self._p is None:
            return {j: x for j, x in enumerate(vec) if x is not zero and x}
        return {j: x.val for j, x in enumerate(vec) if x is not zero and x}

    def _dense(self, v):
        """The field vector of length cols with the engine entries v."""
        out = [self.field.zero] * self.cols
        if self._p is None:
            for j, x in v.items():
                out[j] = x
        else:
            for j, x in v.items():
                out[j] = FpElement(x, self._p)
        return tuple(out)

    def kernel(self) -> "Subspace":
        """{x | A x = 0}: one basis vector per free column j, with 1 at j
        and minus column j of the RREF at the pivots."""
        piv = self._pivots()
        field, n, p = self.field, self.cols, self._p
        one = field.one if p is None else 1
        rows = []
        for j in range(n):
            if j in piv:
                continue
            v = {j: one}
            for c, tail in piv.items():
                x = tail.get(j)
                if x is not None:
                    v[c] = -x if p is None else p - x
            rows.append(self._dense(v))
        return Subspace.row_space(Matrix._raw(field, tuple(rows), n))

    def extend(self, row):
        """Add row to A.  Returns whether it raised the rank."""
        if len(row) != self.cols:
            raise ValueError("vector length mismatch")
        piv = self._pivots()
        r = self._sparse(row)
        self._rows.append(dict(r))
        self._transform = None
        return _insert(piv, r, self._p)

    def _solver(self):
        """The row transform of A, from one elimination of [A | I].

        Every row of the eliminated space is (y A | y).  A row with its pivot
        c in A's columns is (R_r | T_r): the RREF row R_r = T_r A, so a
        consistent b has the solution x[c] = T_r . b with zero free
        coordinates.  A row (0 | N) has N A = 0, so N . b = 0 for every
        consistent b.  Returns ([(c, T_r)], [N]) with the T_r and N as lists
        of (index into b, value).
        """
        if self._transform is None:
            n, p = self.cols, self._p
            one = self.field.one if p is None else 1
            piv = _echelon([{**r, n + i: one} for i, r in enumerate(self._rows)],
                           p)
            solutions, checks = [], []
            for c, tail in piv.items():
                t = [(j - n, v) for j, v in tail.items() if j >= n]
                if c < n:
                    solutions.append((c, t))
                else:
                    checks.append([(c - n, one)] + t)
            self._transform = (solutions, checks)
        return self._transform

    def _solve_once(self, bv):
        """Solve for one right-hand side by eliminating [A | b]: b is
        consistent unless column n = cols becomes a pivot, and then x[c] is
        entry n of the RREF row with pivot c."""
        n = self.cols
        piv = _echelon([{**r, n: bv[i]} if i in bv else dict(r)
                        for i, r in enumerate(self._rows)], self._p)
        if n in piv:
            return None
        return self._dense({c: tail[n] for c, tail in piv.items()
                            if n in tail})

    def solve(self, b):
        """The vector x with A x = b whose free coordinates are zero, or None
        if b is not in the column space of A."""
        if len(b) != len(self._rows):
            raise ValueError("target length mismatch")
        bv = self._sparse(b)
        if not self._solved:
            self._solved = True
            return self._solve_once(bv)
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
        out = {}
        for c, t in solutions:
            s = dot(t)
            if s:
                out[c] = s
        return self._dense(out)


class Subspace:
    """Subspace of field^n carried by its canonical RREF basis (one row each)."""

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, basis: Matrix, pivots):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def from_rows(cls, field, ambient_dim, rows):
        m = Matrix(field, list(rows)) if rows else Matrix.zero(field, 0, ambient_dim)
        if m.cols != ambient_dim:
            raise ValueError("row length != ambient dimension")
        return cls.row_space(m)

    @classmethod
    def row_space(cls, m: Matrix):
        """The span of the rows of m."""
        r, piv = rref(m)
        return cls(m.field, m.cols, Matrix._raw(m.field, r.data[:len(piv)], m.cols),
                   piv)

    @classmethod
    def zero_space(cls, field, ambient_dim):
        return cls.row_space(Matrix.zero(field, 0, ambient_dim))

    @classmethod
    def full_space(cls, field, ambient_dim):
        return cls(field, ambient_dim, Matrix.identity(field, ambient_dim),
                   tuple(range(ambient_dim)))

    @property
    def dim(self):
        return self.basis.rows

    def reduce(self, vec):
        """Eliminate the pivot coordinates of vec; result is the canonical
        representative of vec modulo this subspace.  Only the nonzero
        entries of each basis row (the columns of its integer view) are
        touched."""
        v = list(vec)
        data = self.basis.data
        nonzero = _int_rows(self.basis)[0]
        for r, p in enumerate(self.pivots):
            f = v[p]
            if f:
                row = data[r]
                for j in nonzero[r]:
                    v[j] -= f * row[j]
        return tuple(v)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def coordinates(self, vec):
        """Coefficients of vec in the RREF basis, or None if vec is outside."""
        coords = tuple(vec[p] for p in self.pivots)
        if any(self.reduce(vec)):
            return None
        return coords

    def contains_space(self, other: "Subspace"):
        return all(self.contains(row) for row in other.basis.data)

    def sum(self, other: "Subspace"):
        return Subspace.row_space(self.basis.vstack(other.basis))

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
        self.domain_dim = matrix.cols
        self.codomain_dim = matrix.rows

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
    field = sub.field
    zero, one = field.zero, field.one
    free = [c for c in range(ambient_dim) if c not in sub.pivots]
    qdim = len(free)
    # entry (f, i) of the projection is coordinate f of sub.reduce(e_i): 1 at
    # i = f, minus entry f of basis row r at i = pivot r, 0 elsewhere
    proj_rows = []
    for fcol in free:
        row = [zero] * ambient_dim
        row[fcol] = one
        for brow, p in zip(sub.basis.data, sub.pivots):
            x = brow[fcol]
            if x:
                row[p] = -x
        proj_rows.append(tuple(row))
    proj = LinearMap(Matrix._raw(field, tuple(proj_rows), ambient_dim))
    sect = LinearMap(Matrix._raw(field, tuple(
        tuple(one if i == fcol else zero for fcol in free)
        for i in range(ambient_dim)), qdim))
    return proj, sect, qdim


def solve(f: LinearMap, target):
    """A vector v with f(v) = target exactly, or None if target is not in
    the image of f.  target's entries may be anything the field coerces."""
    return Echelon(f.matrix).solve(tuple(map(f.field.of, target)))


def solve_matrix(f: LinearMap, targets: Matrix):
    """Columnwise solve: a matrix X with f.matrix @ X = targets, or None."""
    ech = Echelon(f.matrix)
    of = f.field.of
    cols = []
    for j in range(targets.cols):
        x = ech.solve(tuple(map(of, targets.col(j))))
        if x is None:
            return None
        cols.append(x)
    return Matrix.from_cols(f.field, cols, f.domain_dim)


def linear_section(f: LinearMap) -> LinearMap:
    """A map q with f . q = id on image(f), chosen by pivot preimages.

    q is defined on the whole codomain: a codomain vector is first written in
    the RREF basis of image(f) by reading off pivot coordinates, so column i
    of q is the preimage of basis row r when i is pivot r of image(f), and
    zero otherwise.
    """
    im = image(f)
    ech = Echelon(f.matrix)
    cols = [(f.field.zero,) * f.domain_dim] * f.codomain_dim
    for row, p in zip(im.basis.data, im.pivots):
        cols[p] = ech.solve(row)
    return LinearMap(Matrix.from_cols(f.field, cols, f.domain_dim))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_zero(field, n):
    return (field.zero,) * n


def basis_vector(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)
