"""Chevalley-Eilenberg and Leibniz cochain complexes and their cohomology.

Cochain bases are ordered lexicographically: increasing index tuples for the
alternating (CE) complex, all index tuples for the Leibniz complex, with the
module basis running fastest.  This fixes every coboundary matrix bit for bit.

Both flavors' coboundaries come from one emitter, `_emit_coboundary`, which
writes delta_n directly as integer rows (`{column: int}` on one common
denominator over Q, residues over F_p) from the integer views of the action
matrices and the structure constants; the flavors differ only in their
cochain tuples and their action and bracket terms.  A matrix is stored as
that integer view (see `linalg.Matrix`), so rank, elimination, transpose
and apply never build its dense rows.  Complexes, cochains and classes
read their algebra and their flavor (CE or LEIBNIZ) from their module, and
a module owns its one complex (`complex_of`).
"""
from __future__ import annotations

import itertools
import math

from .errors import CheckFailure
from .linalg import (Echelon, LinearMap, Matrix, Subspace, _columns,
                     _common_rows, _field_vec, _from_ints, _int_vec, _modulus,
                     _mul_vec, _reduced, _sum, image, kernel, rank)
# CE and LEIBNIZ are re-exported here, next to the complexes they name
from .algebra import (CE, LEIBNIZ, LeibnizRepresentation, ModuleMorphism,
                      Representation, sides, validate_lie)


def ce_tuples(dim: int, n: int):
    return tuple(itertools.combinations(range(dim), n))

def leib_tuples(dim: int, n: int):
    return tuple(itertools.product(range(dim), repeat=n))

def cochain_tuples(module, n: int):
    """The basis tuples of the n-cochains valued in module."""
    tuples = ce_tuples if module.flavor == CE else leib_tuples
    return tuples(module.algebra.dim, n)


def sort_with_sign(t):
    """Sort an index tuple, tracking the sign of the permutation.
    Returns (None, 0) when an index repeats."""
    t = list(t)
    sign = 1
    for i in range(1, len(t)):
        j = i
        while j > 0 and t[j - 1] > t[j]:
            t[j - 1], t[j] = t[j], t[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(t, t[1:]):
        if a == b:
            return None, 0
    return tuple(t), sign


class _Record:
    """A frozen value: each subclass's __init__ stores its fields in
    __dict__, in order, and instances of one class compare and hash field
    by field.  Assigning or deleting an attribute raises AttributeError."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name}")

    __delattr__ = __setattr__


class Cochain(_Record):
    """Degree-n cochain with values in a module, stored as one flat vector;
    its flavor is the module's."""

    def __init__(self, degree: int, module, vec: tuple):
        self.__dict__.update(degree=degree, module=module, vec=vec)
        expected = len(self.tuples()) * self.module.dim
        if len(self.vec) != expected:
            raise ValueError(f"cochain vector has length {len(self.vec)}, want {expected}")

    @property
    def flavor(self):
        return self.module.flavor

    def tuples(self):
        return cochain_tuples(self.module, self.degree)

    def value(self, t):
        idx = self.tuples().index(tuple(t))
        m = self.module.dim
        return self.vec[idx * m:(idx + 1) * m]

    def value_signed(self, t):
        """Value on an arbitrary index tuple, extended alternately (CE only)."""
        if self.flavor != CE:
            return self.value(t)
        st, sign = sort_with_sign(t)
        if st is None:
            return (self.module.algebra.field.zero,) * self.module.dim
        v = self.value(st)
        return v if sign == 1 else tuple(-x for x in v)

    def __add__(self, other):
        self._check_like(other)
        return Cochain(self.degree, self.module,
                       tuple(a + b for a, b in zip(self.vec, other.vec)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Cochain(self.degree, self.module, tuple(-x for x in self.vec))

    def _check_like(self, other):
        if (self.flavor, self.degree, self.module.dim) != \
                (other.flavor, other.degree, other.module.dim):
            raise ValueError("cochain shape mismatch")

    def is_zero(self):
        return not any(self.vec)


def cochain_from_values(module, degree, value_of) -> Cochain:
    """Assemble a cochain from a function mapping basis index tuples to
    module vectors."""
    vec = []
    for t in cochain_tuples(module, degree):
        v = tuple(value_of(t))
        if len(v) != module.dim:
            raise ValueError("value of wrong length")
        vec.extend(v)
    return Cochain(degree, module, tuple(vec))


def _ce_actions(S):
    """The action terms of CE delta on the output tuple S: rho(x_pos)
    applied to the value on S without x_pos, with sign (-1)^pos."""
    for pos in range(len(S)):
        yield S[:pos] + S[pos + 1:], 0, S[pos], 1 if pos % 2 == 0 else -1


def _ce_insert(S, pa, pb, k):
    """[x_pa, x_pb]'s coordinate e_k put in the first slot and the tuple
    resorted: (input tuple, sign (-1)^{pa+pb} times the sorting sign), or
    None when k repeats an index."""
    merged, sign = sort_with_sign((k,) + S[:pa] + S[pa + 1:pb] + S[pb + 1:])
    if merged is None:
        return None
    return merged, sign if (pa + pb) % 2 == 0 else -sign


def _leibniz_actions(S):
    """The action terms of Leibniz delta on S: the left action of x_0, and
    the right action of x_pos with sign (-1)^{pos+1}."""
    yield S[1:], 0, S[0], 1
    for pos in range(1, len(S)):
        yield S[:pos] + S[pos + 1:], 1, S[pos], -1 if pos % 2 == 0 else 1


def _leibniz_insert(S, pa, pb, k):
    """[x_pa, x_pb]'s coordinate e_k put in slot pa, in place, with sign
    (-1)^pb."""
    return (S[:pa] + (k,) + S[pa + 1:pb] + S[pb + 1:],
            1 if pb % 2 == 0 else -1)


def _emit_coboundary(algebra, families, m, n, tuples, actions, insert
                     ) -> LinearMap:
    """delta_n : C^n -> C^{n+1}, emitted as integer rows.

    Row (S, a) of the matrix is output tuple S and module coordinate a; its
    column (t, b) is input tuple t and module coordinate b.  actions(S)
    yields (t, f, i, sign): the block sign * families[f][i] from t.
    insert(S, pa, pb, k) gives (t, sign) for the coordinate e_k of the
    bracket of slots pa < pb, or None, which contributes sign * that
    coordinate times the identity block from t.  Every term is an integer on
    one common denominator D, the lcm of the denominators of the action
    matrices' and the structure constants' integer views (over F_p these
    are residues and D is 1), and `_from_ints` makes the rows the matrix's
    canonical integer view.
    """
    dim = algebra.dim
    ins = tuples(dim, n)
    tindex = {t: i for i, t in enumerate(ins)}
    c, dc = algebra.int_structure()
    blocks, D = _common_rows([a for fam in families for a in fam], dc)
    cf = D // dc
    out = []
    for S in tuples(dim, n + 1):
        block = [{} for _ in range(m)]
        for t, f, i, sign in actions(S):
            off = tindex[t] * m
            for row, arow in zip(block, blocks[f * dim + i]):
                for b, v in arow.items():
                    j = off + b
                    row[j] = row.get(j, 0) + sign * v
        for pa in range(n + 1):
            for pb in range(pa + 1, n + 1):
                for k, coef in c[S[pa] * dim + S[pb]].items():
                    hit = insert(S, pa, pb, k)
                    if hit is None:
                        continue
                    t, sign = hit
                    off = tindex[t] * m
                    x = sign * coef * cf
                    for a, row in enumerate(block):
                        j = off + a
                        row[j] = row.get(j, 0) + x
        out.extend(block)
    return LinearMap(_from_ints(algebra.field, out, D, len(ins) * m))


def ce_coboundary_matrix(g, M: Representation, n: int) -> LinearMap:
    """Matrix of the CE coboundary C^n -> C^{n+1} on the increasing-tuple basis.

    First sum: signed module action terms; second sum: bracket insertion in
    the first slot, resorted into increasing order.  Degree 0 is the map
    m -> (x -> [x, m]).
    """
    return _emit_coboundary(g, (M.action,), M.dim, n, ce_tuples, _ce_actions,
                            _ce_insert)


def leibniz_coboundary_matrix(h, M: LeibnizRepresentation, n: int) -> LinearMap:
    """Matrix of the Leibniz coboundary C^n -> C^{n+1} on the tensor basis.

    Terms: left action on the first argument, signed right actions, and
    bracket substitution into the earlier slot.
    """
    return _emit_coboundary(h, (M.left, M.right), M.dim, n, leib_tuples,
                            _leibniz_actions, _leibniz_insert)


def coboundary_matrix(M, n) -> LinearMap:
    """delta_n of the complex of M's flavor over M's algebra."""
    if M.flavor == CE:
        return ce_coboundary_matrix(M.algebra, M, n)
    return leibniz_coboundary_matrix(M.algebra, M, n)


def coboundary(z: Cochain) -> Cochain:
    d = complex_of(z.module).delta(z.degree)
    return Cochain(z.degree + 1, z.module, d.apply(z.vec))


class CochainComplex:
    """The cochain complex C^*(g, M) of a module M over g, of M's flavor.

    Each coboundary delta_n, the echelon form of its rows and the space
    B^n = im delta_{n-1} of n-coboundaries are built on first use and kept
    for the life of the object, which is the life of its module: a module
    has at most one complex, made by `complex_of`, so every class, splice
    and connecting map over one module object shares its delta's.
    `cohomology_table` does not use it and streams delta_n one at a time:
    keeping the table's delta's on the module raised the seed-1 ladder-q
    report's maxrss from 17.74 to 17.86 MB (medians of 8 runs, 2-vCPU host).
    """

    __slots__ = ("module", "_delta", "_echelon", "_boundaries")

    def __init__(self, module):
        self.module = module
        self._delta = {}
        self._echelon = {}
        self._boundaries = {}

    def delta(self, n) -> LinearMap:
        """delta_n : C^n -> C^{n+1}."""
        d = self._delta.get(n)
        if d is None:
            d = self._delta[n] = coboundary_matrix(self.module, n)
        return d

    def echelon(self, n) -> Echelon:
        """The factorization of delta_n's matrix."""
        e = self._echelon.get(n)
        if e is None:
            e = self._echelon[n] = Echelon(self.delta(n).matrix)
        return e

    def coboundaries(self, n) -> Subspace:
        """B^n = im delta_{n-1} inside C^n (the zero space at n = 0)."""
        b = self._boundaries.get(n)
        if b is None:
            if n == 0:
                b = Subspace.zero_space(self.module.algebra.field,
                                        self.module.dim)
            else:
                b = image(self.delta(n - 1))
            self._boundaries[n] = b
        return b

    def dim_h(self, n) -> int:
        """dim H^n = dim C^n - rank delta_n - rank delta_{n-1}."""
        return (self.delta(n).domain_dim - self.echelon(n).rank
                - self.coboundaries(n).dim)

    def check_cocycle(self, z: Cochain, detail=None):
        """Raise NOT_A_COCYCLE unless delta(z) = 0; return the integer view
        of z.vec (see `linalg.Matrix`)."""
        view = _int_vec(self.module.algebra.field, z.vec)
        d = self.delta(z.degree).matrix
        if _reduced(_mul_vec(d._ints[0], view[0]), _modulus(d.field)):
            raise CheckFailure("NOT_A_COCYCLE",
                               detail=detail or f"degree {z.degree}")
        return view


def complex_of(module) -> CochainComplex:
    """The cochain complex of module, built on first use and kept on it."""
    cx = module._complex
    if cx is None:
        cx = module._complex = CochainComplex(module)
    return cx


class CohomologyClass(_Record):
    """A cohomology class with its canonical reduced representative.

    canonical is the representative vector reduced against the RREF basis of
    the coboundary image; two classes agree iff their canonicals agree.
    Its flavor is its module's.
    """

    def __init__(self, degree: int, module, representative: Cochain,
                 coboundary_space: Subspace, canonical: tuple):
        self.__dict__.update(
            degree=degree, module=module, representative=representative,
            coboundary_space=coboundary_space, canonical=canonical)

    @property
    def flavor(self):
        return self.module.flavor

    def is_zero(self):
        return not any(self.canonical)

    def __add__(self, other):
        # the representatives' sum checks that the shapes agree
        return CohomologyClass(self.degree, self.module,
                               self.representative + other.representative,
                               self.coboundary_space,
                               tuple(a + b for a, b in
                                     zip(self.canonical, other.canonical)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CohomologyClass(self.degree, self.module, -self.representative,
                               self.coboundary_space,
                               tuple(-x for x in self.canonical))

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass)
                and self.flavor == other.flavor and self.degree == other.degree
                and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.flavor, self.degree, self.canonical))


def class_of(z: Cochain) -> CohomologyClass:
    """Cohomology class of a cocycle; raises NOT_A_COCYCLE otherwise."""
    cx = complex_of(z.module)
    view = cx.check_cocycle(z)
    b = cx.coboundaries(z.degree)
    return CohomologyClass(z.degree, z.module, z, b,
                           _field_vec(b.field, *b.reduce(view), len(z.vec)))


def cohomology(M, n: int):
    """Dimension of H^n(g, M) for M's algebra g, and a basis of classes with
    cocycle representatives."""
    cx = complex_of(M)
    z = cx.echelon(n).kernel()
    b = cx.coboundaries(n)
    # the classes are the kernel rows that leave the span of B^n and the
    # rows taken before them
    acc = Echelon(b.basis)
    rows, d = z.basis._ints
    classes = [class_of(Cochain(n, M, _field_vec(b.field, row, d,
                                                 b.ambient_dim)))
               for row in rows if acc.extend((row, d))]
    dim_h = z.dim - b.dim
    assert dim_h == len(classes)
    return dim_h, classes


# The most work (`_table_work`) one cohomology table may take on: gl_2 as
# a Leibniz algebra with trivial coefficients needs 145 664 units to degree
# 6 (3.3 s) and 669 956 to degree 7 (54 s and 325 MB).  A unit is about
# 22 us, and an empty table row (past dim g of a CE table) about 50 us.
# The parse holds each algebra to it too (`workspace._algebra_work`).
TABLE_BUDGET = 200_000


def _table_work(M, max_degree):
    """The estimated work of cohomology_table(M, max_degree): 4 units per
    row of the table, and n + 1 (the tuple length) per row of each delta_n,
    which has |C^{n+1}| = C(dim g, n + 1) dim M (CE) or (dim g)^{n+1} dim M
    (Leibniz) rows.  The sum stops once it passes TABLE_BUDGET or its terms
    vanish, so its steps do not grow with max_degree."""
    g, m = M.algebra.dim, M.dim
    work = 4 * (max_degree + 1)
    for k in range(1, max_degree + 2):
        rows = (math.comb(g, k) if M.flavor == CE else g ** k) * m
        if not rows or work > TABLE_BUDGET:
            break
        work += k * rows
    return work


def cohomology_table(M, max_degree: int):
    """Rows (degree, dim C^n, rank delta_n, dim H^n) for n = 0..max_degree;
    BUDGET_EXCEEDED, before any delta, if `_table_work` passes the budget."""
    if _table_work(M, max_degree) > TABLE_BUDGET:
        raise CheckFailure("BUDGET_EXCEEDED", max_degree,
                           f"over the work budget of {TABLE_BUDGET}")
    rows = []
    prev_rank = 0
    for n in range(max_degree + 1):
        d_n = coboundary_matrix(M, n)
        dim_c = d_n.domain_dim
        rank_n = rank(d_n)
        rows.append((n, dim_c, rank_n, dim_c - rank_n - prev_rank))
        prev_rank = rank_n
    return rows


def h0_invariants(M) -> Subspace:
    """Kernel of the stacked action matrices (the left ones of a Leibniz
    module): {m | [x, m] = 0 for all x}."""
    stacked = Matrix.zero(M.algebra.field, 0, M.dim)
    for a in sides(M)[0][1]:
        stacked = stacked.vstack(a)
    return kernel(LinearMap(stacked))


def coboundary_witness(z: Cochain) -> Cochain | None:
    """A cochain b with delta(b) = z when [z] = 0; None when the class is
    nontrivial.  Raises NOT_A_COCYCLE when z is not closed."""
    cx = complex_of(z.module)
    view = cx.check_cocycle(z)
    if z.degree == 0:
        return None if any(z.vec) else z
    sol = cx.echelon(z.degree - 1).solve(view)
    if sol is None:
        return None
    return Cochain(z.degree - 1, z.module, _field_vec(
        cx.module.algebra.field, *sol, cx.delta(z.degree - 1).domain_dim))


class ShortExactSequence(_Record):
    """0 -> M -> M' -> M'' -> 0 of modules over one algebra."""

    def __init__(self, alpha: ModuleMorphism, beta: ModuleMorphism):
        self.__dict__.update(alpha=alpha, beta=beta)

    @property
    def head(self):
        return self.alpha.source

    @property
    def middle(self):
        return self.alpha.target

    @property
    def tail(self):
        return self.beta.target


def validate_ses(ses: ShortExactSequence) -> ShortExactSequence:
    """Exactness of 0 -> head -> middle -> tail -> 0, for alpha and beta
    already validated as module morphisms (as every morphism of a parsed
    workspace is): the middle modules agree, alpha is injective, beta is
    surjective and im(alpha) = ker(beta)."""
    if ses.alpha.target is not ses.beta.source and ses.alpha.target != ses.beta.source:
        raise CheckFailure("BASE_MISMATCH", detail="middle modules differ")
    if kernel(ses.alpha.map).dim != 0:
        raise CheckFailure("EXACTNESS_FAIL", "head", "alpha is not injective")
    if image(ses.beta.map).dim != ses.tail.dim:
        raise CheckFailure("EXACTNESS_FAIL", "tail", "beta is not surjective")
    if image(ses.alpha.map) != kernel(ses.beta.map):
        raise CheckFailure("EXACTNESS_FAIL", "middle", "im(alpha) != ker(beta)")
    return ses


def map_coefficients(phi: ModuleMorphism, z: Cochain) -> Cochain:
    """Push a cochain forward along a module morphism on coefficients."""
    if z.module.dim != phi.source.dim:
        raise ValueError("cochain module mismatch")
    return cochain_from_values(phi.target, z.degree,
                               lambda t: phi.apply(z.value(t)))


def map_class(phi: ModuleMorphism, c: CohomologyClass) -> CohomologyClass:
    return class_of(map_coefficients(phi, c.representative))


def _blocks(v, m, count):
    """The {index: int} cochain vector v cut into its values on count basis
    tuples, m coordinates each, in order."""
    return [{i - t * m: v[i] for i in range(t * m, (t + 1) * m) if i in v}
            for t in range(count)]


def connecting_hom(ses: ShortExactSequence, c: CohomologyClass,
                   lift_rng=None) -> CohomologyClass:
    """Cochain-level snake lemma: lift a representative through beta, apply
    the coboundary in the middle module, pull back through alpha.

    lift_rng, when given, perturbs each lift by a random kernel(beta) element;
    the resulting class must not change (checked by property tests).  All
    of it runs on integer views (see `linalg.Matrix`).
    """
    if c.module is not ses.tail and c.module != ses.tail:
        raise CheckFailure("BASE_MISMATCH",
                           detail="class is not valued in the sequence tail")
    n, field, mid = c.degree, ses.head.algebra.field, ses.middle.dim
    lift_of = Echelon(ses.beta.map.matrix).solve
    rep, dr = _int_vec(field, c.representative.vec)
    lifted = [lift_of((v, dr)) for v in _blocks(rep, c.module.dim,
                                                len(c.representative.tuples()))]
    if None in lifted:
        raise CheckFailure("EXACTNESS_FAIL", "tail", "beta is not surjective")
    K, dk = kernel(ses.beta.map).basis._ints
    if lift_rng is not None and K:
        lifted = [(_sum([(dk, x)] + [(lift_rng.randint(-3, 3) * dv, row)
                                     for row in K]), dv * dk)
                  for x, dv in lifted]
    # the lift on the lcm L of the lifts' denominators, and its coboundary
    L = math.lcm(*(dv for _, dv in lifted))
    lift = {t * mid + i: v * (L // dv)
            for t, (x, dv) in enumerate(lifted) for i, v in x.items()}
    rows, dd = complex_of(ses.middle).delta(n).matrix._ints
    pull_of = Echelon(ses.alpha.map.matrix).solve
    pulled = [pull_of((v, L * dd)) for v in _blocks(
        _mul_vec(rows, lift), mid, len(cochain_tuples(ses.middle, n + 1)))]
    if None in pulled:
        raise CheckFailure("EXACTNESS_FAIL", "middle",
                           "coboundary of lift is not in image(alpha)")
    return class_of(Cochain(n + 1, ses.head, tuple(
        x for m in pulled for x in _field_vec(field, *m, ses.head.dim))))


def abelian_extension_from_2cocycle(Mpp: Representation, alpha: Cochain):
    """The Lie algebra M'' + g, for g the algebra of the Lie module M'',
    with bracket twisted by a 2-cocycle.

    Returns (e, inclusion of M'', projection onto g).  The bracket is
    [(m,x),(n,y)] = ([x,n] - [y,m] + alpha(x,y), [x,y]); its Jacobi identity
    is equivalent to delta(alpha) = 0, which is checked first.
    """
    if Mpp.flavor != CE:
        raise CheckFailure("UNSUPPORTED_FLAVOR", detail="the abelian "
                           "extension of a Leibniz module is not implemented")
    if alpha.module is not Mpp and alpha.module != Mpp:
        raise CheckFailure("BASE_MISMATCH",
                           detail="2-cocycle is not valued in the module")
    if alpha.degree != 2:
        raise CheckFailure("DEGREE_MISMATCH", alpha.degree, "need a 2-cocycle")
    g, m = Mpp.algebra, Mpp.dim
    field, d, n = g.field, g.dim, m + g.dim
    av, da = complex_of(Mpp).check_cocycle(alpha, "delta(alpha) != 0")
    # the structure matrix's integer rows on the lcm D of the denominators
    # of alpha, of the action matrices and of g's constants
    A, dm = _common_rows(Mpp.action)
    gc, dg = g.int_structure()
    D = math.lcm(da, dm, dg)
    rows = [{} for _ in range(n * n)]
    for j in range(d):
        # [f_j, e_i] = rho(f_j) e_i = -[e_i, f_j]
        for i, act in enumerate(_columns(A[j], m)):
            rows[(m + j) * n + i] = {r: D // dm * v for r, v in act.items()}
            rows[i * n + m + j] = {r: -D // dm * v for r, v in act.items()}
    # [f_i, f_j] = alpha(f_i, f_j) + [f_i, f_j]_g, alpha alternating
    pairs = ce_tuples(d, 2)
    for (i, j), value in zip(pairs, _blocks(av, m, len(pairs))):
        rows[(m + i) * n + m + j] = {r: D // da * v for r, v in value.items()}
        rows[(m + j) * n + m + i] = {r: -D // da * v for r, v in value.items()}
    for k, bracket in enumerate(gc):
        rows[(m + k // d) * n + m + k % d].update(
            {m + t: D // dg * v for t, v in bracket.items()})
    e = validate_lie(field, n, _from_ints(field, rows, D, n))
    incl = LinearMap(Matrix.identity(field, m).vstack(
        Matrix.zero(field, d, m)))
    proj = LinearMap(Matrix.zero(field, d, m).hstack(
        Matrix.identity(field, d)))
    return e, incl, proj
