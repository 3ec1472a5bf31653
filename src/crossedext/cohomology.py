"""Chevalley-Eilenberg and Leibniz cochain complexes and their cohomology.

Cochain bases are ordered lexicographically: increasing index tuples for the
alternating (CE) complex, all index tuples for the Leibniz complex, with the
module basis running fastest.  This fixes every coboundary matrix bit for bit.

Both flavors' coboundaries come from one emitter, `_emit_coboundary`, which
writes delta_n directly as integer rows (`{column: int}` on one common
denominator over Q, residues over F_p) from the integer views of the action
matrices and the structure constants; the flavors differ only in their
cochain tuples and their action and bracket terms.  The matrix's dense rows
are built only if something reads `.data`: rank, elimination, transpose and
apply work on the integer rows.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CheckFailure
from .linalg import (Echelon, LinearMap, Matrix, Subspace, _from_ints,
                     _int_rows, image, kernel, rank, vec_add, vec_scale,
                     vec_sub, vec_zero)
from .algebra import (LeibnizRepresentation, ModuleMorphism, Representation,
                      validate_lie, validate_morphism)

CE = "ce"
LEIBNIZ = "leibniz"


def ce_tuples(dim: int, n: int):
    return tuple(itertools.combinations(range(dim), n))

def leib_tuples(dim: int, n: int):
    return tuple(itertools.product(range(dim), repeat=n))

def cochain_tuples(flavor: str, dim: int, n: int):
    return ce_tuples(dim, n) if flavor == CE else leib_tuples(dim, n)


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


def _flavor_of_module(module) -> str:
    return LEIBNIZ if isinstance(module, LeibnizRepresentation) else CE


@dataclass(frozen=True)
class Cochain:
    """Degree-n cochain with values in a module, stored as one flat vector."""

    flavor: str
    degree: int
    module: object
    vec: tuple

    def __post_init__(self):
        expected = len(self.tuples()) * self.module.dim
        if len(self.vec) != expected:
            raise ValueError(f"cochain vector has length {len(self.vec)}, want {expected}")

    @property
    def algebra(self):
        return self.module.algebra

    def tuples(self):
        return cochain_tuples(self.flavor, self.algebra.dim, self.degree)

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
            return vec_zero(self.algebra.field, self.module.dim)
        v = self.value(st)
        return v if sign == 1 else tuple(-x for x in v)

    def __add__(self, other):
        self._check_like(other)
        return Cochain(self.flavor, self.degree, self.module,
                       vec_add(self.vec, other.vec))

    def __sub__(self, other):
        self._check_like(other)
        return Cochain(self.flavor, self.degree, self.module,
                       vec_sub(self.vec, other.vec))

    def __neg__(self):
        return Cochain(self.flavor, self.degree, self.module,
                       tuple(-x for x in self.vec))

    def _check_like(self, other):
        if (self.flavor, self.degree, self.module.dim) != \
                (other.flavor, other.degree, other.module.dim):
            raise ValueError("cochain shape mismatch")

    def is_zero(self):
        return not any(self.vec)


def cochain_from_values(flavor, module, degree, value_of) -> Cochain:
    """Assemble a cochain from a function mapping basis index tuples to
    module vectors."""
    vec = []
    for t in cochain_tuples(flavor, module.algebra.dim, degree):
        v = tuple(value_of(t))
        if len(v) != module.dim:
            raise ValueError("value of wrong length")
        vec.extend(v)
    return Cochain(flavor, degree, module, tuple(vec))


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
    views = [[_int_rows(a) for a in fam] for fam in families]
    D = math.lcm(dc, *(d for fam in views for _, d in fam))
    blocks = [[rows if d == D else
               [{b: v * (D // d) for b, v in r.items()} for r in rows]
               for rows, d in fam] for fam in views]
    cf = D // dc
    out = []
    for S in tuples(dim, n + 1):
        block = [{} for _ in range(m)]
        for t, f, i, sign in actions(S):
            off = tindex[t] * m
            for row, arow in zip(block, blocks[f][i]):
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


def coboundary_matrix(flavor, algebra, M, n) -> LinearMap:
    if flavor == CE:
        return ce_coboundary_matrix(algebra, M, n)
    return leibniz_coboundary_matrix(algebra, M, n)


def coboundary(z: Cochain) -> Cochain:
    d = coboundary_matrix(z.flavor, z.algebra, z.module, z.degree)
    return Cochain(z.flavor, z.degree + 1, z.module, d.apply(z.vec))


class CochainComplex:
    """The cochain complex C^*(algebra, module) of one flavor.

    Each coboundary delta_n, the echelon form of its rows and the space
    B^n = im delta_{n-1} of n-coboundaries are built on first use and kept
    for the life of the object.  Callers scope that life: a CLI run keeps
    one complex per classified crossed module, the complex of its induced
    (g, M), in the workspace's memo (see cli._classified); other commands
    build at most one per (algebra, module) and drop it when they end.
    Nothing is cached on the algebra, the module or the module namespace.
    """

    __slots__ = ("algebra", "module", "flavor", "_delta", "_echelon",
                 "_boundaries")

    def __init__(self, algebra, module, flavor: str | None = None):
        self.algebra = algebra
        self.module = module
        self.flavor = flavor or _flavor_of_module(module)
        self._delta = {}
        self._echelon = {}
        self._boundaries = {}

    def delta(self, n) -> LinearMap:
        """delta_n : C^n -> C^{n+1}."""
        d = self._delta.get(n)
        if d is None:
            d = self._delta[n] = coboundary_matrix(self.flavor, self.algebra,
                                                   self.module, n)
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
                b = Subspace.zero_space(self.algebra.field, self.module.dim)
            else:
                b = image(self.delta(n - 1))
            self._boundaries[n] = b
        return b

    def dim_h(self, n) -> int:
        """dim H^n = dim C^n - rank delta_n - rank delta_{n-1}."""
        return (self.delta(n).domain_dim - self.echelon(n).rank
                - self.coboundaries(n).dim)

    def check_cocycle(self, z: Cochain):
        """Raise NOT_A_COCYCLE unless delta(z) = 0."""
        if any(self.delta(z.degree).apply(z.vec)):
            raise CheckFailure("NOT_A_COCYCLE", detail=f"degree {z.degree}")


def _complex_for(z: Cochain, cx: CochainComplex | None) -> CochainComplex:
    """cx when it is the complex z lives in; a new one when cx is None."""
    if cx is None:
        return CochainComplex(z.algebra, z.module, z.flavor)
    if cx.flavor != z.flavor or (cx.module is not z.module
                                 and cx.module != z.module):
        raise ValueError("cochain does not live in the given complex")
    return cx


@dataclass(frozen=True)
class CohomologyClass:
    """A cohomology class with its canonical reduced representative.

    canonical is the representative vector reduced against the RREF basis of
    the coboundary image; two classes agree iff their canonicals agree.
    """

    flavor: str
    degree: int
    module: object
    representative: Cochain
    coboundary_space: Subspace
    canonical: tuple

    def is_zero(self):
        return not any(self.canonical)

    def __add__(self, other):
        self._check_like(other)
        return CohomologyClass(self.flavor, self.degree, self.module,
                               self.representative + other.representative,
                               self.coboundary_space,
                               vec_add(self.canonical, other.canonical))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return CohomologyClass(self.flavor, self.degree, self.module,
                               -self.representative, self.coboundary_space,
                               tuple(-x for x in self.canonical))

    def _check_like(self, other):
        if (self.flavor, self.degree, self.module.dim) != \
                (other.flavor, other.degree, other.module.dim):
            raise ValueError("class shape mismatch")

    def __eq__(self, other):
        return (isinstance(other, CohomologyClass)
                and self.flavor == other.flavor and self.degree == other.degree
                and self.canonical == other.canonical)

    def __hash__(self):
        return hash((self.flavor, self.degree, self.canonical))


def class_of(z: Cochain, cx: CochainComplex | None = None) -> CohomologyClass:
    """Cohomology class of a cocycle; raises NOT_A_COCYCLE otherwise.
    cx, when given, is the complex z lives in."""
    cx = _complex_for(z, cx)
    cx.check_cocycle(z)
    b = cx.coboundaries(z.degree)
    return CohomologyClass(z.flavor, z.degree, z.module, z, b, b.reduce(z.vec))


def cohomology(algebra, M, n: int, flavor: str | None = None):
    """Dimension of H^n and a basis of classes with cocycle representatives."""
    cx = CochainComplex(algebra, M, flavor)
    flavor = cx.flavor
    z = cx.echelon(n).kernel()
    b = cx.coboundaries(n)
    classes = []
    # the classes are the kernel rows that leave the span of B^n and the
    # rows taken before them
    acc = Echelon(b.basis)
    for row in z.basis.data:
        if acc.extend(row):
            rep = Cochain(flavor, n, M, tuple(row))
            classes.append(CohomologyClass(flavor, n, M, rep, b, b.reduce(row)))
    dim_h = z.dim - b.dim
    assert dim_h == len(classes)
    return dim_h, classes


def cohomology_table(algebra, M, max_degree: int, flavor: str | None = None):
    """Rows (degree, dim C^n, rank delta_n, dim H^n) for n = 0..max_degree."""
    flavor = flavor or _flavor_of_module(M)
    rows = []
    prev_rank = 0
    for n in range(max_degree + 1):
        d_n = coboundary_matrix(flavor, algebra, M, n)
        dim_c = d_n.domain_dim
        rank_n = rank(d_n)
        rows.append((n, dim_c, rank_n, dim_c - rank_n - prev_rank))
        prev_rank = rank_n
    return rows


def h0_invariants(algebra, M) -> Subspace:
    """Kernel of the stacked action matrices: {m | [x, m] = 0 for all x}."""
    field = algebra.field
    mats = M.left if isinstance(M, LeibnizRepresentation) else M.action
    stacked = Matrix.zero(field, 0, M.dim)
    for a in mats:
        stacked = stacked.vstack(a)
    return kernel(LinearMap(stacked))


def coboundary_witness(z: Cochain) -> Cochain | None:
    """A cochain b with delta(b) = z when [z] = 0; None when the class is
    nontrivial.  Raises NOT_A_COCYCLE when z is not closed."""
    cx = CochainComplex(z.algebra, z.module, z.flavor)
    cx.check_cocycle(z)
    if z.degree == 0:
        return None if any(z.vec) else z
    sol = cx.echelon(z.degree - 1).solve(z.vec)
    if sol is None:
        return None
    return Cochain(z.flavor, z.degree - 1, z.module, sol)


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> M -> M' -> M'' -> 0 of modules over one algebra."""

    alpha: ModuleMorphism
    beta: ModuleMorphism

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
    validate_morphism(ses.alpha)
    validate_morphism(ses.beta)
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
    return cochain_from_values(z.flavor, phi.target, z.degree,
                               lambda t: phi.apply(z.value(t)))


def map_class(phi: ModuleMorphism, c: CohomologyClass) -> CohomologyClass:
    return class_of(map_coefficients(phi, c.representative))


def _values(z: Cochain):
    """The values of z on its basis tuples, in order."""
    m = z.module.dim
    return [z.vec[i * m:(i + 1) * m] for i in range(len(z.tuples()))]


def connecting_hom(ses: ShortExactSequence, c: CohomologyClass,
                   lift_rng=None, cx: CochainComplex | None = None
                   ) -> CohomologyClass:
    """Cochain-level snake lemma: lift a representative through beta, apply
    the coboundary in the middle module, pull back through alpha.

    lift_rng, when given, perturbs each lift by a random kernel(beta) element;
    the resulting class must not change (checked by property tests).  cx,
    when given, is the complex of (algebra, head) the result lives in.
    """
    if c.module.dim != ses.tail.dim:
        raise ValueError("class is not valued in the sequence tail")
    flavor, n = c.flavor, c.degree
    algebra = ses.head.algebra
    ker_beta = kernel(ses.beta.map)
    lift_of = Echelon(ses.beta.map.matrix).solve
    lifted = []
    for value in _values(c.representative):
        v = lift_of(value)
        if v is None:
            raise CheckFailure("EXACTNESS_FAIL", "tail", "beta is not surjective")
        if lift_rng is not None and ker_beta.dim:
            coefs = [algebra.field.of(lift_rng.randint(-3, 3))
                     for _ in range(ker_beta.dim)]
            for coef, row in zip(coefs, ker_beta.basis.data):
                v = vec_add(v, vec_scale(coef, row))
        lifted.append(v)
    lift = Cochain(flavor, n, ses.middle, tuple(x for v in lifted for x in v))
    pull_of = Echelon(ses.alpha.map.matrix).solve
    pulled = []
    for value in _values(coboundary(lift)):
        m = pull_of(value)
        if m is None:
            raise CheckFailure("EXACTNESS_FAIL", "middle",
                               "coboundary of lift is not in image(alpha)")
        pulled.extend(m)
    return class_of(Cochain(flavor, n + 1, ses.head, tuple(pulled)), cx)


def abelian_extension_from_2cocycle(g, Mpp: Representation, alpha: Cochain,
                                    cx: CochainComplex | None = None):
    """The Lie algebra M'' + g with bracket twisted by a 2-cocycle.

    Returns (e, inclusion of M'', projection onto g).  The bracket is
    [(m,x),(n,y)] = ([x,n] - [y,m] + alpha(x,y), [x,y]); its Jacobi identity
    is equivalent to delta(alpha) = 0, which is checked first.  cx, when
    given, is the CE complex of (g, M'').
    """
    if alpha.degree != 2 or alpha.flavor != CE or alpha.module.dim != Mpp.dim:
        raise ValueError("need a degree-2 CE cochain valued in the module")
    if cx is None:
        cx = CochainComplex(g, Mpp, CE)
    elif cx.flavor != CE or cx.module is not Mpp:
        raise ValueError("cx is not the CE complex of the module")
    d2 = cx.delta(2)
    if any(d2.apply(alpha.vec)):
        raise CheckFailure("NOT_A_COCYCLE", detail="delta(alpha) != 0")
    field = g.field
    m, d = Mpp.dim, g.dim
    n = m + d
    zero = vec_zero(field, n)
    structure = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(m):
        for j in range(d):
            act = Mpp.act_basis(j, tuple(field.one if t == i else field.zero
                                         for t in range(m)))
            structure[i][m + j] = tuple(-x for x in act) + vec_zero(field, d)
            structure[m + j][i] = tuple(act) + vec_zero(field, d)
    for i in range(d):
        for j in range(d):
            aval = alpha.value_signed((i, j))
            structure[m + i][m + j] = tuple(aval) + tuple(g.c[i][j])
    e = validate_lie(field, n, structure)
    incl_cols = [[field.one if t == i else field.zero for t in range(n)]
                 for i in range(m)]
    incl = LinearMap(Matrix.from_cols(field, incl_cols, n))
    proj_rows = [[field.one if t == m + i else field.zero for t in range(n)]
                 for i in range(d)]
    proj = LinearMap(Matrix(field, proj_rows, cols=n))
    return e, incl, proj
