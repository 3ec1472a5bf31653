"""The class layer of `cohomology`, which serves its names: cochains, the
complex of a module, classes, short exact sequences, the connecting map and
abelian extensions.  A lazy module (see `crossedext`): a cohomology table
needs only the coboundary matrices and their ranks."""
from __future__ import annotations

import math

from .errors import CheckFailure
from .linalg import (LinearMap, Matrix, _columns, _common_rows, _echelon,
                     _field_vec, _from_ints, _insert, _int_vec, _mul_vec,
                     _reduced, _sum)
from ._spaces import Echelon, Subspace, image, kernel
from .algebra import CE, LieAlgebra, Representation, validate_lie
from ._maps import ModuleMorphism, sides
from .cohomology import (TABLE_BUDGET, _tuple_count, ce_tuples,
                         coboundary_matrix, leib_tuples)


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


def cochain_tuples(module, n: int):
    """The basis tuples of the n-cochains valued in module."""
    tuples = ce_tuples if module.flavor == CE else leib_tuples
    return tuples(module.algebra.dim, n)


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
        expected = _tuple_count(module, degree) * module.dim
        if len(self.vec) != expected:
            raise ValueError(f"cochain vector has length {len(self.vec)}, want {expected}")

    @property
    def flavor(self):
        return self.module.flavor

    def tuples(self):
        return cochain_tuples(self.module, self.degree)

    def items(self):
        """(tuple, value) for each basis tuple, in order: vec is the values'
        blocks of dim M scalars, one per tuple (see `cochain_from_values`)."""
        m = self.module.dim
        return ((t, self.vec[i * m:(i + 1) * m])
                for i, t in enumerate(self.tuples()))

    def value(self, t):
        t = tuple(t)
        for s, v in self.items():
            if s == t:
                return v
        raise ValueError(f"{t} is not a basis tuple of degree {self.degree}")

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


def _cochain_work(mod, n):
    """The parse's work on a degree-n cochain valued in mod: n plus |C^n|
    tuples of dim M entries each (one unit at least, as the tuples are
    listed even when M is 0), |C^n| = C(dim g, n) for a CE cochain and
    (dim g)^n for a Leibniz one.  A degree past TABLE_BUDGET is over it
    alone, so |C^n| is never formed for a huge n."""
    if n > TABLE_BUDGET:
        return n
    return n + _tuple_count(mod, n) * max(mod.dim, 1)


def cochain_from_values(module, degree, value_of) -> Cochain:
    """Assemble a cochain from a function mapping basis index tuples to
    module vectors."""
    vec = []
    for t in cochain_tuples(module, degree):
        v = tuple(value_of(t))
        if len(v) != module.dim:
            raise ValueError(f"value on {t} has {len(v)} scalars, "
                             f"want {module.dim}")
        vec.extend(v)
    return Cochain(degree, module, tuple(vec))


def coboundary(z: Cochain) -> Cochain:
    d = complex_of(z.module).delta(z.degree)
    return Cochain(z.degree + 1, z.module, d.apply(z.vec))


class CochainComplex:
    """The cochain complex C^*(g, M) of a module M over g, of M's flavor.

    Each coboundary delta_n, the echelon form of its rows and the space
    B^n = im delta_{n-1} of n-coboundaries are built on first use and kept
    for the life of the object.  A module has at most one complex, made by
    `complex_of`, so every class, splice and connecting map over one module
    object shares its delta's; within a run, every module equal to one that
    has a complex (same flavor, algebra structure and action) shares that
    complex, as the delta's depend on the value alone (`complex_of` with
    the run's table, `Workspace.derived`).
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
        if _reduced(_mul_vec(d._ints[0], view[0]), d.field.p):
            raise CheckFailure("NOT_A_COCYCLE",
                               detail=detail or f"degree {z.degree}")
        return view


def derive(table, key, build, *args):
    """The fact a run derives under key: build(*args), made on the first
    call with a key equal to key and kept in table (`Workspace.derived`);
    a build that raises stores nothing, so the next call builds again and
    fails the same way."""
    fact = table.get(key)
    if fact is None:
        fact = table[key] = build(*args)
    return fact


def complex_of(module, table=None) -> CochainComplex:
    """The cochain complex of module, built on first use and kept on it.
    table, when given, is a run's derived facts: a module without a complex
    takes the one of an equal module there, and a complex built here is
    entered in it."""
    cx = module._complex
    if cx is None:
        cx = module._complex = (CochainComplex(module) if table is None else
                                derive(table, module, CochainComplex, module))
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
    # rows taken before them; a row's positive scale leaves its span alone
    p = b.field.p
    acc = _echelon([dict(r) for r in b.basis._ints[0]], p)
    rows, d = z.basis._ints
    classes = [class_of(Cochain(n, M, _field_vec(b.field, row, d,
                                                 b.ambient_dim)))
               for row in rows if _insert(acc, dict(row), p)]
    dim_h = z.dim - b.dim
    assert dim_h == len(classes)
    return dim_h, classes


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
    surjective and im(alpha) = ker(beta).  One elimination per map: by
    rank-nullity, alpha is injective iff dim im(alpha) = dim head, and beta
    surjective iff dim middle - dim ker(beta) = dim tail."""
    if ses.alpha.target is not ses.beta.source and ses.alpha.target != ses.beta.source:
        raise CheckFailure("BASE_MISMATCH", detail="middle modules differ")
    im_alpha = image(ses.alpha.map)
    if im_alpha.dim != ses.head.dim:
        raise CheckFailure("EXACTNESS_FAIL", "head", "alpha is not injective")
    ker_beta = kernel(ses.beta.map)
    if ses.middle.dim - ker_beta.dim != ses.tail.dim:
        raise CheckFailure("EXACTNESS_FAIL", "tail", "beta is not surjective")
    if im_alpha != ker_beta:
        raise CheckFailure("EXACTNESS_FAIL", "middle", "im(alpha) != ker(beta)")
    return ses


def map_coefficients(phi: ModuleMorphism, z: Cochain) -> Cochain:
    """Push a cochain forward along a module morphism on coefficients."""
    if z.module.dim != phi.source.dim:
        raise ValueError("cochain module mismatch")
    value = dict(z.items())
    return cochain_from_values(phi.target, z.degree,
                               lambda t: phi.apply(value[t]))


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
                                                _tuple_count(c.module, n))]
    if None in lifted:
        raise CheckFailure("EXACTNESS_FAIL", "tail", "beta is not surjective")
    if lift_rng is not None:
        K, dk = kernel(ses.beta.map).basis._ints
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
        _mul_vec(rows, lift), mid, _tuple_count(ses.middle, n + 1))]
    if None in pulled:
        raise CheckFailure("EXACTNESS_FAIL", "middle",
                           "coboundary of lift is not in image(alpha)")
    return class_of(Cochain(n + 1, ses.head, tuple(
        x for m in pulled for x in _field_vec(field, *m, ses.head.dim))))


def abelian_extension_from_2cocycle(Mpp: Representation, alpha: Cochain):
    """The Lie algebra M'' + g, for g the algebra of the Lie module M'',
    with bracket twisted by a 2-cocycle.

    Returns (e, inclusion of M'', projection onto g).  The bracket is
    [(m,x),(n,y)] = ([x,n] - [y,m] + alpha(x,y), [x,y]); for a module M''
    its Jacobi identity is delta(alpha) = 0, checked first, unless g has
    some [e_i, e_i] != 0 (over F_2): then `validate_lie` checks e.
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
    gc, dg = g.structure._ints
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
    e = (validate_lie if any(gc[i * d + i] for i in range(d)) else
         LieAlgebra)(field, n, _from_ints(field, rows, D, n))
    incl = LinearMap(Matrix.identity(field, m).vstack(
        Matrix.zero(field, d, m)))
    proj = LinearMap(Matrix.zero(field, d, m).hstack(
        Matrix.identity(field, d)))
    return e, incl, proj
