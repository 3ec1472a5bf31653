"""Crossed modules over Lie and Leibniz algebras and their classification.

A crossed module (V, L, d) induces g = coker(d) and M = ker(d), and is then
the crossed 2-fold extension 0 -> M -> V -> L -> g -> 0; the class of the
section-built degree-3 cocycle in H^3(g, M) classifies it up to
equivalence.  Sections are chosen deterministically by pivot order, and
section-independence is a test obligation rather than an assumption.

One code path serves both flavors, on one module type.  A Lie module is a
Leibniz module whose right action is -rho, so theta is one formula (see
`theta`), and the validators walk a module's action families (`sides`):
rho alone for a Lie module, left then right for a Leibniz one.
"""
from __future__ import annotations

import math

from .errors import CheckFailure
from .linalg import (LinearMap, Matrix, _columns, _field_vec, _from_ints,
                     _mul_rows, _mul_vec, _negated, _reduced, _sum)
from ._spaces import Echelon, image, kernel, linear_section, quotient
from .algebra import (LEIBNIZ, LeibnizAlgebra, LieAlgebra, Representation,
                      validate_module)
from ._maps import (_bracket_view, bracket_defect, equivariance_defect,
                    pulled_back, sides)
from ._classes import (Cochain, CohomologyClass, ShortExactSequence, _Record,
                       abelian_extension_from_2cocycle, class_of,
                       _cochain_work, cochain_from_values, validate_ses)
from .cohomology import TABLE_BUDGET


class CrossedModule(_Record):
    def __init__(self, algebra,             # L, Lie or Leibniz
                 rep,                       # V as an L-module
                 partial: LinearMap):       # V -> L
        self.__dict__.update(algebra=algebra, rep=rep, partial=partial)
        if self.partial.domain_dim != self.rep.dim or \
                self.partial.codomain_dim != self.algebra.dim:
            raise ValueError("partial has wrong shape")

    @property
    def flavor(self):
        return self.rep.flavor


class CrossedExtension(_Record):
    """0 -> M -> M_{n-1} -> ... -> M_2 -> M_1 -> L -> g -> 0, for n >= 2.

    mids holds the g-modules M_{n-1} down to M_2 (n-2 of them); partials the
    maps leaving them, ending with d_2 : M_2 -> M_1 = base.rep.  At n = 2
    both are empty and f embeds M onto ker(d_1): the crossed module base
    presented over (g, M) by pi and f.
    """

    def __init__(self, n: int, g, M: Representation,
                 f: LinearMap,                 # M -> M_{n-1}
                 mids: tuple,                  # Representations over g
                 partials: tuple,              # LinearMaps, one per mid
                 base: CrossedModule,          # (M_1, L, d_1)
                 pi: LinearMap):               # L -> g
        self.__dict__.update(n=n, g=g, M=M, f=f, mids=mids, partials=partials,
                             base=base, pi=pi)
        # no tuple has a negative length, so n < 2 fails here too
        if len(self.mids) != self.n - 2 or len(self.partials) != self.n - 2:
            raise ValueError("chain length inconsistent with n")


def validate_crossed(cm: CrossedModule) -> CrossedModule:
    """Validate V as an L-module of its flavor, then the crossed-module
    axioms."""
    validate_module(cm.rep)
    return crossed_axioms(cm)


def crossed_axioms(cm: CrossedModule) -> CrossedModule:
    """The crossed-module axioms, equivariance of d and the Peiffer
    identity, for a V already validated as a module of L's flavor (as every
    module of a parsed workspace is); a V over another algebra is
    BASE_MISMATCH.

    Both run on integers (mod p over F_p).  d intertwines each action family
    of V with the bracket on that side (`equivariance_defect`), and the
    Peiffer identity compares, for each pair (v, w), column w of the left
    action of dv with column v of the right action of dw (minus rho for a
    Lie module), each on its own denominator (`pulled_back`).  For a Lie
    module the condition rho(dv) w = -rho(dw) v of (v, w) is that of (w, v),
    so only the pairs w >= v are visited, and (v, v) asks rho(dv) v = 0, as
    the bracket [v, w] = rho(dv) w is alternating (2 rho(dv) v = 0 is void
    over F_2).  A Leibniz module takes all pairs."""
    L, V, d = cm.algebra, cm.rep, cm.partial.matrix
    if V.algebra is not L and V.algebra != L:
        raise CheckFailure("BASE_MISMATCH", detail="V is not a module over L")
    # d[x, v] = [x, dv], and d[v, x] = [dv, x] for a Leibniz module
    brackets = [(side, [_bracket_view(L, i, side) for i in range(L.dim)])
                for side, _ in sides(V)]
    hit = equivariance_defect(d, sides(V), brackets)
    if hit:
        raise CheckFailure("EQUIVARIANCE_FAIL", hit[:1],
                           hit[1] and f"{hit[1]} action")
    # [dv, w] = [v, dw]: column w of X[v], the left action of dv, against
    # column v of Y[w], the right action of dw without a Lie module's sign
    acts = [[(da, _columns(rows, V.dim)) for rows, da in views]
            for _, views in pulled_back(V, d)]
    X, Y = acts[0], acts[-1]
    sign = 1 if len(acts) == 2 else -1
    p = L.field.p
    for v, (dx, xc) in enumerate(X):
        if sign < 0 and _reduced(xc[v], p):
            raise CheckFailure("PEIFFER_FAIL", (v, v))
        for w in range(v + 1 if sign < 0 else 0, V.dim):
            dy, yc = Y[w]
            if _reduced(_sum([(dy, xc[w]), (-sign * dx, yc[v])]), p):
                raise CheckFailure("PEIFFER_FAIL", (v, w))
    # the loop is bilinear, so for k in ker(d) it gives [dv, k] = [v, dk] = 0
    # and [k, dw] = [dk, w] = 0: im(d) acts trivially on ker(d)
    return cm


def induced_pair(cm: CrossedModule) -> CrossedExtension:
    """The canonical 2-fold extension: g = coker(d) on the free coordinates of
    im(d), M = ker(d) in its RREF basis, on integer views.  The quotient's
    section sends basis vector u of g to e_{free[u]}: g's bracket is the
    projection of the brackets of free pairs, and u acts on M by the
    action matrix of e_{free[u]}.  For a base past `crossed_axioms`, im(d)
    is checked an ideal, so g is an algebra, and ker(d) stable, on which
    im(d) acts by zero (Peiffer), so M is a g-module."""
    L, V, d = cm.algebra, cm.rep, cm.partial
    field, n = L.field, L.dim
    leib = cm.flavor == LEIBNIZ
    c, dc = L.structure._ints
    im = image(d)
    B, db = im.basis._ints
    # im(d) must be a two-sided ideal for the quotient bracket to descend;
    # in a Lie L, [b, e_i] = -[e_i, b] lies in im(d) with [e_i, b]
    for i in range(n):
        for b in B:
            if not (im.contains((L._bracket({i: 1}, b), db * dc))
                    and (not leib or
                         im.contains((L._bracket(b, {i: 1}), db * dc)))):
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   "image of partial is not an ideal")
    proj, _, qdim = quotient(n, im)
    free = [j for j in range(n) if j not in im.pivots]
    P, dp = proj.matrix._ints
    structure = _from_ints(field, _mul_rows([c[a * n + b] for a in free
                                             for b in free], _columns(P, n)),
                           dp * dc, qdim)
    g = (LeibnizAlgebra if leib else LieAlgebra)(field, qdim, structure)
    ker = kernel(d)
    mdim = ker.dim
    K, dk = ker.basis._ints
    # the whole left family is induced before the right one, so a failure in
    # it is reported first, whatever its index
    families = []
    for _, acts in sides(V):
        mats = []
        for u, a in enumerate(free):
            A, da = acts[a]._ints
            cols = [ker.coordinates((_mul_vec(A, k), da * dk)) for k in K]
            if None in cols:
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,),
                                   "kernel is not stable under the action")
            mats.append(_from_ints(field, _columns([x for x, _ in cols], mdim),
                                   da * dk, mdim))
        families.append(mats)
    M = Representation(g, mdim, *families)
    return CrossedExtension(2, g, M, LinearMap(ker.basis.transpose()), (), (),
                            cm, proj)


def choose_sections(pres: CrossedExtension):
    """Deterministic pivot-based sections s of pi and q of partial."""
    return linear_section(pres.pi), linear_section(pres.base.partial)


def perturbed_sections(pres: CrossedExtension, rng):
    """An alternative valid section pair: s is shifted by a random map into
    im(partial), q by a random map into ker(partial)."""
    s, q = choose_sections(pres)
    cm, field = pres.base, pres.base.algebra.field

    def shifted(mat, space):
        """mat plus a random map into space, drawn one column at a time."""
        coefs = [[rng.randint(-3, 3) for _ in range(space.dim)]
                 for _ in range(mat.cols)]
        return LinearMap(mat + space.basis.transpose() @ Matrix(
            field, coefs, cols=space.dim).transpose())

    return (shifted(s.matrix, image(cm.partial)),
            shifted(q.matrix, kernel(cm.partial)))


def _check_sections(pres: CrossedExtension, s: LinearMap, q: LinearMap):
    cm = pres.base
    if pres.pi.compose(s) != LinearMap.identity(cm.algebra.field, pres.g.dim):
        raise CheckFailure("SECTION_MISMATCH", None, "pi . s != id")
    # d q = id on im(d), which the columns of d span: d q d = d
    if cm.partial.compose(q).compose(cm.partial) != cm.partial:
        raise CheckFailure("SECTION_MISMATCH", None,
                           "partial . q != id on im(partial)")


def _g2_table(pres, s, q):
    """g2(x, y) = q([s x, s y] - s [x, y]) on all basis pairs, valued in V,
    from the integer columns of s and q and the integer structure constants
    of L and g: (table, d), table[(i, j)] = {index: nonzero int} the
    coordinates of g2(e_i, e_j) times d (residues mod p over F_p; d = 1).
    For a Lie crossed module, whose L and g are skew, g2 is skew too: the
    pairs i <= j are computed and g2(e_j, e_i) = -g2(e_i, e_j) filled in.
    A Leibniz one computes all pairs."""
    L, g = pres.base.algebra, pres.g
    p = g.field.p
    c, dc = L.structure._ints
    gc, dg = g.structure._ints
    srows, ds = s.matrix._ints
    qrows, dq = q.matrix._ints
    S, Q = _columns(srows, g.dim), _columns(qrows, L.dim)
    skew = pres.base.flavor != LEIBNIZ
    table = {}
    for i in range(g.dim):
        for j in range(i if skew else 0, g.dim):
            # [s x, s y] on ds^2 dc and s [x, y] on ds dg, both on ds^2 dc dg
            br = _sum([(dg * x * y, c[a * L.dim + b]) for a, x in S[i].items()
                       for b, y in S[j].items()] +
                      [(-ds * dc * z, S[u])
                       for u, z in gc[i * g.dim + j].items()])
            table[i, j] = _reduced(_sum((x, Q[k]) for k, x in br.items()), p)
            if skew and j != i:
                table[j, i] = _negated(table[i, j], p)
    return table, dq * ds * ds * dc * dg


def _kernel_puller(pres):
    """The map from the integer view of a value in ker(partial) to its
    coordinates in M (field elements), by one factorization of f."""
    solve = Echelon(pres.f.matrix).solve
    field, n = pres.M.algebra.field, pres.M.dim

    def pull(val):
        m = solve(val)
        if m is None:
            raise CheckFailure("PEIFFER_FAIL", None,
                               "theta value is outside ker(partial)")
        return _field_vec(field, *m, n)
    return pull


def theta(pres: CrossedExtension, s: LinearMap | None = None,
          q: LinearMap | None = None) -> Cochain:
    """The classifying 3-cochain of a crossed module, valued in M:

    theta(x,y,z) = [s x, g2(y,z)] + [g2(x,z), s y] - [g2(x,y), s z]
                   - g2([x,y],z) + g2([x,z],y) + g2(x,[y,z])

    with g2(x, y) = q([s x, s y] - s [x, y]), evaluated on every triple of a
    Leibniz crossed module.  A Lie module acts on the right by -rho, so
    [g2(x,z), s y] = -[s y, g2(x,z)] and [g2(x,y), s z] = -[s z, g2(x,y)];
    and g2 is exactly antisymmetric, because the brackets of L and g are,
    so g2(x,[y,z]) = -g2([y,z],x).  On the increasing triples of a Lie
    crossed module the formula is therefore the Chevalley-Eilenberg one,

    theta(x,y,z) = [s x, g2(y,z)] - [s y, g2(x,z)] + [s z, g2(x,y)]
                   - g2([x,y],z) + g2([x,z],y) - g2([y,z],x),

    value for value, and the cochain is built on the flavor's triples.

    Each value is summed on integers (mod p over F_p), and partial(theta) = 0
    checked there; only its coordinates in M become field elements.  An
    extension of length n != 2 is a LENGTH_MISMATCH, and one whose
    3-cochains valued in M are over the work budget that the parse holds
    such a cochain to is BUDGET_EXCEEDED, before any section is chosen.
    """
    if pres.n != 2:
        raise CheckFailure("LENGTH_MISMATCH", pres.n, "theta needs n = 2")
    if _cochain_work(pres.M, 3) > TABLE_BUDGET:
        raise CheckFailure("BUDGET_EXCEEDED", 3,
                           f"over the work budget of {TABLE_BUDGET}")
    if s is None or q is None:
        s, q = choose_sections(pres)
    _check_sections(pres, s, q)
    cm, g, V = pres.base, pres.g, pres.base.rep
    p, gdim, n = g.field.p, g.dim, V.dim
    g2, dt = _g2_table(pres, s, q)
    # the action of each s e_u on its denominator, by its integer columns
    acts = [[(da, _columns(rows, n)) for rows, da in views]
            for _, views in pulled_back(V, s.matrix)]
    gc, dg = g.structure._ints
    D = math.lcm(dg, *(da for fam in acts for da, _ in fam))
    # each action on D, and a Lie module's right action is -rho
    sign = 1 if len(acts) == 2 else -1
    lefts = [(D // da, cols) for da, cols in acts[0]]
    rights = [(sign * (D // da), cols) for da, cols in acts[-1]]
    fg = D // dg
    dcols = _columns(cm.partial.matrix._ints[0], n)
    pull = _kernel_puller(pres)

    def value(t):
        i, j, k = t
        (fi, li), (fj, rj), (fk, rk) = lefts[i], rights[j], rights[k]
        acc = _sum([(fi * x, li[a]) for a, x in g2[j, k].items()]
                   + [(fj * x, rj[a]) for a, x in g2[i, k].items()]
                   + [(-fk * x, rk[a]) for a, x in g2[i, j].items()]
                   + [(-fg * x, g2[a, k]) for a, x in gc[i * gdim + j].items()]
                   + [(fg * x, g2[a, j]) for a, x in gc[i * gdim + k].items()]
                   + [(fg * x, g2[i, a]) for a, x in gc[j * gdim + k].items()])
        if _reduced(_sum((x, dcols[v]) for v, x in acc.items()), p):
            raise CheckFailure("PEIFFER_FAIL", t, "partial(theta) != 0")
        return pull((acc, D * dt))

    return cochain_from_values(pres.M, 3, value)


# the Leibniz name of the one theta
leibniz_theta = theta


def classify2(obj) -> CohomologyClass:
    """The H^3 class of a crossed module, or of a 2-fold extension, via the
    canonical sections.  Its representative is the classifying cochain theta
    itself."""
    pres = induced_pair(obj) if isinstance(obj, CrossedModule) else obj
    return class_of(theta(pres))


class CrossedMorphism(_Record):
    def __init__(self, alpha: LinearMap,   # V -> V'
                 beta: LinearMap):         # L -> L'
        self.__dict__.update(alpha=alpha, beta=beta)


def check_crossed_morphism(cm: CrossedModule, cm2: CrossedModule,
                           phi: CrossedMorphism) -> CrossedMorphism:
    a = phi.alpha.matrix
    if phi.beta.matrix @ cm.partial.matrix != cm2.partial.matrix @ a:
        raise CheckFailure("SQUARE_FAIL", None, "partial' . alpha != beta . partial")
    pair = bracket_defect(phi.beta, cm.algebra, cm2.algebra)
    if pair is not None:
        raise CheckFailure("SQUARE_FAIL", pair, "beta is not an algebra map")
    # alpha carries the action of x on V to the action of beta(x) on V'
    hit = equivariance_defect(a, sides(cm.rep),
                              pulled_back(cm2.rep, phi.beta.matrix))
    if hit:
        raise CheckFailure("EQUIVARIANCE_FAIL", hit[:1],
                           hit[1] and f"{hit[1]} action")
    return phi


def yoneda_crossed_module(ses: ShortExactSequence, ext2: Cochain
                          ) -> CrossedExtension:
    """Splice a short exact sequence of g-modules with the abelian extension
    of a 2-cocycle valued in the quotient module.

    The sequence is checked exact and (V, e, mu) validated, so the splice is
    a valid 2-fold extension of g by M, whose H^3 class is the connecting
    image of the 2-class (checked as an acceptance property).
    """
    validate_ses(ses)
    g = ses.head.algebra
    field = g.field
    e, _incl_e, proj_e = abelian_extension_from_2cocycle(ses.tail, ext2)
    mdim = ses.tail.dim
    zero_act = [Matrix.zero(field, ses.middle.dim, ses.middle.dim)
                for _ in range(mdim)]
    V = Representation(e, ses.middle.dim,
                       zero_act + [ses.middle.action[i] for i in range(g.dim)])
    # mu(v) = (beta v, 0) in e = M'' + g
    mu = LinearMap(ses.beta.matrix.vstack(
        Matrix.zero(field, g.dim, ses.middle.dim)))
    cm = CrossedModule(e, V, mu)
    validate_crossed(cm)
    return CrossedExtension(2, g, ses.head, ses.alpha.map, (), (), cm, proj_e)
