"""Crossed modules over Lie and Leibniz algebras and their classification.

A crossed module (V, L, d) induces g = coker(d) and M = ker(d); the class of
the section-built degree-3 cocycle in H^3(g, M) classifies it up to
equivalence.  Sections are chosen deterministically by pivot order, and
section-independence is a test obligation rather than an assumption.

One code path serves both flavors.  A Lie module is read as a Leibniz
module whose right action is -rho, so theta is one formula (see `theta`),
and the validators walk a module's action families (`algebra.sides`): rho
alone for a Lie module, left then right for a Leibniz one.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailure
from .linalg import (Echelon, LinearMap, Matrix, image, kernel,
                     linear_section, quotient, vec_add, vec_scale, vec_zero,
                     basis_vector)
from .algebra import (LeibnizRepresentation, Representation, bracket_defect,
                      sides, validate_lie, validate_leibniz, validate_module,
                      validate_leibniz_module)
from .cohomology import (CE, LEIBNIZ, Cochain, CochainComplex,
                         CohomologyClass, ShortExactSequence,
                         abelian_extension_from_2cocycle, class_of,
                         cochain_from_values, validate_ses)


@dataclass(frozen=True)
class CrossedModule:
    algebra: object          # L, Lie or Leibniz
    rep: object              # V as an L-module
    partial: LinearMap       # V -> L

    @property
    def flavor(self):
        return LEIBNIZ if self.algebra.flavor == "leibniz" else CE

    def __post_init__(self):
        if self.partial.domain_dim != self.rep.dim or \
                self.partial.codomain_dim != self.algebra.dim:
            raise ValueError("partial has wrong shape")


@dataclass(frozen=True)
class Presentation:
    """A crossed module presented over a fixed pair (g, M): a surjection
    pi : L -> g with kernel im(d) and an embedding incl : M -> V onto ker(d)."""

    cm: CrossedModule
    g: object
    pi: LinearMap
    M: object
    incl: LinearMap


def _adjoint_matrix(algebra, i, side) -> Matrix:
    """Column j is [e_i, e_j], or [e_j, e_i] for the right side."""
    if side == "right":
        cols = [list(algebra.c[j][i]) for j in range(algebra.dim)]
    else:
        cols = [list(algebra.c[i][j]) for j in range(algebra.dim)]
    return Matrix.from_cols(algebra.field, cols, algebra.dim)


def _left_right(V, vecs):
    """The left and right action matrices of each vector.  A Lie module is
    a Leibniz module whose right action is -rho."""
    acts = [[of(x) for x in vecs] for _, _, of in sides(V)]
    return acts[0], acts[1] if len(acts) == 2 else [-a for a in acts[0]]


def validate_crossed(cm: CrossedModule) -> CrossedModule:
    """Validate V as an L-module, then the crossed-module axioms."""
    if cm.flavor == LEIBNIZ:
        validate_leibniz_module(cm.rep)
    else:
        validate_module(cm.rep)
    return crossed_axioms(cm)


def crossed_axioms(cm: CrossedModule) -> CrossedModule:
    """The crossed-module axioms, equivariance of d and the Peiffer
    identity, for a V already validated as a module of L's flavor (as every
    module of a parsed workspace is)."""
    L, V, d = cm.algebra, cm.rep, cm.partial
    dm = d.matrix
    # d[x, v] = [x, dv], and d[v, x] = [dv, x] for a Leibniz module
    for i in range(L.dim):
        for side, mats, _ in sides(V):
            if dm @ mats[i] != _adjoint_matrix(L, i, side) @ dm:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   side and f"{side} action")
    # [dv, w] = [v, dw]: the left action of dv once per v, the right one of
    # dw once per w; column w of a matrix is its value on e_w
    lefts, rights = _left_right(V, [dm.col(v) for v in range(V.dim)])
    for v in range(V.dim):
        for w in range(V.dim):
            if lefts[v].col(w) != rights[w].col(v):
                raise CheckFailure("PEIFFER_FAIL", (v, w))
    # the loop is bilinear, so for k in ker(d) it gives [dv, k] = [v, dk] = 0
    # and [k, dw] = [dk, w] = 0: im(d) acts trivially on ker(d)
    return cm


def induced_pair(cm: CrossedModule) -> Presentation:
    """The canonical presentation: g = coker(d) on the free coordinates of
    im(d), M = ker(d) in its RREF basis."""
    L, V, d = cm.algebra, cm.rep, cm.partial
    field = L.field
    leib = cm.flavor == LEIBNIZ
    im = image(d)
    # im(d) must be a two-sided ideal for the quotient bracket to descend
    for i in range(L.dim):
        ei = basis_vector(field, L.dim, i)
        for b in im.basis.data:
            if not (im.contains(L.bracket(ei, b))
                    and im.contains(L.bracket(b, ei))):
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   "image of partial is not an ideal")
    proj, sect, qdim = quotient(L.dim, im)
    svecs = [sect.matrix.col(j) for j in range(qdim)]
    structure = [[proj.apply(L.bracket(svecs[i], svecs[j]))
                  for j in range(qdim)] for i in range(qdim)]
    if leib:
        g = validate_leibniz(field, qdim, structure)
    else:
        g = validate_lie(field, qdim, structure)
    ker = kernel(d)
    mdim = ker.dim
    # the whole left family is induced before the right one, so a failure in
    # it is reported first, whatever its index
    families = []
    for _, _, of in sides(V):
        mats = []
        for u in range(qdim):
            act = of(svecs[u])
            cols = []
            for krow in ker.basis.data:
                coords = ker.coordinates(act.apply(krow))
                if coords is None:
                    raise CheckFailure("EQUIVARIANCE_FAIL", (u,),
                                       "kernel is not stable under the action")
                cols.append(list(coords))
            mats.append(Matrix.from_cols(field, cols, mdim))
        families.append(mats)
    if leib:
        M = validate_leibniz_module(LeibnizRepresentation(g, mdim, *families))
    else:
        M = validate_module(Representation(g, mdim, *families))
    incl = LinearMap(Matrix.from_cols(field, [list(r) for r in ker.basis.data],
                                      V.dim))
    return Presentation(cm, g, proj, M, incl)


def validate_presentation(p: Presentation) -> Presentation:
    cm, g = p.cm, p.g
    L, V, d = cm.algebra, cm.rep, cm.partial
    if image(p.pi).dim != g.dim:
        raise CheckFailure("EXACTNESS_FAIL", "g", "pi is not surjective")
    if kernel(p.pi) != image(d):
        raise CheckFailure("EXACTNESS_FAIL", "L", "ker(pi) != im(partial)")
    pair = bracket_defect(p.pi, L, g)
    if pair is not None:
        raise CheckFailure("SQUARE_FAIL", pair, "pi is not an algebra map")
    if kernel(p.incl).dim != 0:
        raise CheckFailure("EXACTNESS_FAIL", "M", "incl is not injective")
    if image(p.incl) != kernel(d):
        raise CheckFailure("EXACTNESS_FAIL", "V", "im(incl) != ker(partial)")
    s = linear_section(p.pi)
    im = p.incl.matrix
    for u in range(g.dim):
        sv = s.matrix.col(u)
        for (side, mats, _), (_, _, of) in zip(sides(p.M), sides(V)):
            if im @ mats[u] != of(sv) @ im:
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,),
                                   f"{side} action on kernel".lstrip())
    return p


def choose_sections(pres: Presentation):
    """Deterministic pivot-based sections s of pi and q of partial."""
    return linear_section(pres.pi), linear_section(pres.cm.partial)


def perturbed_sections(pres: Presentation, rng):
    """An alternative valid section pair: s is shifted by a random map into
    im(partial), q by a random map into ker(partial)."""
    s, q = choose_sections(pres)
    cm = pres.cm
    field = cm.algebra.field

    def shifted(mat, space):
        """mat plus a random map into space, one column at a time."""
        for j in range(mat.cols):
            off = vec_zero(field, mat.rows)
            for row in space.basis.data:
                off = vec_add(off, vec_scale(field.of(rng.randint(-3, 3)), row))
            mat = mat + Matrix.from_cols(
                field, [list(off) if t == j else [field.zero] * mat.rows
                        for t in range(mat.cols)], mat.rows)
        return LinearMap(mat)

    return (shifted(s.matrix, image(cm.partial)),
            shifted(q.matrix, kernel(cm.partial)))


def _check_sections(pres: Presentation, s: LinearMap, q: LinearMap):
    cm = pres.cm
    if pres.pi.compose(s) != LinearMap.identity(cm.algebra.field, pres.g.dim):
        raise CheckFailure("SECTION_MISMATCH", None, "pi . s != id")
    # d q = id on im(d), which the columns of d span: d q d = d
    if cm.partial.compose(q).compose(cm.partial) != cm.partial:
        raise CheckFailure("SECTION_MISMATCH", None,
                           "partial . q != id on im(partial)")


def _g2_table(pres, s, q):
    """g2(x, y) = q([s x, s y] - s [x, y]) on all basis pairs, valued in V."""
    L, g = pres.cm.algebra, pres.g
    svecs = [s.matrix.col(u) for u in range(g.dim)]
    table = {}
    for i in range(g.dim):
        for j in range(g.dim):
            br = L.bracket(svecs[i], svecs[j])
            br = tuple(a - b for a, b in zip(br, s.apply(g.c[i][j])))
            table[(i, j)] = q.apply(br)
    return svecs, table


def _kernel_puller(pres):
    """The map from a value in ker(partial) to its coordinates in M, by one
    factorization of incl."""
    solve = Echelon(pres.incl.matrix).solve

    def pull(val):
        m = solve(val)
        if m is None:
            raise CheckFailure("PEIFFER_FAIL", None,
                               "theta value is outside ker(partial)")
        return m
    return pull


def theta(pres: Presentation, s: LinearMap | None = None,
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
    """
    if s is None or q is None:
        s, q = choose_sections(pres)
    _check_sections(pres, s, q)
    cm, g, V = pres.cm, pres.g, pres.cm.rep
    field = g.field
    svecs, g2 = _g2_table(pres, s, q)
    lefts, rights = _left_right(V, svecs)
    pull = _kernel_puller(pres)

    # g2(-, e_k) and g2(e_i, -) as lists of values on the basis
    by_second = [[g2[(a, k)] for a in range(g.dim)] for k in range(g.dim)]
    by_first = [[g2[(i, a)] for a in range(g.dim)] for i in range(g.dim)]

    def lin(uvec, vecs):
        out = vec_zero(field, V.dim)
        for coef, vec in zip(uvec, vecs):
            if coef:
                out = vec_add(out, vec_scale(coef, vec))
        return out

    def value(t):
        i, j, k = t
        val = lefts[i].apply(g2[(j, k)])
        val = vec_add(val, rights[j].apply(g2[(i, k)]))
        val = tuple(a - b for a, b in zip(val, rights[k].apply(g2[(i, j)])))
        val = tuple(a - b for a, b in zip(val, lin(g.c[i][j], by_second[k])))
        val = vec_add(val, lin(g.c[i][k], by_second[j]))
        val = vec_add(val, lin(g.c[j][k], by_first[i]))
        if any(cm.partial.apply(val)):
            raise CheckFailure("PEIFFER_FAIL", t, "partial(theta) != 0")
        return pull(val)

    return cochain_from_values(cm.flavor, pres.M, 3, value)


# the Leibniz name of the one theta
leibniz_theta = theta


def classify2(obj, cx: CochainComplex | None = None) -> CohomologyClass:
    """The H^3 class of a crossed module via the canonical sections.  Its
    representative is the classifying cochain theta itself.  cx, when
    given, is the complex of the presentation's (g, M)."""
    pres = induced_pair(obj) if isinstance(obj, CrossedModule) else obj
    return class_of(theta(pres), cx)


@dataclass(frozen=True)
class CrossedMorphism:
    alpha: LinearMap   # V -> V'
    beta: LinearMap    # L -> L'


def check_crossed_morphism(cm: CrossedModule, cm2: CrossedModule,
                           phi: CrossedMorphism,
                           pres: Presentation | None = None,
                           pres2: Presentation | None = None,
                           require_identity: bool = False) -> CrossedMorphism:
    L = cm.algebra
    a = phi.alpha.matrix
    if phi.beta.matrix @ cm.partial.matrix != cm2.partial.matrix @ a:
        raise CheckFailure("SQUARE_FAIL", None, "partial' . alpha != beta . partial")
    pair = bracket_defect(phi.beta, L, cm2.algebra)
    if pair is not None:
        raise CheckFailure("SQUARE_FAIL", pair, "beta is not an algebra map")
    for i in range(L.dim):
        bi = phi.beta.matrix.col(i)
        for (side, mats, _), (_, _, of) in zip(sides(cm.rep), sides(cm2.rep)):
            if a @ mats[i] != of(bi) @ a:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   side and f"{side} action")
    if require_identity:
        if pres is None or pres2 is None:
            raise ValueError("identity check needs both presentations")
        if pres2.pi.compose(phi.beta) != pres.pi:
            raise CheckFailure("NOT_IDENTITY_ON_G")
        if phi.alpha.matrix @ pres.incl.matrix != pres2.incl.matrix:
            raise CheckFailure("NOT_IDENTITY_ON_M")
    return phi


def yoneda_crossed_module(ses: ShortExactSequence, ext2: Cochain,
                          cx: CochainComplex | None = None) -> Presentation:
    """Splice a short exact sequence of g-modules with the abelian extension
    of a 2-cocycle valued in the quotient module.

    The result is a crossed module presented over (g, M) whose H^3 class is
    the connecting image of the 2-class (checked as an acceptance property).
    cx, when given, is the CE complex of (g, M''), where the 2-cocycle lives.
    """
    validate_ses(ses)
    g = ses.head.algebra
    field = g.field
    if ext2.module.dim != ses.tail.dim:
        raise ValueError("2-cocycle must be valued in the tail module")
    e, _incl_e, proj_e = abelian_extension_from_2cocycle(g, ses.tail, ext2,
                                                         cx)
    mdim = ses.tail.dim
    zero_act = [Matrix.zero(field, ses.middle.dim, ses.middle.dim)
                for _ in range(mdim)]
    V = Representation(e, ses.middle.dim,
                       zero_act + [ses.middle.action[i] for i in range(g.dim)])
    mu_cols = []
    for v in range(ses.middle.dim):
        bv = ses.beta.matrix.col(v)
        mu_cols.append(list(bv) + [field.zero] * g.dim)
    mu = LinearMap(Matrix.from_cols(field, mu_cols, e.dim))
    cm = CrossedModule(e, V, mu)
    validate_crossed(cm)
    pres = Presentation(cm, g, proj_e, ses.head, ses.alpha.map)
    validate_presentation(pres)
    return pres


def zero_crossed_module(g, M) -> Presentation:
    """0 -> M = M -> g = g -> 0 with the zero boundary map."""
    field = g.field
    cm = CrossedModule(g, M, LinearMap.zero(field, M.dim, g.dim))
    return Presentation(cm, g, LinearMap.identity(field, g.dim), M,
                        LinearMap.identity(field, M.dim))


def negate_crossed(pres: Presentation) -> Presentation:
    """Flip the sign of the head embedding; classifies to the negated class."""
    return Presentation(pres.cm, pres.g, pres.pi, pres.M, -pres.incl)
