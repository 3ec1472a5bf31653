"""Crossed modules over Lie and Leibniz algebras and their classification.

A crossed module (V, L, d) induces g = coker(d) and M = ker(d); the class of
the section-built degree-3 cocycle in H^3(g, M) classifies it up to
equivalence.  Sections are chosen deterministically by pivot order, and
section-independence is a test obligation rather than an assumption.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailure
from .linalg import (Echelon, LinearMap, Matrix, image, kernel,
                     linear_section, quotient, vec_add, vec_scale, vec_zero,
                     basis_vector)
from .algebra import (LeibnizRepresentation, Representation, validate_lie,
                      validate_leibniz, validate_module,
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


def _adjoint_matrix(algebra, i, side="left") -> Matrix:
    if side == "left":
        cols = [list(algebra.c[i][j]) for j in range(algebra.dim)]
    else:
        cols = [list(algebra.c[j][i]) for j in range(algebra.dim)]
    return Matrix.from_cols(algebra.field, cols, algebra.dim)


def validate_crossed(cm: CrossedModule) -> CrossedModule:
    L, V, d = cm.algebra, cm.rep, cm.partial
    leib = cm.flavor == LEIBNIZ
    if leib:
        validate_leibniz_module(V)
    else:
        validate_module(V)
    dm = d.matrix
    for i in range(L.dim):
        if leib:
            # d[x, v] = [x, dv] and d[v, x] = [dv, x]
            if dm @ V.left[i] != _adjoint_matrix(L, i, "left") @ dm:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,), "left action")
            if dm @ V.right[i] != _adjoint_matrix(L, i, "right") @ dm:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,), "right action")
        else:
            if dm @ V.action[i] != _adjoint_matrix(L, i) @ dm:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,))
    # rho(dv) once per v; column w of rho(dv) is rho(dv) applied to e_w
    if leib:
        lefts = [V.left_of(dm.col(v)) for v in range(V.dim)]
        rights = [V.right_of(dm.col(v)) for v in range(V.dim)]
    else:
        acts = [V.action_of(dm.col(v)) for v in range(V.dim)]
    for v in range(V.dim):
        for w in range(V.dim):
            if leib:
                lhs = lefts[v].col(w)                   # [dv, w]
                rhs = rights[w].col(v)                  # [v, dw]
            else:
                lhs = acts[v].col(w)
                rhs = tuple(-x for x in acts[w].col(v))
            if lhs != rhs:
                raise CheckFailure("PEIFFER_FAIL", (v, w))
    # derived: im(d) acts trivially on ker(d)
    ker = kernel(d)
    for lrow in image(d).basis.data:
        for krow in ker.basis.data:
            if leib:
                if any(V.left_of(lrow).apply(krow)):
                    raise CheckFailure("PEIFFER_FAIL", None,
                                       "image acts on kernel from the left")
                if any(V.right_of(lrow).apply(krow)):
                    raise CheckFailure("PEIFFER_FAIL", None,
                                       "image acts on kernel from the right")
            else:
                if any(V.action_of(lrow).apply(krow)):
                    raise CheckFailure("PEIFFER_FAIL", None,
                                       "image acts on kernel")
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
            if not im.contains(L.bracket(ei, b)):
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   "image of partial is not an ideal")
            if not im.contains(L.bracket(b, ei)):
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

    def induced_action(op):
        mats = []
        for u in range(qdim):
            cols = []
            for krow in ker.basis.data:
                w = op(svecs[u], krow)
                coords = ker.coordinates(w)
                if coords is None:
                    raise CheckFailure("EQUIVARIANCE_FAIL", (u,),
                                       "kernel is not stable under the action")
                cols.append(list(coords))
            mats.append(Matrix.from_cols(field, cols, mdim))
        return mats

    if leib:
        left = induced_action(lambda x, m: V.left_of(x).apply(m))
        right = induced_action(lambda x, m: V.right_of(x).apply(m))
        M = validate_leibniz_module(LeibnizRepresentation(g, mdim, left, right))
    else:
        M = validate_module(Representation(
            g, mdim, induced_action(lambda x, m: V.action_of(x).apply(m))))
    incl = LinearMap(Matrix.from_cols(field, [list(r) for r in ker.basis.data],
                                      V.dim))
    return Presentation(cm, g, proj, M, incl)


def validate_presentation(p: Presentation) -> Presentation:
    cm, g = p.cm, p.g
    L, V, d = cm.algebra, cm.rep, cm.partial
    field = L.field
    if image(p.pi).dim != g.dim:
        raise CheckFailure("EXACTNESS_FAIL", "g", "pi is not surjective")
    if kernel(p.pi) != image(d):
        raise CheckFailure("EXACTNESS_FAIL", "L", "ker(pi) != im(partial)")
    for i in range(L.dim):
        for j in range(L.dim):
            ei = basis_vector(field, L.dim, i)
            ej = basis_vector(field, L.dim, j)
            if p.pi.apply(L.bracket(ei, ej)) != \
                    g.bracket(p.pi.apply(ei), p.pi.apply(ej)):
                raise CheckFailure("SQUARE_FAIL", (i, j), "pi is not an algebra map")
    if kernel(p.incl).dim != 0:
        raise CheckFailure("EXACTNESS_FAIL", "M", "incl is not injective")
    if image(p.incl) != kernel(d):
        raise CheckFailure("EXACTNESS_FAIL", "V", "im(incl) != ker(partial)")
    s = linear_section(p.pi)
    im = p.incl.matrix
    for u in range(g.dim):
        sv = s.matrix.col(u)
        if cm.flavor == LEIBNIZ:
            if im @ p.M.left[u] != V.left_of(sv) @ im:
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,), "left action on kernel")
            if im @ p.M.right[u] != V.right_of(sv) @ im:
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,), "right action on kernel")
        else:
            if im @ p.M.action[u] != V.action_of(sv) @ im:
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,), "action on kernel")
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
    im = image(cm.partial)
    ker = kernel(cm.partial)
    smat = s.matrix
    for j in range(smat.cols):
        off = vec_zero(field, cm.algebra.dim)
        for row in im.basis.data:
            off = vec_add(off, vec_scale(field.of(rng.randint(-3, 3)), row))
        smat = smat + Matrix.from_cols(
            field, [list(off) if t == j else [field.zero] * cm.algebra.dim
                    for t in range(smat.cols)], cm.algebra.dim)
    qmat = q.matrix
    for j in range(qmat.cols):
        off = vec_zero(field, cm.rep.dim)
        for row in ker.basis.data:
            off = vec_add(off, vec_scale(field.of(rng.randint(-3, 3)), row))
        qmat = qmat + Matrix.from_cols(
            field, [list(off) if t == j else [field.zero] * cm.rep.dim
                    for t in range(qmat.cols)], cm.rep.dim)
    return LinearMap(smat), LinearMap(qmat)


def _check_sections(pres: Presentation, s: LinearMap, q: LinearMap):
    cm = pres.cm
    if pres.pi.compose(s) != LinearMap.identity(cm.algebra.field, pres.g.dim):
        raise CheckFailure("SECTION_MISMATCH", None, "pi . s != id")
    for row in image(cm.partial).basis.data:
        if cm.partial.apply(q.apply(row)) != tuple(row):
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
    """The classifying 3-cochain of a Lie crossed module, valued in M.

    theta(x,y,z) = [s x, g2(y,z)] - [s y, g2(x,z)] + [s z, g2(x,y)]
                   - g2([x,y],z) + g2([x,z],y) - g2([y,z],x).
    """
    if pres.cm.flavor != CE:
        raise ValueError("theta is the Lie-flavor classifier")
    if s is None or q is None:
        s, q = choose_sections(pres)
    _check_sections(pres, s, q)
    cm, g, V = pres.cm, pres.g, pres.cm.rep
    field = g.field
    svecs, g2 = _g2_table(pres, s, q)
    acts = [V.action_of(sv) for sv in svecs]
    pull = _kernel_puller(pres)

    def g2v(a, b):
        return g2[(a, b)]

    def g2_lin(uvec, k):
        out = vec_zero(field, V.dim)
        for a, coef in enumerate(uvec):
            if coef:
                out = vec_add(out, vec_scale(coef, g2v(a, k)))
        return out

    def value(t):
        i, j, k = t
        val = acts[i].apply(g2v(j, k))
        val = tuple(a - b for a, b in zip(val, acts[j].apply(g2v(i, k))))
        val = vec_add(val, acts[k].apply(g2v(i, j)))
        val = tuple(a - b for a, b in zip(val, g2_lin(g.c[i][j], k)))
        val = vec_add(val, g2_lin(g.c[i][k], j))
        val = tuple(a - b for a, b in zip(val, g2_lin(g.c[j][k], i)))
        if any(cm.partial.apply(val)):
            raise CheckFailure("PEIFFER_FAIL", t, "partial(theta) != 0")
        return pull(val)

    return cochain_from_values(CE, pres.M, 3, value)


def leibniz_theta(pres: Presentation, s: LinearMap | None = None,
                  q: LinearMap | None = None) -> Cochain:
    """The classifying Leibniz 3-cochain:
    theta(x,y,z) = [s x, g2(y,z)] + [g2(x,z), s y] - [g2(x,y), s z]
                   - g2([x,y],z) + g2([x,z],y) + g2(x,[y,z])."""
    if pres.cm.flavor != LEIBNIZ:
        raise ValueError("leibniz_theta needs a Leibniz crossed module")
    if s is None or q is None:
        s, q = choose_sections(pres)
    _check_sections(pres, s, q)
    cm, g, V = pres.cm, pres.g, pres.cm.rep
    field = g.field
    svecs, g2 = _g2_table(pres, s, q)
    lefts = [V.left_of(sv) for sv in svecs]
    rights = [V.right_of(sv) for sv in svecs]
    pull = _kernel_puller(pres)

    def g2_first(uvec, k):
        out = vec_zero(field, V.dim)
        for a, coef in enumerate(uvec):
            if coef:
                out = vec_add(out, vec_scale(coef, g2[(a, k)]))
        return out

    def g2_second(i, uvec):
        out = vec_zero(field, V.dim)
        for a, coef in enumerate(uvec):
            if coef:
                out = vec_add(out, vec_scale(coef, g2[(i, a)]))
        return out

    def value(t):
        i, j, k = t
        val = lefts[i].apply(g2[(j, k)])
        val = vec_add(val, rights[j].apply(g2[(i, k)]))
        val = tuple(a - b for a, b in zip(val, rights[k].apply(g2[(i, j)])))
        val = tuple(a - b for a, b in zip(val, g2_first(g.c[i][j], k)))
        val = vec_add(val, g2_first(g.c[i][k], j))
        val = vec_add(val, g2_second(i, g.c[j][k]))
        if any(cm.partial.apply(val)):
            raise CheckFailure("PEIFFER_FAIL", t, "partial(theta) != 0")
        return pull(val)

    return cochain_from_values(LEIBNIZ, pres.M, 3, value)


def classify2(obj, cx: CochainComplex | None = None) -> CohomologyClass:
    """The H^3 class of a crossed module via the canonical sections.  Its
    representative is the classifying cochain itself: theta, or
    leibniz_theta for a Leibniz crossed module.  cx, when given, is the
    complex of the presentation's (g, M)."""
    pres = induced_pair(obj) if isinstance(obj, CrossedModule) else obj
    th = leibniz_theta(pres) if pres.cm.flavor == LEIBNIZ else theta(pres)
    return class_of(th, cx)


@dataclass(frozen=True)
class CrossedMorphism:
    alpha: LinearMap   # V -> V'
    beta: LinearMap    # L -> L'


def check_crossed_morphism(cm: CrossedModule, cm2: CrossedModule,
                           phi: CrossedMorphism,
                           pres: Presentation | None = None,
                           pres2: Presentation | None = None,
                           require_identity: bool = False) -> CrossedMorphism:
    L, L2 = cm.algebra, cm2.algebra
    field = L.field
    if phi.beta.matrix @ cm.partial.matrix != cm2.partial.matrix @ phi.alpha.matrix:
        raise CheckFailure("SQUARE_FAIL", None, "partial' . alpha != beta . partial")
    for i in range(L.dim):
        for j in range(L.dim):
            ei = basis_vector(field, L.dim, i)
            ej = basis_vector(field, L.dim, j)
            if phi.beta.apply(L.bracket(ei, ej)) != \
                    L2.bracket(phi.beta.apply(ei), phi.beta.apply(ej)):
                raise CheckFailure("SQUARE_FAIL", (i, j), "beta is not an algebra map")
    for i in range(L.dim):
        bi = phi.beta.matrix.col(i)
        if cm.flavor == LEIBNIZ:
            if phi.alpha.matrix @ cm.rep.left[i] != \
                    cm2.rep.left_of(bi) @ phi.alpha.matrix:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,), "left action")
            if phi.alpha.matrix @ cm.rep.right[i] != \
                    cm2.rep.right_of(bi) @ phi.alpha.matrix:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,), "right action")
        else:
            if phi.alpha.matrix @ cm.rep.action[i] != \
                    cm2.rep.action_of(bi) @ phi.alpha.matrix:
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,))
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
