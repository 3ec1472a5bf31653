"""Crossed n-fold extensions: pushouts, pushforwards, sums, and splicing.

An extension is the exact chain 0 -> M -> M_{n-1} -> ... -> M_1 -> L -> g -> 0,
n >= 2, with a crossed module (M_1, L, d_1) at the base (`CrossedExtension`,
whose home is `crossed`).  The push-forward, Baer sum and split test have
one body for every n >= 2.  A constructor takes validated objects, checks
the step that decides its construction (its docstring names it) and derives
the rest; the tests hold those postconditions.
"""
from __future__ import annotations

from .errors import CheckFailure
from .linalg import (LinearMap, Matrix, _columns, _from_ints, _lincomb,
                     _mul_vec)
from ._spaces import (block_diag, image, kernel, linear_section, quotient,
                      solve)
from .algebra import LEIBNIZ, LieAlgebra, Representation
from ._maps import (ModuleMorphism, bracket_defect, direct_sum_reps,
                    equivariance_defect, hom_rows, pulled_back, sides,
                    trivial_rep, validate_morphism)
from ._classes import ShortExactSequence, _Record, validate_ses
from .crossed import (CrossedExtension, CrossedModule, CrossedMorphism,
                      check_crossed_morphism)


class PushoutData(_Record):
    """(B (+) C)/S with S the antidiagonal graph of the two legs."""

    def __init__(self, D: Representation,
                 i: ModuleMorphism,        # B -> D
                 j: ModuleMorphism,        # C -> D
                 proj: LinearMap,          # B (+) C -> D
                 sect: LinearMap,          # D -> B (+) C
                 f: ModuleMorphism, g: ModuleMorphism):
        self.__dict__.update(D=D, i=i, j=j, proj=proj, sect=sect, f=f, g=g)


def pushout(f: ModuleMorphism, g: ModuleMorphism) -> PushoutData:
    """Pushout of two module morphisms out of the same source: (B (+) C)/S
    for S = {(f x, -g x)}, the antidiagonal graph of the legs, on which
    basis vector u acts by the block diagonal of its actions on B and C.  A
    relation that some action moves out of S is an EQUIVARIANCE_FAIL; past
    that, S is a submodule of B (+) C, so D is a module and i, j module maps."""
    if f.source != g.source:
        raise CheckFailure("BASE_MISMATCH", detail="pushout legs differ at source")
    B, C = f.target, g.target
    if LEIBNIZ in (B.flavor, C.flavor):
        raise CheckFailure("UNSUPPORTED_FLAVOR", detail="the pushout of "
                           "Leibniz modules is not implemented")
    validate_morphism(f)
    validate_morphism(g)
    alg = B.algebra
    field = alg.field
    graph = f.matrix.vstack(-g.matrix)
    S = image(LinearMap(graph))
    proj, sect, qdim = quotient(graph.rows, S)
    rows, ds = S.basis._ints
    induced = []
    for u in range(alg.dim):
        big = block_diag(B.action[u], C.action[u])
        A, da = big._ints
        for srow in rows:
            if not S.contains((_mul_vec(A, srow), da * ds)):
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,),
                                   "graph subspace is not a submodule")
        induced.append(proj.matrix @ big @ sect.matrix)
    D = Representation(alg, qdim, induced)
    emb_b = Matrix.identity(field, B.dim).vstack(Matrix.zero(field, C.dim, B.dim))
    emb_c = Matrix.zero(field, B.dim, C.dim).vstack(Matrix.identity(field, C.dim))
    i = ModuleMorphism(B, D, proj.matrix @ emb_b)
    j = ModuleMorphism(C, D, proj.matrix @ emb_c)
    return PushoutData(D, i, j, proj, sect, f, g)


def mediate(pd: PushoutData, i_prime: LinearMap, j_prime: LinearMap) -> LinearMap:
    """The unique map out of the pushout: (b, c) + S -> i'(b) + j'(c)."""
    if i_prime.matrix @ pd.f.matrix != j_prime.matrix @ pd.g.matrix:
        raise CheckFailure("COCONE_MISMATCH")
    return LinearMap(i_prime.matrix.hstack(j_prime.matrix) @ pd.sect.matrix)


def validate_extension(E: CrossedExtension) -> CrossedExtension:
    """Exactness and equivariance of the chain of E, for a base already
    validated as a crossed module and M and mids already validated as
    modules (as every crossed module and module of a parsed workspace is):
    pi has shape L -> g and each chain map d_k shape M_k -> M_{k-1} (a
    ValueError otherwise), M and mids are modules over g, pi is a
    surjective algebra map with kernel im(d_1), every chain map is
    g-equivariant, and the chain is exact at every node.  M and the mids
    are of the base's flavor, so the action families of each map pair up,
    or BASE_MISMATCH.  At n = 2 these are the checks that present the
    crossed module base over (g, M).
    An extension of length n >= 3 over a Leibniz base is
    UNSUPPORTED_FLAVOR.

    Each map is eliminated once for its image and once for its kernel, at
    most: by rank-nullity pi is surjective iff dim L - dim ker(pi) = dim g,
    and f injective iff dim im(f) = dim M."""
    if E.n > 2 and E.base.flavor == LEIBNIZ:
        raise CheckFailure("UNSUPPORTED_FLAVOR", detail="crossed extensions "
                           "over a Leibniz algebra are not implemented")
    g = E.g
    # pi : L -> g, shaped as `CrossedModule` holds d_1 : M_1 -> L
    if E.pi.domain_dim != E.base.algebra.dim or E.pi.codomain_dim != g.dim:
        raise ValueError("pi has wrong shape")
    # d_k : M_k -> M_{k-1}, for k = n..2, ending in M_1 = V
    nodes = (E.M, *E.mids, E.base.rep)
    for k, d in enumerate((E.f, *E.partials)):
        if (d.domain_dim, d.codomain_dim) != (nodes[k].dim, nodes[k + 1].dim):
            raise ValueError(f"chain map d_{E.n - k} has wrong shape")
    # M and the mids are modules over g itself of the base's flavor
    for k, mod in enumerate((E.M, *E.mids)):
        if mod.algebra is not g and mod.algebra != g:
            raise CheckFailure("BASE_MISMATCH", f"M_{E.n - k}" if k else "M",
                               "not a module over g")
        if mod.flavor != E.base.flavor:
            raise CheckFailure("BASE_MISMATCH", f"M_{E.n - k}" if k else "M",
                               "not a module of the base's flavor")
    # pi is a surjective algebra map with kernel im(d_1)
    ker_pi = kernel(E.pi)
    if E.pi.domain_dim - ker_pi.dim != g.dim:
        raise CheckFailure("EXACTNESS_FAIL", "g", "pi is not surjective")
    if ker_pi != image(E.base.partial):
        raise CheckFailure("EXACTNESS_FAIL", "L", "ker(pi) != im(d_1)")
    if bracket_defect(E.pi, E.base.algebra, g) is not None:
        raise CheckFailure("EXACTNESS_FAIL", "L", "pi is not an algebra map")
    # the chain M = M_n -> ... -> M_1 -> L; the map leaving M_k is maps[n - k]
    chain, maps = (E.M, *E.mids), (E.f, *E.partials, E.base.partial)
    # equivariance of the maps between g-modules, the one leaving M_k at
    # witness k
    for k, (f, src, tgt) in enumerate(zip(maps, chain, chain[1:])):
        try:
            validate_morphism(ModuleMorphism(src, tgt, f.matrix))
        except CheckFailure as exc:
            raise CheckFailure("NOT_G_MODULE_MAP", E.n - k, str(exc)) from exc
    # the map into M_1, d_2 (f at n = 2), is g-equivariant through any
    # section of pi
    hit = equivariance_defect(maps[-2].matrix, sides(chain[-1]),
                              pulled_back(E.base.rep,
                                          linear_section(E.pi).matrix))
    if hit:
        raise CheckFailure("NOT_G_MODULE_MAP", 2, f"basis vector {hit[0]}"
                           + (hit[1] and f", {hit[1]} action"))
    # exactness node by node; the image of f also decides its injectivity
    im = image(E.f)
    if im.dim != E.M.dim:
        raise CheckFailure("EXACTNESS_FAIL", "M", "head map is not injective")
    for k in range(len(maps) - 1):
        if k:
            im = image(maps[k])
        if im != kernel(maps[k + 1]):
            raise CheckFailure("EXACTNESS_FAIL", f"M_{E.n - 1 - k}")
    return E


class ExtensionMorphism(_Record):
    def __init__(self, alpha: LinearMap,   # M -> M'
                 mids: tuple,              # one LinearMap per mid module
                 # (delta_1 : M_1 -> M_1', beta : L -> L')
                 crossed: CrossedMorphism):
        self.__dict__.update(alpha=alpha, mids=mids, crossed=crossed)


def check_extension_morphism(E: CrossedExtension, E2: CrossedExtension,
                             mor: ExtensionMorphism) -> ExtensionMorphism:
    if E.n != E2.n:
        raise CheckFailure("LENGTH_MISMATCH")
    if E.g != E2.g:
        raise CheckFailure("BASE_MISMATCH", detail="different base algebra")
    # the vertical maps from M down to M_1; square k commutes with the maps
    # leaving M_{n-k}, and is named "head" at k = 0
    verts = (mor.alpha, *mor.mids, mor.crossed.alpha)
    for k, (d, d2) in enumerate(zip((E.f, *E.partials),
                                    (E2.f, *E2.partials))):
        if d2.matrix @ verts[k].matrix != verts[k + 1].matrix @ d.matrix:
            raise CheckFailure("SQUARE_FAIL", f"M_{E.n - k}" if k else "head")
    check_crossed_morphism(E.base, E2.base, mor.crossed)
    if E2.pi.compose(mor.crossed.beta) != E.pi:
        raise CheckFailure("NOT_IDENTITY_ON_G")
    for src, tgt, v in zip((E.M, *E.mids), (E2.M, *E2.mids), verts):
        validate_morphism(ModuleMorphism(src, tgt, v.matrix))
    return mor


def zero_extension(g, M: Representation, n: int) -> CrossedExtension:
    """0 -> M = M -> 0 -> ... -> 0 -> g = g -> 0; at n = 2 the zero
    boundary M -> g."""
    field = g.field
    # M_{n-1} = M, then 0 down to M_1 (which is M at n = 2), all maps zero
    chain = (M,) + (trivial_rep(g, 0),) * (n - 2)
    partials = tuple(LinearMap.zero(field, a.dim, b.dim)
                     for a, b in zip(chain, chain[1:]))
    base = CrossedModule(g, chain[-1], LinearMap.zero(field, chain[-1].dim,
                                                      g.dim))
    return CrossedExtension(n, g, M, LinearMap.identity(field, M.dim),
                            chain[:-1], partials, base,
                            LinearMap.identity(field, g.dim))


def negate(E: CrossedExtension) -> CrossedExtension:
    """The inverse class: identical chain with head map -f."""
    return CrossedExtension(E.n, E.g, E.M, -E.f, E.mids, E.partials,
                            E.base, E.pi)


def _through_pi(rep, E: CrossedExtension):
    """The g-module rep as a module over E's L, acting through pi : L -> g
    (`pulled_back`).  A Leibniz module or base is UNSUPPORTED_FLAVOR: its
    two action families make no Lie module."""
    L = E.base.algebra
    if LEIBNIZ in (rep.flavor, E.base.flavor):
        raise CheckFailure("UNSUPPORTED_FLAVOR", detail="Leibniz modules "
                           "through pi are not implemented")
    (_, views), = pulled_back(rep, E.pi.matrix)
    return Representation(L, rep.dim, [_from_ints(L.field, rows, d, rep.dim)
                                       for rows, d in views])


def push_forward(alpha: ModuleMorphism, E: CrossedExtension):
    """The extension alpha E obtained by pushing the head square out, for
    every n >= 2: the pushout D of f : M -> M_{n-1} and alpha : M -> M'
    replaces M_{n-1}, mapping on by d = (d_old, 0).  At n = 2 M_{n-1} is V,
    M and M' act through pi (`_through_pi`), and (D, L, d) is the new base.
    For a valid E, `pushout` checks alpha, and alpha E is valid: j is
    injective, ker(d) = j(M'), im(d) = im(d_old), and at n = 2 im(d) acts
    on M' through pi d_old = 0.  Returns (alpha E, the connecting
    ExtensionMorphism E -> alpha E).
    """
    if alpha.source != E.M:
        raise CheckFailure("BASE_MISMATCH", detail="alpha must start at E's kernel")
    field, L, two = E.g.field, E.base.algebra, not E.mids
    nodes, maps = (*E.mids, E.base.rep), (*E.partials, E.base.partial)
    src, tgt = ((_through_pi(E.M, E), _through_pi(alpha.target, E)) if two
                else (E.M, alpha.target))
    pd = pushout(ModuleMorphism(src, nodes[0], E.f.matrix),
                 ModuleMorphism(src, tgt, alpha.matrix))
    nodes = (pd.D, *nodes[1:])
    maps = (mediate(pd, maps[0], LinearMap.zero(
        field, tgt.dim, maps[0].codomain_dim)), *maps[1:])
    base = CrossedModule(L, pd.D, maps[0]) if two else E.base
    newE = CrossedExtension(E.n, E.g, alpha.target, pd.j.map, nodes[:-1],
                            maps[:-1], base, E.pi)
    # the vertical maps below M: pd.i on the head node, identities under it
    verts = (pd.i.map, *(LinearMap.identity(field, m.dim) for m in nodes[1:]))
    mor = ExtensionMorphism(alpha.map, verts[:-1], CrossedMorphism(
        verts[-1], ident_alg(L, field)))
    return newE, mor


def ident_alg(alg, field):
    return LinearMap.identity(field, alg.dim)


def _fiber_algebra(baseA: CrossedModule, piA: LinearMap,
                   baseB: CrossedModule, piB: LinearMap, g):
    """L x_g L' with componentwise bracket, its embedding F into L (+) L',
    the halves (x, y) in L and L' of each basis vector of F as integer
    views, and the projection onto g.  Brackets are summed on integers, and
    F is checked closed under those of the Lie L (+) L': a Lie subalgebra."""
    LA, LB = baseA.algebra, baseB.algebra
    field, a = g.field, LA.dim
    F = kernel(LinearMap(piA.matrix.hstack(-piB.matrix)))
    rows, d = F.basis._ints
    halves = [(({j: v for j, v in r.items() if j < a}, d),
               ({j - a: v for j, v in r.items() if j >= a}, d)) for r in rows]
    da, db = LA.structure._ints[1], LB.structure._ints[1]
    dw = d * d * da * db     # both halves of a bracket on dw
    structure = [F.coordinates(({**{j: v * db for j, v in
                                    LA._bracket(xa, xb).items()},
                                 **{j + a: v * da for j, v in
                                    LB._bracket(ya, yb).items()}}, dw))
                 for (xa, _), (ya, _) in halves for (xb, _), (yb, _) in halves]
    if None in structure:
        raise CheckFailure("EXACTNESS_FAIL", "L",
                           "fiber product is not closed under bracket")
    LF = LieAlgebra(field, F.dim, _from_ints(
        field, [x for x, _ in structure], dw, F.dim))
    xs = _from_ints(field, [x for (x, _), _ in halves], d, a)
    q = LinearMap(piA.matrix @ xs.transpose())
    return LF, F, halves, q


def _fiber_boundary(F, dA: Matrix, dB: Matrix):
    """d (+) d' : V (+) V' -> L (+) L' in the coordinates of the fiber
    product F; a column of d or of d' outside F is an EXACTNESS_FAIL."""
    rows, dd = block_diag(dA, dB)._ints
    cols = [F.coordinates((col, dd))
            for col in _columns(rows, dA.cols + dB.cols)]
    if None in cols:
        prime = "'" * (cols.index(None) >= dA.cols)
        raise CheckFailure("EXACTNESS_FAIL", "L", f"d_1{prime} misses the fiber")
    return _from_ints(F.field, _columns([x for x, _ in cols], F.dim), dd,
                      len(cols))


def _fiber_base(baseA, piA, baseB, piB, g):
    """The crossed module (V (+) V', L x_g L', (d, d')) with its projection:
    a fiber basis vector with halves (x, y) acts on V (+) V' by the block
    diagonal of the actions of x on V and y on V'."""
    LF, F, halves, q = _fiber_algebra(baseA, piA, baseB, piB, g)
    VA, VB = baseA.rep, baseB.rep

    def act(V, x):
        return _from_ints(V.algebra.field, *_lincomb(x, V.action, V.dim),
                          V.dim)
    VV = Representation(LF, VA.dim + VB.dim, [
        block_diag(act(VA, x), act(VB, y)) for x, y in halves])
    d = _fiber_boundary(F, baseA.partial.matrix, baseB.partial.matrix)
    return CrossedModule(LF, VV, LinearMap(d)), q


def sum_over_g(E: CrossedExtension, E2: CrossedExtension) -> CrossedExtension:
    """E (+)_g E': componentwise chain over the fiber product of the bases;
    a Leibniz base is UNSUPPORTED_FLAVOR, as the fiber product is built
    as a Lie algebra."""
    if LEIBNIZ in (E.base.flavor, E2.base.flavor):
        raise CheckFailure("UNSUPPORTED_FLAVOR", detail="the Baer sum of "
                           "Leibniz crossed modules is not implemented")
    if E.n != E2.n:
        raise CheckFailure("LENGTH_MISMATCH")
    if E.g != E2.g:
        raise CheckFailure("BASE_MISMATCH", detail="different base algebra")
    base, q = _fiber_base(E.base, E.pi, E2.base, E2.pi, E.g)
    mids = tuple(direct_sum_reps(a, b) for a, b in zip(E.mids, E2.mids))
    partials = tuple(LinearMap(block_diag(a.matrix, b.matrix))
                     for a, b in zip(E.partials, E2.partials))
    M = direct_sum_reps(E.M, E2.M)
    f = LinearMap(block_diag(E.f.matrix, E2.f.matrix))
    return CrossedExtension(E.n, E.g, M, f, mids, partials, base, q)


def baer_sum(E: CrossedExtension, E2: CrossedExtension) -> CrossedExtension:
    """E + E' = the codiagonal push-forward of the sum over g, for every
    n >= 2.  The g and M of the two must agree first, so a pair of mixed
    flavors is a BASE_MISMATCH; a Leibniz pair is UNSUPPORTED_FLAVOR."""
    if E.g != E2.g:
        raise CheckFailure("BASE_MISMATCH", detail="different base algebra")
    if E.M != E2.M:
        raise CheckFailure("BASE_MISMATCH", detail="different kernel module")
    s = sum_over_g(E, E2)
    ident = Matrix.identity(E.g.field, E.M.dim)
    out, _ = push_forward(ModuleMorphism(s.M, E.M, ident.hstack(ident)), s)
    return out


def split_detect(E: CrossedExtension):
    """An equivariant retraction h : M_{n-1} -> M with h f = id, or None,
    for every n >= 2.  At n = 2 M_{n-1} is the base's V, and h is
    equivariant along pi: M acts on V's side through pi (`_through_pi`).

    When a witness exists, the morphism (h, 0, ..., 0; pi) onto
    zero_extension(g, M, n) is constructed and validated before
    returning."""
    field = E.g.field
    nodes = (*E.mids, E.base.rep)
    M, top = E.M, nodes[0]
    nun = M.dim * top.dim

    def var(a, b):
        return a * top.dim + b

    # unknowns h[a][b]: (h f)[a][c] = delta_ac times d_f, and h in Hom_g
    rows, rhs = [], {}
    F, df = E.f.matrix._ints
    Fc = _columns(F, M.dim)
    for a in range(M.dim):
        for c in range(M.dim):
            if a == c:
                rhs[len(rows)] = df
            rows.append({var(a, b): x for b, x in Fc[c].items()})
    rows += hom_rows(top, M if E.mids else _through_pi(M, E))
    sol = solve(LinearMap(_from_ints(field, rows, 1, nun)), (rhs, 1))
    if sol is None:
        return None
    x, dx = sol
    h = LinearMap(_from_ints(field, [{b: x[var(a, b)] for b in range(top.dim)
                                      if var(a, b) in x}
                                     for a in range(M.dim)], dx, top.dim))
    # the vertical maps below M: h on the head node, zero under it
    verts = (h, *(LinearMap.zero(field, m.dim, 0) for m in nodes[1:]))
    mor = ExtensionMorphism(LinearMap.identity(field, M.dim), verts[:-1],
                            CrossedMorphism(verts[-1], E.pi))
    check_extension_morphism(E, zero_extension(E.g, M, E.n), mor)
    return h


def opext_connecting(ses: ShortExactSequence,
                     E: CrossedExtension) -> CrossedExtension:
    """Splice a short exact sequence onto the head: the class-level
    connecting map Opext^n(g, M'') -> Opext^{n+1}(g, M)."""
    validate_ses(ses)
    if E.M != ses.tail:
        raise CheckFailure("BASE_MISMATCH",
                           detail="extension kernel is not the sequence tail")
    head = LinearMap(E.f.matrix @ ses.beta.matrix)
    return CrossedExtension(E.n + 1, E.g, ses.head, ses.alpha.map,
                            (ses.middle,) + E.mids, (head,) + E.partials,
                            E.base, E.pi)
