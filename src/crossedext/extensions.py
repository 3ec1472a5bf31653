"""Crossed n-fold extensions: pushouts, pushforwards, sums, and splicing.

An extension is the exact chain 0 -> M -> M_{n-1} -> ... -> M_1 -> L -> g -> 0
with a crossed module (M_1, L, d_1) at the base.  Exactness is never assumed:
every constructor's output goes back through validate_extension in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CheckFailure
from .linalg import (LinearMap, Matrix, Subspace, block_diag, image, kernel,
                     linear_section, quotient, solve)
from .algebra import (ModuleMorphism, Representation, bracket_defect,
                      direct_sum_reps, trivial_rep, validate_lie,
                      validate_module, validate_morphism)
from .cohomology import ShortExactSequence, validate_ses
from .crossed import (CrossedModule, CrossedMorphism, Presentation,
                      check_crossed_morphism, crossed_axioms,
                      validate_crossed, validate_presentation)


@dataclass(frozen=True)
class PushoutData:
    """(B (+) C)/S with S the antidiagonal graph of the two legs."""

    D: Representation
    i: ModuleMorphism        # B -> D
    j: ModuleMorphism        # C -> D
    proj: LinearMap          # B (+) C -> D
    sect: LinearMap          # D -> B (+) C
    f: ModuleMorphism
    g: ModuleMorphism


def _quotient_module(alg, f: Matrix, g: Matrix, actions, detail):
    """(B (+) C)/S for S = {(f x, -g x)}, the antidiagonal graph of two maps
    f : A -> B and g : A -> C, as a module over alg whose basis vector u
    acts on B (+) C by actions[u].  Returns (module, proj, sect); a
    relation that some action moves out of S is a failure with detail."""
    field = alg.field
    graph = f.vstack(-g)
    S = Subspace.from_rows(field, graph.rows,
                           [graph.col(a) for a in range(graph.cols)])
    proj, sect, qdim = quotient(graph.rows, S)
    induced = []
    for u, big in enumerate(actions):
        for srow in S.basis.data:
            if not S.contains(big.apply(srow)):
                raise CheckFailure("EQUIVARIANCE_FAIL", (u,), detail)
        induced.append(proj.matrix @ big @ sect.matrix)
    return validate_module(Representation(alg, qdim, induced)), proj, sect


def pushout(f: ModuleMorphism, g: ModuleMorphism) -> PushoutData:
    """Pushout of two module morphisms out of the same source."""
    if f.source != g.source:
        raise CheckFailure("BASE_MISMATCH", detail="pushout legs differ at source")
    validate_morphism(f)
    validate_morphism(g)
    B, C = f.target, g.target
    alg = B.algebra
    field = alg.field
    D, proj, sect = _quotient_module(
        alg, f.matrix, g.matrix,
        (block_diag(B.action[u], C.action[u]) for u in range(alg.dim)),
        "graph subspace is not a submodule")
    emb_b = Matrix.identity(field, B.dim).vstack(Matrix.zero(field, C.dim, B.dim))
    emb_c = Matrix.zero(field, B.dim, C.dim).vstack(Matrix.identity(field, C.dim))
    i = ModuleMorphism(B, D, proj.matrix @ emb_b)
    j = ModuleMorphism(C, D, proj.matrix @ emb_c)
    validate_morphism(i)
    validate_morphism(j)
    return PushoutData(D, i, j, proj, sect, f, g)


def mediate(pd: PushoutData, i_prime: LinearMap, j_prime: LinearMap) -> LinearMap:
    """The unique map out of the pushout: (b, c) + S -> i'(b) + j'(c)."""
    if i_prime.matrix @ pd.f.matrix != j_prime.matrix @ pd.g.matrix:
        raise CheckFailure("COCONE_MISMATCH")
    return LinearMap(i_prime.matrix.hstack(j_prime.matrix) @ pd.sect.matrix)


@dataclass(frozen=True)
class CrossedExtension:
    """0 -> M -> M_{n-1} -> ... -> M_2 -> M_1 -> L -> g -> 0.

    mids holds the g-modules M_{n-1} down to M_2 (n-2 of them); partials the
    maps leaving them, ending with d_2 : M_2 -> M_1 = base.rep.
    """

    n: int
    g: object
    M: Representation
    f: LinearMap                 # M -> M_{n-1}
    mids: tuple                  # Representations over g
    partials: tuple              # LinearMaps, one per mid
    base: CrossedModule          # (M_1, L, d_1)
    pi: LinearMap                # L -> g

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("crossed extensions start at length 3; "
                             "length 2 is a presented crossed module")
        if len(self.mids) != self.n - 2 or len(self.partials) != self.n - 2:
            raise ValueError("chain length inconsistent with n")


def validate_extension(E: CrossedExtension) -> CrossedExtension:
    g = E.g
    try:
        validate_crossed(E.base)
    except CheckFailure as exc:
        raise CheckFailure("BASE_NOT_CROSSED", exc.witness, str(exc)) from exc
    # pi is a surjective algebra map with kernel im(d_1)
    if image(E.pi).dim != g.dim:
        raise CheckFailure("EXACTNESS_FAIL", "g", "pi is not surjective")
    if kernel(E.pi) != image(E.base.partial):
        raise CheckFailure("EXACTNESS_FAIL", "L", "ker(pi) != im(d_1)")
    if bracket_defect(E.pi, E.base.algebra, g) is not None:
        raise CheckFailure("EXACTNESS_FAIL", "L", "pi is not an algebra map")
    validate_module(E.M)
    for mid in E.mids:
        validate_module(mid)
    # equivariance of the chain maps
    try:
        validate_morphism(ModuleMorphism(E.M, E.mids[0], E.f.matrix))
    except CheckFailure as exc:
        raise CheckFailure("NOT_G_MODULE_MAP", E.n, str(exc)) from exc
    for idx in range(len(E.partials) - 1):
        try:
            validate_morphism(ModuleMorphism(E.mids[idx], E.mids[idx + 1],
                                             E.partials[idx].matrix))
        except CheckFailure as exc:
            raise CheckFailure("NOT_G_MODULE_MAP", E.n - 1 - idx, str(exc)) from exc
    # d_2 : M_2 -> M_1 is g-equivariant through any section of pi
    d2 = E.partials[-1]
    s = linear_section(E.pi)
    V = E.base.rep
    M2 = E.mids[-1]
    for u in range(g.dim):
        if d2.matrix @ M2.action[u] != \
                V.action_of(s.matrix.col(u)) @ d2.matrix:
            raise CheckFailure("NOT_G_MODULE_MAP", 2, f"basis vector {u}")
    # exactness node by node
    if kernel(E.f).dim != 0:
        raise CheckFailure("EXACTNESS_FAIL", "M", "head map is not injective")
    if image(E.f) != kernel(E.partials[0]):
        raise CheckFailure("EXACTNESS_FAIL", f"M_{E.n - 1}")
    for idx in range(len(E.partials) - 1):
        if image(E.partials[idx]) != kernel(E.partials[idx + 1]):
            raise CheckFailure("EXACTNESS_FAIL", f"M_{E.n - 2 - idx}")
    if image(E.partials[-1]) != kernel(E.base.partial):
        raise CheckFailure("EXACTNESS_FAIL", "M_1")
    return E


@dataclass(frozen=True)
class ExtensionMorphism:
    alpha: LinearMap     # M -> M'
    mids: tuple          # one LinearMap per mid module
    crossed: CrossedMorphism   # (delta_1 : M_1 -> M_1', beta : L -> L')


def check_extension_morphism(E: CrossedExtension, E2: CrossedExtension,
                             mor: ExtensionMorphism) -> ExtensionMorphism:
    if E.n != E2.n:
        raise CheckFailure("LENGTH_MISMATCH")
    if E.g != E2.g:
        raise CheckFailure("BASE_MISMATCH", detail="different base algebra")
    if E2.f.matrix @ mor.alpha.matrix != mor.mids[0].matrix @ E.f.matrix:
        raise CheckFailure("SQUARE_FAIL", "head")
    for idx in range(len(E.partials) - 1):
        if E2.partials[idx].matrix @ mor.mids[idx].matrix != \
                mor.mids[idx + 1].matrix @ E.partials[idx].matrix:
            raise CheckFailure("SQUARE_FAIL", f"M_{E.n - 1 - idx}")
    if E2.partials[-1].matrix @ mor.mids[-1].matrix != \
            mor.crossed.alpha.matrix @ E.partials[-1].matrix:
        raise CheckFailure("SQUARE_FAIL", "M_2")
    check_crossed_morphism(E.base, E2.base, mor.crossed)
    if E2.pi.compose(mor.crossed.beta) != E.pi:
        raise CheckFailure("NOT_IDENTITY_ON_G")
    validate_morphism(ModuleMorphism(E.M, E2.M, mor.alpha.matrix))
    for idx, delta in enumerate(mor.mids):
        validate_morphism(ModuleMorphism(E.mids[idx], E2.mids[idx], delta.matrix))
    return mor


def zero_extension(g, M: Representation, n: int) -> CrossedExtension:
    """0 -> M = M -> 0 -> ... -> 0 -> g = g -> 0."""
    field = g.field
    zero_mod = trivial_rep(g, 0)
    mids = (M,) + (zero_mod,) * (n - 3)
    partials = []
    prev_dim = M.dim
    for _ in range(n - 3):
        partials.append(LinearMap.zero(field, prev_dim, 0))
        prev_dim = 0
    base = CrossedModule(g, zero_mod, LinearMap.zero(field, 0, g.dim))
    partials.append(LinearMap.zero(field, prev_dim, 0))
    return CrossedExtension(n, g, M, LinearMap.identity(field, M.dim),
                            mids, tuple(partials), base,
                            LinearMap.identity(field, g.dim))


def negate(E: CrossedExtension) -> CrossedExtension:
    """The inverse class: identical chain with head map -f."""
    return CrossedExtension(E.n, E.g, E.M, -E.f, E.mids, E.partials,
                            E.base, E.pi)


def push_forward(alpha: ModuleMorphism, E: CrossedExtension):
    """The extension alpha E obtained by pushing the head square out.

    Returns (alpha E, the connecting ExtensionMorphism E -> alpha E).
    """
    if alpha.source != E.M:
        raise CheckFailure("BASE_MISMATCH", detail="alpha must start at E's kernel")
    f_mor = ModuleMorphism(E.M, E.mids[0], E.f.matrix)
    pd = pushout(f_mor, alpha)
    if len(E.partials) > 1:
        next_dim = E.mids[1].dim
    else:
        next_dim = E.base.rep.dim
    field = E.g.field
    theta_map = mediate(pd, E.partials[0],
                        LinearMap.zero(field, alpha.target.dim, next_dim))
    newE = CrossedExtension(E.n, E.g, alpha.target, pd.j.map,
                            (pd.D,) + E.mids[1:],
                            (theta_map,) + E.partials[1:],
                            E.base, E.pi)
    ident = lambda rep: LinearMap.identity(field, rep.dim)
    mor = ExtensionMorphism(alpha.map,
                            (pd.i.map,) + tuple(ident(m) for m in E.mids[1:]),
                            CrossedMorphism(ident(E.base.rep),
                                            ident_alg(E.base.algebra, field)))
    return newE, mor


def ident_alg(alg, field):
    return LinearMap.identity(field, alg.dim)


def _fiber_algebra(baseA: CrossedModule, piA: LinearMap,
                   baseB: CrossedModule, piB: LinearMap, g):
    """L x_g L' with componentwise bracket, its embedding into L (+) L',
    and the projection onto g."""
    LA, LB = baseA.algebra, baseB.algebra
    field = g.field
    stacked = piA.matrix.hstack(-piB.matrix)
    F = kernel(LinearMap(stacked))
    fdim = F.dim
    basis = [tuple(r) for r in F.basis.data]

    def split(vec):
        return vec[:LA.dim], vec[LA.dim:]

    structure = []
    for a in range(fdim):
        row = []
        xa, ya = split(basis[a])
        for b in range(fdim):
            xb, yb = split(basis[b])
            w = tuple(LA.bracket(xa, xb)) + tuple(LB.bracket(ya, yb))
            coords = F.coordinates(w)
            if coords is None:
                raise CheckFailure("EXACTNESS_FAIL", "L",
                                   "fiber product is not closed under bracket")
            row.append(coords)
        structure.append(row)
    LF = validate_lie(field, fdim, structure)
    q_cols = [list(piA.apply(split(basis[a])[0])) for a in range(fdim)]
    q = LinearMap(Matrix.from_cols(field, q_cols, g.dim))
    return LF, F, basis, split, q


def _fiber_boundary(F, dA: Matrix, dB: Matrix, details):
    """d (+) d' : V (+) V' -> L (+) L' in the coordinates of the fiber
    product F; a column of d or of d' outside F is a failure with detail
    details[0] or details[1]."""
    d_sum = block_diag(dA, dB)
    cols = []
    for v in range(d_sum.cols):
        coords = F.coordinates(d_sum.col(v))
        if coords is None:
            raise CheckFailure("EXACTNESS_FAIL", "L", details[v >= dA.cols])
        cols.append(list(coords))
    return Matrix.from_cols(F.field, cols, F.dim)


def _fiber_base(baseA, piA, baseB, piB, g):
    """The crossed module (V (+) V', L x_g L', (d, d')) with its projection."""
    LF, F, basis, split, q = _fiber_algebra(baseA, piA, baseB, piB, g)
    VA, VB = baseA.rep, baseB.rep
    action = []
    for a in range(LF.dim):
        xa, ya = split(basis[a])
        action.append(block_diag(VA.action_of(xa), VB.action_of(ya)))
    VV = Representation(LF, VA.dim + VB.dim, action)
    d = _fiber_boundary(F, baseA.partial.matrix, baseB.partial.matrix,
                        ("d_1 misses the fiber", "d_1' misses the fiber"))
    return CrossedModule(LF, VV, LinearMap(d)), q


def sum_over_g(E: CrossedExtension, E2: CrossedExtension) -> CrossedExtension:
    """E (+)_g E': componentwise chain over the fiber product of the bases."""
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
    """E + E' = codiagonal pushforward of the sum over g (n >= 3)."""
    if E.M != E2.M:
        raise CheckFailure("BASE_MISMATCH", detail="different kernel module")
    s = sum_over_g(E, E2)
    field = E.g.field
    nabla = ModuleMorphism(s.M, E.M,
                           Matrix.identity(field, E.M.dim).hstack(
                               Matrix.identity(field, E.M.dim)))
    out, _ = push_forward(nabla, s)
    return out


def baer_sum_n2(presA: Presentation, presB: Presentation) -> Presentation:
    """Baer sum of two crossed modules presented over the same (g, M):
    the vector-space pushout V + V' over the fiber product of the bases."""
    if presA.g != presB.g:
        raise CheckFailure("BASE_MISMATCH", detail="different base algebra")
    if type(presA.M) is not type(presB.M) or presA.M != presB.M:
        raise CheckFailure("BASE_MISMATCH", detail="different kernel module")
    g, M = presA.g, presA.M
    field = g.field
    cmA, cmB = presA.cm, presB.cm
    VA, VB = cmA.rep, cmB.rep
    LF, F, basis, split, q = _fiber_algebra(cmA, presA.pi, cmB, presB.pi, g)
    W, proj, sect = _quotient_module(
        LF, presA.incl.matrix, presB.incl.matrix,
        (block_diag(VA.action_of(x), VB.action_of(y))
         for x, y in map(split, basis)),
        "pushout relation is not stable")
    d_big = _fiber_boundary(F, cmA.partial.matrix, cmB.partial.matrix,
                            ("boundary misses the fiber",) * 2)
    d = LinearMap(d_big @ sect.matrix)
    cm = CrossedModule(LF, W, d)
    # _quotient_module has validated W
    crossed_axioms(cm)
    emb_a = Matrix.identity(field, VA.dim).vstack(Matrix.zero(field, VB.dim, VA.dim))
    j = LinearMap(proj.matrix @ emb_a @ presA.incl.matrix)
    pres = Presentation(cm, g, q, M, j)
    validate_presentation(pres)
    return pres


def split_detect(E: CrossedExtension):
    """An equivariant retraction h : M_{n-1} -> M with h f = id, or None.

    When a witness exists, the induced morphism onto the zero extension is
    constructed and validated before returning."""
    g = E.g
    field = g.field
    M, top = E.M, E.mids[0]
    nun = M.dim * top.dim

    def var(a, b):
        return a * top.dim + b

    rows = []
    rhs = []
    for a in range(M.dim):
        for c in range(M.dim):
            row = [field.zero] * nun
            for b in range(top.dim):
                row[var(a, b)] = E.f.matrix.data[b][c]
            rows.append(row)
            rhs.append(field.one if a == c else field.zero)
    for u in range(g.dim):
        for a in range(M.dim):
            for c in range(top.dim):
                row = [field.zero] * nun
                for b in range(top.dim):
                    row[var(a, b)] = row[var(a, b)] + top.action[u].data[b][c]
                for bb in range(M.dim):
                    row[var(bb, c)] = row[var(bb, c)] - M.action[u].data[a][bb]
                rows.append(row)
                rhs.append(field.zero)
    sol = solve(LinearMap(Matrix(field, rows, cols=nun)), tuple(rhs))
    if sol is None:
        return None
    h = Matrix(field, [[sol[var(a, b)] for b in range(top.dim)]
                       for a in range(M.dim)], cols=top.dim)
    Z = zero_extension(g, M, E.n)
    mor = ExtensionMorphism(
        LinearMap.identity(field, M.dim),
        (LinearMap(h),) + tuple(LinearMap.zero(field, m.dim, 0)
                                for m in E.mids[1:]),
        CrossedMorphism(LinearMap.zero(field, E.base.rep.dim, 0), E.pi))
    check_extension_morphism(E, Z, mor)
    return LinearMap(h)


def opext_connecting(ses: ShortExactSequence, E) -> CrossedExtension:
    """Splice a short exact sequence onto the head: the class-level
    connecting map Opext^n(g, M'') -> Opext^{n+1}(g, M)."""
    validate_ses(ses)
    if isinstance(E, Presentation):
        if E.M != ses.tail:
            raise CheckFailure("BASE_MISMATCH",
                               detail="extension kernel is not the sequence tail")
        d2 = LinearMap(E.incl.matrix @ ses.beta.matrix)
        return CrossedExtension(3, E.g, ses.head, ses.alpha.map,
                                (ses.middle,), (d2,), E.cm, E.pi)
    if E.M != ses.tail:
        raise CheckFailure("BASE_MISMATCH",
                           detail="extension kernel is not the sequence tail")
    head = LinearMap(E.f.matrix @ ses.beta.matrix)
    return CrossedExtension(E.n + 1, E.g, ses.head, ses.alpha.map,
                            (ses.middle,) + E.mids, (head,) + E.partials,
                            E.base, E.pi)
