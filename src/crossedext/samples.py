"""Fixture catalog: small named algebras, modules, and seeded random generators.

Everything here is deterministic given a seed; the property suites draw from
these generators so failures reproduce.
"""
from __future__ import annotations

import itertools
import random

from .algebra import (LieAlgebra, ModuleMorphism, Representation,
                      _skew_defect, adjoint, direct_sum_reps, hom_rows,
                      leibniz_adjoint, leibniz_from_lie, leibniz_rep_from_lie,
                      trivial_rep, validate_leibniz, validate_leibniz_module,
                      validate_lie, validate_module, validate_morphism)
from .cohomology import (Cochain, ShortExactSequence, coboundary_matrix,
                         validate_ses)
from .crossed import (CrossedExtension, CrossedModule, induced_pair,
                      validate_crossed, yoneda_crossed_module)
from .extensions import opext_connecting, zero_extension
from .linalg import (LinearMap, Matrix, Subspace, _columns, _from_ints,
                     kernel, solve_matrix)


# ---------------------------------------------------------------- catalog

def abelian(field, n):
    z = field.zero
    row = [tuple(z for _ in range(n)) for _ in range(n)]
    return validate_lie(field, n, [list(row) for _ in range(n)])


def solvable2(field):
    """[x, y] = y."""
    z, o = field.zero, field.one
    return validate_lie(field, 2, [[(z, z), (z, o)], [(z, -o), (z, z)]])


def heisenberg(field):
    """[x, y] = c, c central."""
    z, o = field.zero, field.one
    zz = (z, z, z)
    return validate_lie(field, 3, [
        [zz, (z, z, o), zz],
        [(z, z, -o), zz, zz],
        [zz, zz, zz]])


def sl2(field):
    """Basis e, f, h with [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    z, o = field.zero, field.one
    t = field.of(2)
    zz = (z, z, z)
    return validate_lie(field, 3, [
        [zz, (z, z, o), (-t, z, z)],
        [(z, z, -o), zz, (z, t, z)],
        [(t, z, z), (z, -t, z), zz]])


def gl(field, n):
    """gl_n on the matrix units: E_ij at index i*n + j, with
    [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    d = n * n
    z, o = field.zero, field.one
    c = [[[z] * d for _ in range(d)] for _ in range(d)]
    for i, j, k, l in itertools.product(range(n), repeat=4):
        a, b = i * n + j, k * n + l
        if j == k:
            c[a][b][i * n + l] += o
        if l == i:
            c[a][b][k * n + j] -= o
    return validate_lie(field, d, c)


def nonlie_leibniz(field):
    """Dim 2, [y, y] = x: a Leibniz algebra that is not Lie."""
    z, o = field.zero, field.one
    zz = (z, z)
    return validate_leibniz(field, 2, [[zz, zz], [zz, (o, z)]])


LIE_CATALOG = ("abelian1", "abelian2", "abelian3", "solvable2",
               "heisenberg", "sl2")


def lie_by_name(field, name):
    if name.startswith("abelian"):
        return abelian(field, int(name[len("abelian"):]))
    return {"solvable2": solvable2, "heisenberg": heisenberg,
            "sl2": sl2}[name](field)


# ------------------------------------------------------- random generators

def random_scalar(field, rng: random.Random):
    if field.p is None:
        return field.of(rng.randint(-3, 3))
    return field.of(rng.randrange(field.p))


def random_invertible(field, n, rng: random.Random) -> Matrix:
    while True:
        m = Matrix(field, [[random_scalar(field, rng) for _ in range(n)]
                           for _ in range(n)], cols=n)
        if kernel(LinearMap(m)).dim == 0:
            return m


def _inverse(m: Matrix) -> Matrix:
    inv = solve_matrix(LinearMap(m), Matrix.identity(m.field, m.rows))
    assert inv is not None
    return inv


def change_basis_lie(g, P: Matrix):
    """Structure constants of g in the basis given by the columns of P: the
    integer brackets of P's columns, as the rows of a structure matrix,
    times the transpose of P^-1."""
    rows, d = P._ints
    cols = _columns(rows, g.dim)
    brackets = _from_ints(g.field, [g._bracket(u, v) for u in cols
                                    for v in cols],
                          g.structure._ints[1] * d * d, g.dim)
    return validate_lie(g.field, g.dim, brackets @ _inverse(P).transpose())


def conjugate_module(M: Representation, Q: Matrix) -> Representation:
    """Same module in a new basis of the underlying vector space."""
    Qinv = _inverse(Q)
    return validate_module(Representation(
        M.algebra, M.dim, [Qinv @ a @ Q for a in M.action]))


def random_lie(field, rng: random.Random, max_dim=5):
    name = rng.choice(LIE_CATALOG)
    g = lie_by_name(field, name)
    if g.dim > max_dim:
        g = abelian(field, max_dim)
    if rng.random() < 0.7:
        g = change_basis_lie(g, random_invertible(field, g.dim, rng))
    return g


def _scaled_rep(g, rng: random.Random) -> Representation:
    """rho(e_i) = c_i A on field^dim g for a random invertible A: a module
    of an abelian g, as the c_i A commute."""
    A = random_invertible(g.field, g.dim, rng)
    return validate_module(Representation(g, g.dim, [
        A.scale(random_scalar(g.field, rng)) for _ in range(g.dim)]))


def random_module(g, rng: random.Random, max_dim=4) -> Representation:
    """A random valid g-module of dimension <= max_dim: a direct sum of
    trivial and acting summands, conjugated by a random basis change: the
    adjoint module of a nonabelian g, always first when it fits, and
    `_scaled_rep` of an abelian g, whose adjoint action is zero."""
    field = g.field
    nonabelian = not g.structure.is_zero()
    pieces = []
    total = 0
    while total < 1 or (total < max_dim and rng.random() < 0.5):
        kind = rng.random()
        if g.dim > max_dim - total or (kind < 0.5 and
                                       (pieces or not nonabelian)):
            d = rng.randint(1, max_dim - total) if max_dim > total else 1
            pieces.append(trivial_rep(g, d))
            total += d
        else:
            pieces.append(adjoint(g) if nonabelian else _scaled_rep(g, rng))
            total += g.dim
    M = pieces[0]
    for p in pieces[1:]:
        M = direct_sum_reps(M, p)
    if rng.random() < 0.7:
        M = conjugate_module(M, random_invertible(field, M.dim, rng))
    return M


def random_leibniz(field, rng: random.Random, max_dim=3):
    if rng.random() < 0.4:
        return nonlie_leibniz(field)
    g = rng.choice([abelian(field, rng.randint(1, max_dim)),
                    solvable2(field),
                    heisenberg(field) if max_dim >= 3 else solvable2(field)])
    return leibniz_from_lie(g)


def random_leibniz_module(h, rng: random.Random, max_dim=3):
    """A random valid h-module: a trivial one a tenth of the time;
    otherwise the adjoint module of an h that is not skew, and for a skew
    (so Lie) h a random module of h as a Lie algebra, read with left rho
    and right -rho."""
    if rng.random() < 0.1:
        return trivial_rep(h, rng.randint(1, max_dim))
    if _skew_defect(h):
        return validate_leibniz_module(leibniz_adjoint(h))
    g = LieAlgebra(h.field, h.dim, h.structure)
    return validate_leibniz_module(
        leibniz_rep_from_lie(random_module(g, rng, max_dim), h))


def _random_vector(space: Subspace, rng: random.Random):
    """A random combination of the basis of space, one coefficient per
    basis vector in order, as a field vector."""
    field = space.field
    return space.basis.transpose().apply(
        [random_scalar(field, rng) for _ in range(space.dim)])


def random_module_morphism(A: Representation, B: Representation,
                           rng: random.Random) -> ModuleMorphism:
    """A random equivariant map A -> B: sample the solution space of the
    intertwining equations H rho_A(u) = rho_B(u) H (`hom_rows`)."""
    field = A.algebra.field
    nvars = B.dim * A.dim
    eqs = Matrix(field, [[r.get(j, 0) for j in range(nvars)]
                         for r in hom_rows(A, B)], cols=nvars)
    vec = _random_vector(kernel(LinearMap(eqs)), rng)
    mat = Matrix(field, [vec[r * A.dim:(r + 1) * A.dim] for r in range(B.dim)],
                 cols=A.dim)
    return validate_morphism(ModuleMorphism(A, B, mat))


# --------------------------------------------------- crossed-module fixtures

def identity_crossed(g) -> CrossedExtension:
    """V = L = g acting adjointly, partial = id: induced pair is (0, 0)."""
    field = g.field
    cm = CrossedModule(g, adjoint(g), LinearMap.identity(field, g.dim))
    validate_crossed(cm)
    return induced_pair(cm)


def nilpotent_ses(g, rng: random.Random | None = None) -> ShortExactSequence:
    """0 -> K -> K^2 -> K -> 0 with rho(e_0) the nilpotent Jordan block."""
    field = g.field
    z, o = field.zero, field.one
    rho0 = Matrix(field, [[z, o], [z, z]], cols=2)
    zero2 = Matrix.zero(field, 2, 2)
    acts = [zero2 for _ in range(g.dim)]
    if g.dim > 0:
        acts[0] = rho0
    K = trivial_rep(g, 1)
    Mp = validate_module(Representation(g, 2, acts))
    # validate_ses checks exactness of morphisms validated beforehand
    return validate_ses(ShortExactSequence(
        validate_morphism(ModuleMorphism(K, Mp, Matrix(field, [[o], [z]],
                                                       cols=1))),
        validate_morphism(ModuleMorphism(Mp, K, Matrix(field, [[z, o]],
                                                       cols=2)))))


def split_ses(g, M: Representation, Mpp: Representation) -> ShortExactSequence:
    field = g.field
    mid = direct_sum_reps(M, Mpp)
    ia = Matrix.identity(field, M.dim).vstack(Matrix.zero(field, Mpp.dim, M.dim))
    pb = Matrix.zero(field, M.dim, Mpp.dim).transpose().hstack(
        Matrix.identity(field, Mpp.dim))
    return validate_ses(ShortExactSequence(
        validate_morphism(ModuleMorphism(M, mid, ia)),
        validate_morphism(ModuleMorphism(mid, Mpp, pb))))


def random_2cocycle(M: Representation, rng: random.Random) -> Cochain:
    """Uniform draw from ker(delta_2) of M's algebra."""
    return Cochain(2, M, _random_vector(kernel(coboundary_matrix(M, 2)), rng))


def yoneda_fixtures(field, rng: random.Random, count=10):
    """(ses, 2-cocycle valued in the tail) pairs at dims <= 3."""
    out = []
    while len(out) < count:
        g = rng.choice([abelian(field, 2), abelian(field, 3),
                        solvable2(field), heisenberg(field)])
        ses = nilpotent_ses(g) if rng.random() < 0.7 else \
            split_ses(g, trivial_rep(g, 1), trivial_rep(g, 1))
        c = random_2cocycle(ses.tail, rng)
        out.append((ses, c))
    return out


def nonsplit_extension3(field):
    """A length-3 extension admitting no equivariant head retraction: splice
    a nonsplit module sequence onto the zero crossed module.

    The required retraction h would satisfy h . alpha = id and equivariance,
    forcing h ρ(e_0) = 0 while h ρ(e_0) = (0, 1); split_detect must reject."""
    g = abelian(field, 1)
    ses = nilpotent_ses(g)
    return opext_connecting(ses, zero_extension(g, ses.tail, 2))


def crossed_fixture_pool(field, rng: random.Random, count=20):
    """2-fold extensions exercising partial = 0, partial = id, and Yoneda."""
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            g = random_lie(field, rng, max_dim=3)
            M = random_module(g, rng, max_dim=2)
            out.append(zero_extension(g, M, 2))
        elif kind == 1:
            out.append(identity_crossed(random_lie(field, rng, max_dim=3)))
        else:
            ses, c = yoneda_fixtures(field, rng, count=1)[0]
            out.append(yoneda_crossed_module(ses, c))
    return out
