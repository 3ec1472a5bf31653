"""Dense reference loops, kept only as the oracles that the engine in
`crossedext.linalg` is tested against: Gauss-Jordan elimination for the
sparse `rref`; the augmented-matrix solve, the reduce loop and the
reduce-built quotient for `Echelon`, `Subspace.reduce` and `quotient`; and
Fraction/FpElement multiply-accumulate loops for the integer kernels under
`@`, `apply`, `_lincomb`, `_bracket` and the validators, the crossed-module
axioms, `bracket_defect` and `equivariance_defect` among them, each on every
basis pair or triple;
the change of basis of an algebra; the field-vector theta of both flavors
that the integer theta must reproduce, and the Chevalley-Eilenberg theta
formula that it must also reproduce on Lie crossed modules; and the
dense-grid CE and Leibniz coboundary builders that the integer-row builder
`crossedext.cohomology.coboundary_matrix` must reproduce for both flavors.

The oracles read matrices through `.data` and compute on field elements
only, so they share no kernel or solver with the engine they check
(`tests/test_imports.py` holds their imports to an allow-list).  The
engine takes and gives vectors as integer views (ints, d); `view` and
`dense` convert between them and the field vectors of these loops."""
from crossedext.algebra import sides
from crossedext.errors import CheckFailure
from crossedext.linalg import LinearMap, Matrix, _field_vec, _int_vec
from crossedext.cohomology import (ce_tuples, cochain_from_values,
                                   leib_tuples, sort_with_sign)
from crossedext.crossed import _check_sections


def view(field, vec):
    """The integer view (ints, d) of a field vector."""
    return _int_vec(field, tuple(vec))


def dense(field, v, n):
    """The field vector of length n of an integer view, or None for None."""
    return None if v is None else _field_vec(field, *v, n)


def dense_col(m: Matrix, j):
    """Column j of m, read from its dense rows."""
    return tuple(row[j] for row in m.data)


def dense_transpose(m: Matrix) -> Matrix:
    """The transpose of m, from its dense rows."""
    return Matrix(m.field, [dense_col(m, j) for j in range(m.cols)],
                  cols=m.rows)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c, v):
    return tuple(c * a for a in v)


def vec_zero(field, n):
    return (field.zero,) * n


def dense_rref(m: Matrix):
    """Reduced row echelon form by dense row operations.
    Returns (rref matrix, pivot column tuple)."""
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = m.field.one / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(m.field, rows, cols=nc), tuple(pivots)


def dense_solve(m: Matrix, target):
    """x with m x = target and zero free coordinates, or None: the RREF of
    the augmented matrix [m | target], eliminated afresh for each target."""
    n = m.cols
    aug = Matrix(m.field, [list(row) + [t] for row, t in zip(m.data, target)],
                 cols=n + 1)
    r, piv = dense_rref(aug)
    if n in piv:
        return None
    x = [m.field.zero] * n
    for rr, p in enumerate(piv):
        x[p] = r.data[rr][n]
    return tuple(x)


def dense_kernel_rows(m: Matrix):
    """One null vector of m per free column j of its RREF: 1 at j, minus
    column j of the RREF at the pivots."""
    r, piv = dense_rref(m)
    field = m.field
    rows = []
    for j in range(m.cols):
        if j in piv:
            continue
        v = [field.zero] * m.cols
        v[j] = field.one
        for rr, p in enumerate(piv):
            v[p] = -r.data[rr][j]
        rows.append(tuple(v))
    return rows


def dense_reduce(basis: Matrix, pivots, vec):
    """vec minus the multiples of the RREF basis rows that clear its pivot
    coordinates, by whole-row subtraction."""
    v = list(vec)
    for r, p in enumerate(pivots):
        if v[p]:
            f = v[p]
            v = [x - f * y for x, y in zip(v, basis.data[r])]
    return tuple(v)


def dense_quotient(ambient_dim, basis: Matrix, pivots):
    """The projection and section of field^ambient_dim onto the quotient by
    the span of an RREF basis: projection entry (f, i) is coordinate f of
    the reduced unit vector e_i, for each free column f; the section embeds
    the quotient along the free columns."""
    field = basis.field
    free = [c for c in range(ambient_dim) if c not in pivots]

    def e(i):
        return tuple(field.one if t == i else field.zero
                     for t in range(ambient_dim))

    proj = Matrix(field, [[dense_reduce(basis, pivots, e(i))[f]
                           for i in range(ambient_dim)] for f in free],
                  cols=ambient_dim)
    sect = Matrix(field, [[field.one if i == f else field.zero for f in free]
                          for i in range(ambient_dim)], cols=len(free))
    return proj, sect


def dense_matmul(a: Matrix, b: Matrix) -> Matrix:
    """a @ b by a scalar triple loop."""
    z = a.field.zero
    out = [[z] * b.cols for _ in range(a.rows)]
    for i, arow in enumerate(a.data):
        oi = out[i]
        for k, x in enumerate(arow):
            if not x:
                continue
            for j, y in enumerate(b.data[k]):
                if y:
                    oi[j] = oi[j] + x * y
    return Matrix(a.field, out, cols=b.cols)


def dense_apply(m: Matrix, vec):
    """m applied to vec by scalar dot products."""
    out = []
    for row in m.data:
        s = m.field.zero
        for a, v in zip(row, vec):
            if a and v:
                s = s + a * v
        out.append(s)
    return tuple(out)


def dense_lincomb(field, coefs, mats, rows, cols) -> Matrix:
    """sum_i coefs[i] * mats[i] by scaled matrix additions."""
    out = [[field.zero] * cols for _ in range(rows)]
    for c, m in zip(coefs, mats):
        if c:
            out = [[x + c * y for x, y in zip(orow, mrow)]
                   for orow, mrow in zip(out, m.data)]
    return Matrix(field, out, cols=cols)


def dense_alternating(dim, c):
    """The alternating loop of a Lie bracket, on structure constants
    c[i][j] (vectors of field elements): [e_i, e_j] = -[e_j, e_i] and
    [e_i, e_i] = 0 on every pair."""
    for i in range(dim):
        for j in range(dim):
            if tuple(c[i][j]) != tuple(-x for x in c[j][i]) or \
                    (i == j and any(c[i][i])):
                raise CheckFailure("ANTISYM_FAIL", (i, j))


def dense_validate_lie(field, dim, c):
    """The alternating loop (`dense_alternating`) and the Jacobi loop of a
    Lie algebra validator, J on every triple."""
    dense_alternating(dim, c)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                acc = [field.zero] * dim
                for (a, b, cidx) in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, coef in enumerate(c[a][b]):
                        if coef:
                            for t, s in enumerate(c[m][cidx]):
                                if s:
                                    acc[t] = acc[t] + coef * s
                if any(acc):
                    raise CheckFailure("JACOBI_FAIL", (i, j, k))


def dense_validate_leibniz(algebra):
    """The right Leibniz identity [x,[y,z]] = [[x,y],z] - [[x,z],y] on all
    basis triples in lexicographic order, by `dense_bracket`."""
    field, dim, c = algebra.field, algebra.dim, algebra.c
    e = [tuple(field.one if t == s else field.zero for t in range(dim))
         for s in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = dense_bracket(algebra, e[i], c[j][k])
                rhs1 = dense_bracket(algebra, c[i][j], e[k])
                rhs2 = dense_bracket(algebra, c[i][k], e[j])
                if lhs != tuple(a - b for a, b in zip(rhs1, rhs2)):
                    raise CheckFailure("LEIBNIZ_FAIL", (i, j, k))


def _sub(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, [[x - y for x, y in zip(r, s)]
                            for r, s in zip(a.data, b.data)], cols=a.cols)


def dense_validate_module(rep):
    """A Lie module's algebra is alternating (`dense_alternating`), and
    rho([ei,ej]) = rho(ei)rho(ej) - rho(ej)rho(ei), pair by pair."""
    g, A, n = rep.algebra, rep.action, rep.dim
    dense_alternating(g.dim, g.c)
    for i in range(g.dim):
        for j in range(g.dim):
            lhs = dense_lincomb(g.field, g.c[i][j], A, n, n)
            rhs = _sub(dense_matmul(A[i], A[j]), dense_matmul(A[j], A[i]))
            if lhs != rhs:
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j))


def dense_validate_leibniz_module(rep):
    """The slot z, y and x identities of a Leibniz module, pair by pair."""
    h, L, R, n = rep.algebra, rep.action, rep.right, rep.dim
    mm = dense_matmul
    for i in range(h.dim):
        for j in range(h.dim):
            lb = dense_lincomb(h.field, h.c[i][j], L, n, n)
            if mm(L[i], L[j]) != _sub(lb, mm(R[j], L[i])):
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot z")
            if mm(L[i], R[j]) != _sub(mm(R[j], L[i]), lb):
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot y")
            rb = dense_lincomb(h.field, h.c[i][j], R, n, n)
            if rb != _sub(mm(R[j], R[i]), mm(R[i], R[j])):
                raise CheckFailure("MODULE_AXIOM_FAIL", (i, j), "slot x")


def dense_equivariance_defect(f: Matrix, src, tgt):
    """The first (i, side) with f A_i != B_i f, or None, by `dense_matmul`
    on field elements: src and tgt are (side, matrices) pairs as `sides`
    gives them, paired in order, and i is the outer loop."""
    for i in range(len(src[0][1])):
        for (side, a), (_, b) in zip(src, tgt):
            if dense_matmul(f, a[i]) != dense_matmul(b[i], f):
                return i, side
    return None


def dense_pulled_back(V, m: Matrix):
    """V's action families pulled back along the columns of m, as (side,
    matrices) pairs: matrix u is the combination of the family with the
    coefficients of column u of m, by `dense_lincomb`."""
    return [(side, [dense_lincomb(m.field, dense_col(m, u), mats, V.dim,
                                  V.dim) for u in range(m.cols)])
            for side, mats in sides(V)]


def dense_peiffer(cm, leibniz):
    """The Peiffer loop of a crossed module: rho(dv) w = -rho(dw) v (Lie),
    and rho(dv) v = 0 when w = v, [dv, w] = [v, dw] (Leibniz), over every
    pair (v, w)."""
    V, dm = cm.rep, cm.partial.matrix
    field = dm.field
    n = V.dim

    def e(i):
        return tuple(field.one if t == i else field.zero for t in range(n))

    for v in range(n):
        dv = dense_col(dm, v)
        for w in range(n):
            dw = dense_col(dm, w)
            if leibniz:
                lhs = dense_apply(dense_lincomb(field, dv, V.action, n, n), e(w))
                rhs = dense_apply(dense_lincomb(field, dw, V.right, n, n),
                                  e(v))
            else:
                lhs = dense_apply(dense_lincomb(field, dv, V.action, n, n),
                                  e(w))
                rhs = vec_zero(field, n) if v == w else tuple(
                    -x for x in dense_apply(
                        dense_lincomb(field, dw, V.action, n, n), e(v)))
            if lhs != rhs:
                raise CheckFailure("PEIFFER_FAIL", (v, w))


def dense_image_kills_kernel(cm, leibniz):
    """Whether every element of im(d) acts by zero on every element of
    ker(d): rho for a Lie module, left and right for a Leibniz one, with
    both spaces from the dense RREF."""
    V, dm = cm.rep, cm.partial.matrix
    field, n = dm.field, V.dim
    r, piv = dense_rref(dense_transpose(dm))
    image_rows = r.data[:len(piv)]
    families = (V.action, V.right) if leibniz else (V.action,)
    for lrow in image_rows:
        for krow in dense_kernel_rows(dm):
            for mats in families:
                if any(dense_apply(dense_lincomb(field, lrow, mats, n, n),
                                   krow)):
                    return False
    return True


def _adjoint_matrix(algebra, i, side) -> Matrix:
    """Column j is [e_i, e_j], or [e_j, e_i] for the right side."""
    c, n = algebra.c, algebra.dim
    return Matrix(algebra.field, [[(c[j][i] if side == "right" else c[i][j])[k]
                                   for j in range(n)] for k in range(n)],
                  cols=n)


def dense_crossed_axioms(cm):
    """The crossed-module axioms by Matrix products of field elements, as
    `crossed.crossed_axioms` checked them before it ran on integer rows:
    d A_i = ad(e_i) d for every action family, then, pair by pair, column
    w of the left action of dv against column v of the right action of dw
    (minus rho for a Lie module, and zero on a Lie module's diagonal)."""
    L, V, dm = cm.algebra, cm.rep, cm.partial.matrix
    field, n = dm.field, V.dim
    for i in range(L.dim):
        for side, mats in sides(V):
            if dense_matmul(dm, mats[i]) != \
                    dense_matmul(_adjoint_matrix(L, i, side), dm):
                raise CheckFailure("EQUIVARIANCE_FAIL", (i,),
                                   side and f"{side} action")
    families = [mats for _, mats in sides(V)]
    lefts = [dense_lincomb(field, dense_col(dm, v), families[0], n, n)
             for v in range(n)]
    rights = [dense_lincomb(field, dense_col(dm, w), families[-1], n, n)
              for w in range(n)]
    lie = len(families) == 1
    sign = -field.one if lie else field.one
    for v in range(n):
        for w in range(n):
            want = vec_zero(field, n) if lie and v == w else \
                tuple(sign * x for x in dense_col(rights[w], v))
            if dense_col(lefts[v], w) != want:
                raise CheckFailure("PEIFFER_FAIL", (v, w))


def dense_g2_table(pres, s, q):
    """The images s e_u of g's basis, and g2(x, y) = q([s x, s y] - s [x, y])
    on all basis pairs as field vectors of V, by `dense_bracket` and
    `dense_apply`."""
    L, g = pres.base.algebra, pres.g
    svecs = [dense_col(s.matrix, u) for u in range(g.dim)]
    table = {}
    for i in range(g.dim):
        for j in range(g.dim):
            br = dense_bracket(L, svecs[i], svecs[j])
            br = tuple(a - b for a, b in
                       zip(br, dense_apply(s.matrix, g.c[i][j])))
            table[(i, j)] = dense_apply(q.matrix, br)
    return svecs, table


def _dense_puller(pres):
    """The coordinates in M of a value in ker(partial), by `dense_solve` on
    f; a PEIFFER_FAIL for a value outside it."""
    def pull(val):
        m = dense_solve(pres.f.matrix, val)
        if m is None:
            raise CheckFailure("PEIFFER_FAIL", None,
                               "theta value is outside ker(partial)")
        return m
    return pull


def dense_theta(pres, s, q):
    """The classifying 3-cochain by the Leibniz formula on field vectors,
    as `crossed.theta` computed it before it ran on integers:
    theta(x,y,z) = [s x, g2(y,z)] + [g2(x,z), s y] - [g2(x,y), s z]
                   - g2([x,y],z) + g2([x,z],y) + g2(x,[y,z])
    on the flavor's triples, with the right action of a Lie module -rho."""
    _check_sections(pres, s, q)
    cm, g, V = pres.base, pres.g, pres.base.rep
    field = g.field
    svecs, g2 = dense_g2_table(pres, s, q)
    fams = [mats for _, mats in sides(V)]
    lefts = [dense_lincomb(field, x, fams[0], V.dim, V.dim) for x in svecs]
    # a Lie module acts on the right by -rho
    rights = [dense_lincomb(field, x if len(fams) == 2 else
                            tuple(-a for a in x), fams[-1], V.dim, V.dim)
              for x in svecs]
    pull = _dense_puller(pres)

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
        val = dense_apply(lefts[i], g2[(j, k)])
        val = vec_add(val, dense_apply(rights[j], g2[(i, k)]))
        val = tuple(a - b for a, b in
                    zip(val, dense_apply(rights[k], g2[(i, j)])))
        val = tuple(a - b for a, b in zip(val, lin(g.c[i][j], by_second[k])))
        val = vec_add(val, lin(g.c[i][k], by_second[j]))
        val = vec_add(val, lin(g.c[j][k], by_first[i]))
        if any(dense_apply(cm.partial.matrix, val)):
            raise CheckFailure("PEIFFER_FAIL", t, "partial(theta) != 0")
        return pull(val)

    return cochain_from_values(pres.M, 3, value)


def lie_theta(pres, s, q):
    """The classifying 3-cochain of a Lie crossed module by the CE formula
    theta(x,y,z) = [s x, g2(y,z)] - [s y, g2(x,z)] + [s z, g2(x,y)]
                   - g2([x,y],z) + g2([x,z],y) - g2([y,z],x)
    on increasing triples."""
    _check_sections(pres, s, q)
    cm, g, V = pres.base, pres.g, pres.base.rep
    field = g.field
    svecs, g2 = dense_g2_table(pres, s, q)
    acts = [dense_lincomb(field, sv, V.action, V.dim, V.dim) for sv in svecs]
    pull = _dense_puller(pres)

    def g2_lin(uvec, k):
        out = vec_zero(field, V.dim)
        for a, coef in enumerate(uvec):
            if coef:
                out = vec_add(out, vec_scale(coef, g2[(a, k)]))
        return out

    def value(t):
        i, j, k = t
        val = dense_apply(acts[i], g2[(j, k)])
        val = tuple(a - b for a, b in
                    zip(val, dense_apply(acts[j], g2[(i, k)])))
        val = vec_add(val, dense_apply(acts[k], g2[(i, j)]))
        val = tuple(a - b for a, b in zip(val, g2_lin(g.c[i][j], k)))
        val = vec_add(val, g2_lin(g.c[i][k], j))
        val = tuple(a - b for a, b in zip(val, g2_lin(g.c[j][k], i)))
        if any(dense_apply(cm.partial.matrix, val)):
            raise CheckFailure("PEIFFER_FAIL", t, "partial(theta) != 0")
        return pull(val)

    return cochain_from_values(pres.M, 3, value)


def dense_bracket(algebra, u, v):
    """[u, v] by a Fraction/FpElement multiply-accumulate loop over the
    structure constants."""
    field = algebra.field
    out = [field.zero] * algebra.dim
    for i, a in enumerate(u):
        if not a:
            continue
        for j, b in enumerate(v):
            if not b:
                continue
            coef = a * b
            for k, s in enumerate(algebra.c[i][j]):
                if s:
                    out[k] = out[k] + coef * s
    return tuple(out)


def dense_change_basis(algebra, P: Matrix):
    """The structure constants of algebra in the basis of P's columns, as a
    table: [P e_i, P e_j] by `dense_bracket`, written in that basis by
    `dense_solve` on P."""
    cols = [dense_col(P, i) for i in range(algebra.dim)]
    return [[dense_solve(P, dense_bracket(algebra, u, v)) for v in cols]
            for u in cols]


def dense_bracket_defect(f: LinearMap, A, B):
    """The first basis pair (i, j) of all with f([e_i, e_j]_A) !=
    [f e_i, f e_j]_B, or None, by `dense_apply` and `dense_bracket`."""
    cols = [dense_col(f.matrix, i) for i in range(A.dim)]
    for i in range(A.dim):
        for j in range(A.dim):
            if dense_apply(f.matrix, A.c[i][j]) != \
                    dense_bracket(B, cols[i], cols[j]):
                return i, j
    return None


def dense_ce_coboundary_matrix(g, M, n: int) -> LinearMap:
    """Matrix of the CE coboundary C^n -> C^{n+1} on the increasing-tuple basis.

    First sum: signed module action terms; second sum: bracket insertion in
    the first slot, resorted into increasing order.  Degree 0 is the map
    m -> (x -> [x, m]).
    """
    field = g.field
    m = M.dim
    ins = ce_tuples(g.dim, n)
    outs = ce_tuples(g.dim, n + 1)
    tindex = {t: i for i, t in enumerate(ins)}
    grid = [[field.zero] * (len(ins) * m) for _ in range(len(outs) * m)]
    for sidx, S in enumerate(outs):
        for pos in range(n + 1):
            rest = S[:pos] + S[pos + 1:]
            cidx = tindex[rest]
            sign = 1 if pos % 2 == 0 else -1  # (-1)^{i+1}, i = pos+1
            act = M.action[S[pos]]
            for a in range(m):
                row = grid[sidx * m + a]
                arow = act.data[a]
                for b in range(m):
                    if arow[b]:
                        row[cidx * m + b] = row[cidx * m + b] + sign * arow[b]
        for pa in range(n + 1):
            for pb in range(pa + 1, n + 1):
                u = g.c[S[pa]][S[pb]]
                rest = tuple(S[t] for t in range(n + 1) if t not in (pa, pb))
                pair_sign = 1 if (pa + pb) % 2 == 0 else -1  # (-1)^{i+j}
                for k, coef in enumerate(u):
                    if not coef:
                        continue
                    merged, ssign = sort_with_sign((k,) + rest)
                    if merged is None:
                        continue
                    cidx = tindex[merged]
                    total = pair_sign * ssign
                    for a in range(m):
                        row = grid[sidx * m + a]
                        row[cidx * m + a] = row[cidx * m + a] + total * coef
    return LinearMap(Matrix(field, grid, len(ins) * m))


def dense_leibniz_coboundary_matrix(h, M, n: int) -> LinearMap:
    """Matrix of the Leibniz coboundary C^n -> C^{n+1} on the tensor basis.

    Terms: left action on the first argument, signed right actions, and
    bracket substitution into the earlier slot.
    """
    field = h.field
    m = M.dim
    ins = leib_tuples(h.dim, n)
    outs = leib_tuples(h.dim, n + 1)
    tindex = {t: i for i, t in enumerate(ins)}
    grid = [[field.zero] * (len(ins) * m) for _ in range(len(outs) * m)]

    def add_block(sidx, cidx, mat, sign):
        for a in range(m):
            row = grid[sidx * m + a]
            arow = mat.data[a]
            for b in range(m):
                if arow[b]:
                    row[cidx * m + b] = row[cidx * m + b] + sign * arow[b]

    def add_scalar(sidx, cidx, coef, sign):
        for a in range(m):
            row = grid[sidx * m + a]
            row[cidx * m + a] = row[cidx * m + a] + sign * coef

    for sidx, S in enumerate(outs):
        add_block(sidx, tindex[S[1:]], M.action[S[0]], 1)
        for pos in range(1, n + 1):
            rest = S[:pos] + S[pos + 1:]
            sign = 1 if (pos + 1) % 2 == 0 else -1  # (-1)^i, i = pos+1
            add_block(sidx, tindex[rest], M.right[S[pos]], sign)
        for pa in range(n + 1):
            for pb in range(pa + 1, n + 1):
                u = h.c[S[pa]][S[pb]]
                sign = 1 if pb % 2 == 0 else -1  # (-1)^{j+1}, j = pb+1
                for k, coef in enumerate(u):
                    if not coef:
                        continue
                    merged = S[:pa] + (k,) + S[pa + 1:pb] + S[pb + 1:]
                    add_scalar(sidx, tindex[merged], coef, sign)
    return LinearMap(Matrix(field, grid, len(ins) * m))
