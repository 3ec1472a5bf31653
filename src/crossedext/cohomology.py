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
read their algebra and their flavor (CE or LEIBNIZ) from their module; a
module owns its complex, shared by equal modules of a run (`complex_of`).
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left

from . import _classes, _forward
from .errors import CheckFailure
from .linalg import LinearMap, _common_rows, _from_ints, rank
# CE and LEIBNIZ are re-exported here, next to the complexes they name
from .algebra import CE, LEIBNIZ, LeibnizRepresentation, Representation

# the class layer, a lazy module, whose names are served from here too
__getattr__ = _forward(__name__, _classes)


def ce_tuples(dim: int, n: int):
    return tuple(itertools.combinations(range(dim), n))

def leib_tuples(dim: int, n: int):
    return tuple(itertools.product(range(dim), repeat=n))

def _tuple_count(module, n):
    """|C^n| / dim M, counted, not listed: C(dim g, n) or (dim g)^n."""
    g = module.algebra.dim
    return math.comb(g, n) if module.flavor == CE else g ** n


def _emit_coboundary(algebra, families, m, n, ce, rows=None) -> LinearMap:
    """delta_n : C^n -> C^{n+1} of the CE complex (ce true) or the Leibniz
    complex, as integer rows: row (S, a) is output tuple S and module
    coordinate a, column (t, b) input tuple t and module coordinate b.
    Given rows, a list of (S, [a, ...]), only those rows are emitted, in
    that order, over all of C^n's columns.
    - Action terms: sign * one action matrix, from t = S without slot pos:
      rho(x_pos), sign (-1)^pos (CE); the left action of x_0, and the right
      action of x_pos, sign (-1)^{pos+1} (Leibniz).  They are skipped when
      no row of any action matrix holds an entry.
    - Bracket terms: the coordinate e_k of the bracket of slots pa < pb
      times the identity block from t.  CE puts k into the sorted rest of
      S by bisection, at q, with sign (-1)^{pa+pb+q}, and skips k when the
      rest holds it; Leibniz substitutes k into slot pa, sign (-1)^pb.
      Each term is one update of the coefficient of t, spread over the
      identity block once per S.
    Every term is an integer on one common denominator D, the lcm of the
    denominators of the action matrices' and the structure constants'
    integer views (residues and D = 1 over F_p), so the structure constants
    are scaled to D once; `_from_ints` makes the rows canonical.
    """
    dim = algebra.dim
    tuples = ce_tuples if ce else leib_tuples
    ins = tuples(dim, n)
    offset = {t: i * m for i, t in enumerate(ins)}
    c, dc = algebra.structure._ints
    blocks, D = _common_rows([a for fam in families for a in fam], dc)
    cf = D // dc
    brackets = [[(k, v * cf) for k, v in row.items()] for row in c]
    # (first index into blocks, sign) of each slot's action term; none when
    # no row of an action matrix holds an entry
    if not any(row for block in blocks for row in block):
        slots = ()
    elif ce:
        slots = [(0, (-1) ** pos) for pos in range(n + 1)]
    else:
        slots = [(0, 1)] + [(dim, (-1) ** (pos + 1))
                            for pos in range(1, n + 1)]
    out = []
    if rows is None:
        rows = ((S, range(m)) for S in tuples(dim, n + 1))
    for S, coords in rows:
        block = [{} for _ in coords]
        for pos, (base, sign) in enumerate(slots):
            off = offset[S[:pos] + S[pos + 1:]]
            act = blocks[base + S[pos]]
            for row, a in zip(block, coords):
                for b, v in act[a].items():
                    j = off + b
                    row[j] = row.get(j, 0) + sign * v
        # the bracket terms' coefficient of t by its offset: row (S, a)
        # takes it at column offset + a
        acc = block[0] if m == 1 else {}
        for pa in range(n):
            for pb in range(pa + 1, n + 1):
                terms = brackets[S[pa] * dim + S[pb]]
                if not terms:
                    continue
                head, tail = S[:pa], S[pa + 1:pb] + S[pb + 1:]
                if ce:
                    rest, odd = head + tail, (pa + pb) & 1
                else:
                    odd = pb & 1
                for k, x in terms:
                    if ce:
                        q = bisect_left(rest, k)
                        if q < len(rest) and rest[q] == k:
                            continue
                        off = offset[rest[:q] + (k,) + rest[q:]]
                        if (odd + q) & 1:
                            x = -x
                    else:
                        off = offset[head + (k,) + tail]
                        if odd:
                            x = -x
                    acc[off] = acc.get(off, 0) + x
        if m > 1:
            for off, x in acc.items():
                for a, row in zip(coords, block):
                    j = off + a
                    row[j] = row.get(j, 0) + x
        out.extend(block)
    return LinearMap(_from_ints(algebra.field, out, D, len(ins) * m))


def ce_coboundary_matrix(g, M: Representation, n: int,
                         rows=None) -> LinearMap:
    """Matrix of the CE coboundary C^n -> C^{n+1} on the increasing-tuple basis.

    First sum: signed module action terms; second sum: bracket insertion in
    the first slot, resorted into increasing order.  Degree 0 is the map
    m -> (x -> [x, m]).  Given rows, only those (see `_emit_coboundary`).
    """
    return _emit_coboundary(g, (M.action,), M.dim, n, True, rows)


def leibniz_coboundary_matrix(h, M: LeibnizRepresentation, n: int) -> LinearMap:
    """Matrix of the Leibniz coboundary C^n -> C^{n+1} on the tensor basis.

    Terms: left action on the first argument, signed right actions, and
    bracket substitution into the earlier slot.
    """
    return _emit_coboundary(h, (M.left, M.right), M.dim, n, False)


def coboundary_matrix(M, n) -> LinearMap:
    """delta_n of the complex of M's flavor over M's algebra."""
    if M.flavor == CE:
        return ce_coboundary_matrix(M.algebra, M, n)
    return leibniz_coboundary_matrix(M.algebra, M, n)


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
    m = M.dim
    work = 4 * (max_degree + 1)
    for k in range(1, max_degree + 2):
        rows = _tuple_count(M, k) * m
        if not rows or work > TABLE_BUDGET:
            break
        work += k * rows
    return work


def _weight_zero(M, top):
    """The weight-0 basis of C^k(g, M), k = 0..top, for a CE module M: per
    k, the (S, [a, ...]) whose weight mu_h(a) - sum_{i in S} alpha_h(i) is
    zero in the field for every h of the torus; None when the torus has no
    nonzero weight.  The torus is the basis elements h with ad h and rho(h)
    diagonal in the given bases; alpha_h and mu_h are their diagonals, read
    from the integer views on one common denominator and compared mod q:
    mod p over F_p, and over Q mod a q past any |sum of top alphas - mu|,
    so that a weight is zero mod q only if it is zero."""
    dim, p = M.algebra.dim, M.algebra.field.p
    c, dc = M.algebra.structure._ints
    acts, D = _common_rows(M.action, dc)
    torus = []
    for h in range(dim):
        ad = c[h * dim:(h + 1) * dim]
        if all(r.keys() <= {i} for rs in (ad, acts[h])
               for i, r in enumerate(rs)):
            torus.append([r.get(i, 0) * (D // dc) for i, r in enumerate(ad)]
                         + [r.get(a, 0) for a, r in enumerate(acts[h])])
    q = p or (top + 1) * max([abs(x) for w in torus for x in w],
                             default=0) + 1
    torus = [w for w in ([x % q for x in w] for w in torus) if any(w)]
    if not torus:
        return None
    alpha = list(zip(*(w[:dim] for w in torus)))
    coords = {}
    for a, mu in enumerate(zip(*(w[dim:] for w in torus))):
        coords.setdefault(mu, []).append(a)
    # the tuples of each length and their running weight sums
    levels = [[((), (0,) * len(torus))]]
    for _ in range(top):
        levels.append([(S + (j,), tuple([(x + y) % q
                                         for x, y in zip(w, alpha[j])]))
                       for S, w in levels[-1]
                       for j in range(S[-1] + 1 if S else 0, dim)])
    return [[(S, coords[w]) for S, w in level if w in coords]
            for level in levels]


def cohomology_table(M, max_degree: int):
    """Rows (degree, dim C^n, rank delta_n, dim H^n) for n = 0..max_degree;
    BUDGET_EXCEEDED, before any delta, if `_table_work` passes the budget.

    A CE table over an algebra with a torus (`_weight_zero`) eliminates
    only the weight-0 rows of each delta_n, which meet only weight-0
    columns.  By Cartan's formula L_h = d i_h + i_h d, the block of a
    weight nonzero in the field is acyclic, so the nonzero weights add
    r_n = N_n - r_{n-1} to the rank, r_{-1} = 0, with N_n the number of
    basis cochains of C^n of nonzero weight."""
    if _table_work(M, max_degree) > TABLE_BUDGET:
        raise CheckFailure("BUDGET_EXCEEDED", max_degree,
                           f"over the work budget of {TABLE_BUDGET}")
    zero = M.flavor == CE and _weight_zero(M, max_degree + 1)
    rows = []
    prev_rank = r_n = 0
    for n in range(max_degree + 1):
        d_n = ce_coboundary_matrix(M.algebra, M, n, zero[n + 1]) if zero \
            else coboundary_matrix(M, n)
        dim_c = d_n.domain_dim
        if zero:
            r_n = dim_c - sum(len(a) for _, a in zero[n]) - r_n
        rank_n = rank(d_n) + r_n
        rows.append((n, dim_c, rank_n, dim_c - rank_n - prev_rank))
        prev_rank = rank_n
    return rows

