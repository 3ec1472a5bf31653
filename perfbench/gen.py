"""Seeded workspace generator for the crossedext benchmark.

Standard library only, and never imports crossedext: the parent commit and a
change under test receive byte-identical documents from the same seed.
Every object is built here from closed-form structure constants, so the
facts the oracle checks (dimensions, Betti numbers, zero classes) are known
without asking the code under test.

Documents:
  ladder  -- cohomology tables of gl3, gl2-as-Leibniz, sl2, heisenberg and
             abelian4; the seed only permutes the algebras' bases (gl_n
             keeps its E_ij order, see FIXED_BASIS).
  mix     -- a fixed plan of crossed-module, sequence, Baer-sum and pushout
             items; the seed draws bases, couplings and cocycles.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Per-command `max_degree` stays at or below this value (see manifest.json).
MAX_DEGREE = 4


# ------------------------------------------------------------ small algebra

def zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def matmul(a, b):
    cols = len(b[0]) if b else 0
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        out[i][j] += x * y
    return out


def rank(rows):
    """Rank over Q by plain Gaussian elimination (the oracle's own)."""
    m = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def unimodular(n, rng, steps=None):
    """A random integer matrix of determinant +-1 and its integer inverse."""
    p, pinv = identity(n), identity(n)
    order = list(range(n))
    rng.shuffle(order)
    p = [p[i] for i in order]
    pinv = [list(col) for col in zip(*p)]  # a permutation's inverse
    for _ in range(steps if steps is not None else 2 * n):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        # p <- E p with E = I + c e_ij; pinv <- pinv E^-1
        p[i] = [x + c * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= c * row[i]
    return p, pinv


# --------------------------------------------------- algebras (dense c[i][j])

def _structure(dim):
    return [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]


def abelian(n):
    return _structure(n)


def gl(n):
    """Basis E_ij at index i*n+j; [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    d = n * n
    c = _structure(d)
    for i, j, k, l in itertools.product(range(n), repeat=4):
        a, b = i * n + j, k * n + l
        if j == k:
            c[a][b][i * n + l] += 1
        if l == i:
            c[a][b][k * n + j] -= 1
    return c


def heisenberg(k):
    """Basis x_1..x_k, y_1..y_k, z with [x_i, y_i] = z."""
    d = 2 * k + 1
    c = _structure(d)
    for i in range(k):
        c[i][k + i][2 * k] = ONE
        c[k + i][i][2 * k] = -ONE
    return c


def sl2():
    """Basis e, f, h: [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    c = _structure(3)
    c[0][1][2], c[1][0][2] = ONE, -ONE
    c[2][0][0], c[0][2][0] = Fraction(2), Fraction(-2)
    c[2][1][1], c[1][2][1] = Fraction(-2), Fraction(2)
    return c


def solvable2():
    """[x, y] = y."""
    c = _structure(2)
    c[0][1][1], c[1][0][1] = ONE, -ONE
    return c


def _heis_betti(k):
    """Betti numbers of heisenberg_(2k+1) (Santharoubane)."""
    n = 2 * k + 1
    low = [_binom(2 * k, j) - (_binom(2 * k, j - 2) if j >= 2 else 0)
           for j in range(k + 1)]
    return [low[j] if j <= k else low[n - j] for j in range(n + 1)]


def _binom(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out


# name -> (constructor, Betti numbers of trivial CE cohomology, indices of
# the basis vectors outside [g, g], whose dual 1-forms vanish on [g, g])
CATALOG = {
    "abelian2": (lambda: abelian(2), [1, 2, 1], (0, 1)),
    "abelian3": (lambda: abelian(3), [1, 3, 3, 1], (0, 1, 2)),
    "abelian5": (lambda: abelian(5), [_binom(5, j) for j in range(6)],
                 tuple(range(5))),
    "abelian6": (lambda: abelian(6), [_binom(6, j) for j in range(7)],
                 tuple(range(6))),
    "heis3": (lambda: heisenberg(1), _heis_betti(1), (0, 1)),
    "heis5": (lambda: heisenberg(2), _heis_betti(2), (0, 1, 2, 3)),
    "solvable2": (solvable2, [1, 1, 0], (0,)),
    "sl2": (sl2, [1, 0, 0, 1], ()),
}


def two_cocycle_pairs(name, dim):
    """Index pairs (i<j) whose elementary 2-forms are trivial-coefficient
    cocycles in the standard basis; they span the cocycle space used here."""
    if name == "heis5":
        return [(i, j) for i, j in itertools.combinations(range(dim), 2)
                if j != 4]
    return list(itertools.combinations(range(dim), 2))


def permute(c, perm):
    d = len(c)
    return [[[c[perm[a]][perm[b]][perm[k]] for k in range(d)]
             for b in range(d)] for a in range(d)]


def change_basis(c, p, pinv):
    """Structure constants in the basis given by the columns of p."""
    d = len(c)
    out = _structure(d)
    for i in range(d):
        for j in range(d):
            w = [ZERO] * d
            for a in range(d):
                pa = p[a][i]
                if not pa:
                    continue
                for b in range(d):
                    pb = p[b][j]
                    if not pb:
                        continue
                    for k, s in enumerate(c[a][b]):
                        if s:
                            w[k] += pa * pb * s
            out[i][j] = [sum((pinv[k][t] * w[t] for t in range(d)), ZERO)
                         for k in range(d)]
    return out


def adjoint_left(c):
    """Matrix of x -> [e_i, x]: column j is c[i][j]."""
    d = len(c)
    return [[[c[i][j][k] for j in range(d)] for k in range(d)] for i in range(d)]


def adjoint_right(c):
    """Matrix of x -> [x, e_i]: column j is c[j][i]."""
    d = len(c)
    return [[[c[j][i][k] for j in range(d)] for k in range(d)] for i in range(d)]


def ce_d2_trivial(c, alpha, m):
    """delta(alpha)(x,y,z) for a trivial-coefficient 2-form given on i<j."""
    d = len(c)

    def val(i, j):
        if i == j:
            return [ZERO] * m
        if i < j:
            return alpha[(i, j)]
        return [-x for x in alpha[(j, i)]]

    def lin(vec, k):
        out = [ZERO] * m
        for a, coef in enumerate(vec):
            if coef:
                out = [o + coef * v for o, v in zip(out, val(a, k))]
        return out

    for i, j, k in itertools.combinations(range(d), 3):
        t = [-x + y - z for x, y, z in zip(lin(c[i][j], k), lin(c[i][k], j),
                                            lin(c[j][k], i))]
        if any(t):
            return (i, j, k)
    return None


# ------------------------------------------------------------ serialization

def s(x):
    return str(x)


def mat_out(m):
    return [[s(x) for x in row] for row in m]


def structure_out(c):
    d = len(c)
    return [{"i": i, "j": j, "k": k, "value": s(v)}
            for i in range(d) for j in range(d)
            for k, v in enumerate(c[i][j]) if v]


class Doc:
    def __init__(self):
        self.d = {"field": "q", "algebras": {}, "modules": {},
                  "morphisms": {}, "cochains": {}, "crossed_modules": {},
                  "sequences": {}, "extensions": {}, "commands": []}

    def algebra(self, name, c, kind="lie"):
        self.d["algebras"][name] = {"type": kind, "dim": len(c),
                                    "structure": structure_out(c)}
        return name

    def module(self, name, alg, dim, action=None, left=None, right=None):
        rec = {"algebra": alg, "dim": dim}
        if left is not None:
            rec["left"] = {str(i): mat_out(a) for i, a in enumerate(left)}
            rec["right"] = {str(i): mat_out(a) for i, a in enumerate(right)}
        else:
            rec["action"] = {str(i): mat_out(a) for i, a in enumerate(action)}
        self.d["modules"][name] = rec
        return name

    def command(self, **kw):
        if kw.get("max_degree", 0) > MAX_DEGREE:
            raise ValueError("max_degree above the benchmark's cap")
        self.d["commands"].append(kw)

    def dumps(self):
        return json.dumps(self.d, sort_keys=True, separators=(",", ":")) + "\n"


# -------------------------------------------------------------- ladder

# (label, algebra, flavor, module kind, max_degree)
LADDER = (
    ("gl3", "gl3", "ce", "adjoint", 2),
    ("gl3", "gl3", "ce", "trivial", 4),
    ("gl2L", "gl2", "leibniz", "adjoint", 2),
    ("gl2L", "gl2", "leibniz", "trivial", 3),
    ("sl2", "sl2", "ce", "adjoint", 3),
    ("heis3", "heis3", "ce", "trivial", 3),
    ("abelian4", "abelian4", "ce", "trivial", 4),
)

# Closed-form dim H^n for the CE rows of LADDER (Whitehead, Kunneth,
# Santharoubane); Leibniz rows have none and are checked by report hash.
LADDER_DIM_H = {
    ("gl3", "adjoint"): [1, 1, 0],
    ("gl3", "trivial"): [1, 1, 0, 1, 1],
    ("sl2", "adjoint"): [0, 0, 0, 0],
    ("heis3", "trivial"): [1, 2, 2, 1],
    ("abelian4", "trivial"): [_binom(4, k) for k in range(5)],
}

_LADDER_BASE = {"gl3": lambda: gl(3), "gl2": lambda: gl(2), "sl2": sl2,
                "heis3": lambda: heisenberg(1), "abelian4": lambda: abelian(4)}


# A random order of gl3's basis changes the cost of dense elimination of its
# delta^2 by up to 1.8x (4.3 s to 7.9 s measured on the parent), so a seeded
# permutation would make report_s differ between seeds by more than any bound
# the benchmark may set.  gl3 and gl2 therefore keep the E_ij order for every
# seed; the seed permutes the bases of sl2, heisenberg and abelian4.
FIXED_BASIS = ("gl3", "gl2L")


def ladder(seed):
    rng = random.Random(f"ladder:{seed}")
    doc = Doc()
    made = {}
    for label, base, flavor, kind, deg in LADDER:
        if label not in made:
            c = _LADDER_BASE[base]()
            perm = list(range(len(c)))
            if label not in FIXED_BASIS:
                rng.shuffle(perm)
            c = permute(c, perm)
            doc.algebra(label, c, "leibniz" if flavor == "leibniz" else "lie")
            made[label] = c
        c = made[label]
        d = len(c)
        mname = f"{label}_{kind}"
        if mname not in doc.d["modules"]:
            if kind == "trivial":
                z = [zeros(1, 1) for _ in range(d)]
                if flavor == "leibniz":
                    doc.module(mname, label, 1, left=z, right=z)
                else:
                    doc.module(mname, label, 1, action=z)
            elif flavor == "leibniz":
                doc.module(mname, label, d, left=adjoint_left(c),
                           right=adjoint_right(c))
            else:
                doc.module(mname, label, d, action=adjoint_left(c))
        doc.command(op="cohomology", algebra=label, module=mname,
                    max_degree=deg)
    return doc.dumps()


def ladder_expectations():
    """Per command: (dim C^n list, dim H^n list or None)."""
    out = []
    for label, base, flavor, kind, deg in LADDER:
        d = len(_LADDER_BASE[base]())
        m = d if kind == "adjoint" else 1
        dims = [(_binom(d, n) if flavor == "ce" else d ** n) * m
                for n in range(deg + 1)]
        out.append((dims, LADDER_DIM_H.get((label, kind))))
    return out


# ------------------------------------------------------------------ mix

FIXTURE_ALGEBRAS = ("abelian2", "abelian3", "heis3", "solvable2", "sl2")
TAIL_ALGEBRAS = ("abelian5", "abelian6", "heis5")

# One round of the plan: (kind, size).  Kinds and the commands each emits:
#   zero     classify + theta on (g, M, 0)
#   ident    classify + theta on (g, ad g, id)
#   yoneda   connecting + yoneda on (sequence, 2-cocycle), and classify +
#            theta on the spliced crossed module
#   baer2    classify x2 + baer-sum of two spliced crossed modules (n = 2)
#   baer3    baer-sum of two length-3 extensions built as opext_connecting
#   pushout  pushout of two sequence heads into their middles
PLAN_ROUND = (
    ("zero", "fix"), ("ident", "fix"), ("yoneda", "fix"), ("baer2", "fix"),
    ("yoneda", "tail"), ("pushout", "fix"), ("baer3", "fix"),
    ("zero", "fix"), ("yoneda", "fix"), ("pushout", "tail"),
    ("ident", "fix"), ("baer2", "fix"), ("zero", "tail"), ("baer3", "fix"),
)
ROUNDS = 9
# Random bases, sequences and cocycles are each the draw of median density
# among DRAWS candidates.  The cost of parsing, validating and running a
# command grows faster than the density of its objects, so a single draw
# made the mix's report time differ between seeds by up to 15 %; the median
# draw keeps every seed near the typical cost.
DRAWS = 5


def nnz(*mats):
    """Nonzero scalars in nested lists of Fractions."""
    return sum(nnz(*m) if isinstance(m, list) else (m != 0) for m in mats)


def typical(candidates, key):
    """The candidate of median key (the first such in draw order)."""
    ranked = sorted(range(len(candidates)), key=lambda i: (key(candidates[i]), i))
    return candidates[ranked[len(ranked) // 2]]


class _Mix:
    def __init__(self, seed):
        self.rng = random.Random(f"mix:{seed}")
        self.doc = Doc()
        self.expect = []       # one dict per command, in document order
        self.count = 0

    def fresh(self, stem):
        self.count += 1
        return f"{stem}{self.count}"

    def small(self):
        return Fraction(self.rng.choice((-2, -1, 1, 2)))

    # --- algebra in a random basis
    def algebra(self, name):
        ctor, betti, annihilator = CATALOG[name]
        c0 = ctor()
        d = len(c0)
        p, pinv, c = typical(
            [(p, pinv, change_basis(c0, p, pinv)) for p, pinv in
             (unimodular(d, self.rng) for _ in range(DRAWS))],
            key=lambda x: (nnz(x[2]), nnz(x[0])))
        label = self.doc.algebra(self.fresh(name + "_"), c)
        return {"name": label, "std": name, "c": c, "c0": c0, "p": p,
                "dim": d, "betti": betti, "ann": annihilator}

    # --- trivial and adjoint modules
    def trivial(self, g, m):
        return self.doc.module(self.fresh("k"), g["name"], m,
                               action=[zeros(m, m) for _ in range(g["dim"])])

    def adjoint(self, g):
        return self.doc.module(self.fresh("ad"), g["name"], g["dim"],
                               action=adjoint_left(g["c"]))

    def sequence(self, g, a, b, split):
        """0 -> K^a -> K^(a+b) -> K^b -> 0 with the middle acting by
        phi(x) [[0, C], [0, 0]] in a random basis; C = 0 when split."""
        rng, d = self.rng, g["dim"]
        coupling = [[ZERO] * b for _ in range(a)] if split or not g["ann"] \
            else [[self.small() for _ in range(b)] for _ in range(a)]
        phi0 = [ZERO] * d
        for i in g["ann"]:
            phi0[i] = self.small()
        phi = [sum((phi0[t] * g["p"][t][i] for t in range(d)), ZERO)
               for i in range(d)]
        n = a + b
        nil = zeros(n, n)
        for i in range(a):
            for j in range(b):
                nil[i][a + j] = coupling[i][j]
        inc = [[ONE if r == t else ZERO for t in range(a)] for r in range(n)]
        proj = [[ONE if t == a + r else ZERO for t in range(n)]
                for r in range(b)]

        def draw():
            q, qinv = unimodular(n, rng)
            return (matmul(matmul(qinv, nil), q), matmul(qinv, inc),
                    matmul(proj, q))
        nil_q, alpha, beta = typical([draw() for _ in range(DRAWS)],
                                     key=lambda x: (nnz(*x), nnz(x[0])))
        action = [[[phi[i] * x for x in row] for row in nil_q]
                  for i in range(d)]
        head, tail = self.trivial(g, a), self.trivial(g, b)
        mid = self.doc.module(self.fresh("mid"), g["name"], n, action=action)
        an, bn = self.fresh("alpha"), self.fresh("beta")
        self.doc.d["morphisms"][an] = {"source": head, "target": mid,
                                       "matrix": mat_out(alpha)}
        self.doc.d["morphisms"][bn] = {"source": mid, "target": tail,
                                       "matrix": mat_out(beta)}
        name = self.fresh("ses")
        self.doc.d["sequences"][name] = {"alpha": an, "beta": bn}
        return {"name": name, "head": head, "mid": mid, "tail": tail,
                "alpha": an, "beta": bn, "a": a, "b": b, "beta_m": beta,
                "alpha_m": alpha, "action": action, "phi0": phi0,
                "coupling": coupling, "split": not any(map(any, coupling))}

    def cocycle(self, g, ses, exact=False):
        """A random trivial-coefficient 2-cocycle valued in the tail K^b,
        drawn in the standard basis and pulled back to g's basis.  When
        exact, it is the coboundary (x, y) -> -beta([x, y]) of a random
        1-cochain beta, so every class built from it is zero."""
        b, d = ses["b"], g["dim"]
        alpha0, alpha = typical(
            [self._cocycle_draw(g, b, d, exact) for _ in range(DRAWS)],
            key=lambda x: (nnz(*x[1].values()), nnz(*x[0].values())))
        name = self.fresh("coc")
        self.doc.d["cochains"][name] = {
            "module": ses["tail"], "degree": 2, "flavor": "ce",
            "entries": [{"tuple": [i, j], "value": [s(x) for x in v]}
                        for (i, j), v in sorted(alpha.items()) if any(v)]}
        return name, alpha, alpha0

    def _cocycle_draw(self, g, b, d, exact):
        """One cocycle in the standard basis (alpha0) and in g's (alpha)."""
        alpha0 = {pair: [ZERO] * b for pair in itertools.combinations(range(d), 2)}
        if exact:
            beta = [[Fraction(self.rng.randint(-2, 2)) for _ in range(b)]
                    for _ in range(d)]
            for x, y in alpha0:
                alpha0[(x, y)] = [-sum((coef * beta[k][t] for k, coef in
                                        enumerate(g["c0"][x][y])), ZERO)
                                  for t in range(b)]
        else:
            for pair in two_cocycle_pairs(g["std"], d):
                if self.rng.random() < 0.6:
                    alpha0[pair] = [Fraction(self.rng.randint(-2, 2))
                                    for _ in range(b)]
        if ce_d2_trivial(g["c0"], alpha0, b) is not None:
            raise AssertionError("generator produced a non-cocycle")
        p = g["p"]
        alpha = {}
        for i, j in itertools.combinations(range(d), 2):
            v = [ZERO] * b
            for x, y in itertools.permutations(range(d), 2):
                coef = p[x][i] * p[y][j]
                if not coef:
                    continue
                w = alpha0[(x, y)] if x < y else [-t for t in alpha0[(y, x)]]
                v = [vi + coef * wi for vi, wi in zip(v, w)]
            alpha[(i, j)] = v
        return alpha0, alpha

    def spliced(self, g, ses, alpha):
        """The crossed module (mid, K^b (+)_alpha g, (beta, 0))."""
        b, d = ses["b"], g["dim"]
        n = b + d
        c = _structure(n)
        for i, j in itertools.permutations(range(d), 2):
            val = alpha[(i, j)] if i < j else [-x for x in alpha[(j, i)]]
            c[b + i][b + j] = list(val) + list(g["c"][i][j])
        lname = self.doc.algebra(self.fresh("ext_"), c)
        m = ses["a"] + b
        act = [zeros(m, m) for _ in range(b)] + ses["action"]
        vname = self.doc.module(self.fresh("v"), lname, m, action=act)
        partial = [list(row) for row in ses["beta_m"]] + \
            [[ZERO] * m for _ in range(d)]
        name = self.fresh("cm")
        self.doc.d["crossed_modules"][name] = {"L": lname, "V": vname,
                                               "partial": mat_out(partial)}
        return name

    def zero_cm(self, g, module, mdim):
        name = self.fresh("zcm")
        self.doc.d["crossed_modules"][name] = {
            "L": g["name"], "V": module,
            "partial": mat_out(zeros(g["dim"], mdim))}
        return name

    def emit(self, expect, **cmd):
        self.doc.command(**cmd)
        self.expect.append(expect)

    def abelian_connecting_zero(self, g, ses, alpha0):
        """For abelian g with trivial head and tail, H^3 = C^3 and the
        connecting class is phi ^ (C alpha): decide whether it is zero."""
        if not g["std"].startswith("abelian"):
            return None
        d, a = g["dim"], ses["a"]
        phi, cpl = ses["phi0"], ses["coupling"]
        for i, j, k in itertools.combinations(range(d), 3):
            for r in range(a):
                def ca(x, y):
                    return sum((cpl[r][t] * alpha0[(x, y)][t]
                                for t in range(ses["b"])), ZERO)
                if phi[i] * ca(j, k) - phi[j] * ca(i, k) + phi[k] * ca(i, j):
                    return False
        return True

    # --- plan items
    def item(self, kind, size, idx):
        pool = FIXTURE_ALGEBRAS if size == "fix" else TAIL_ALGEBRAS
        gname = pool[idx % len(pool)]
        if kind in ("yoneda", "baer2", "baer3", "pushout") and gname == "sl2":
            gname = "heis3"
        g = self.algebra(gname)
        b3 = g["betti"][3] if len(g["betti"]) > 3 else 0
        if kind == "zero":
            if size == "fix":
                m = 1 + idx % 2
                mod = self.adjoint(g) if idx % 3 == 0 else self.trivial(g, m)
                mdim = g["dim"] if idx % 3 == 0 else m
                trivial = idx % 3 != 0 or gname.startswith("abelian")
            else:
                mdim = 3 + idx % 4 if gname != "abelian6" else 3
                mod, trivial = self.trivial(g, mdim), True
            cm = self.zero_cm(g, mod, mdim)
            base = {"induced_g_dim": g["dim"], "induced_m_dim": mdim,
                    "class_is_zero": True}
            cl = dict(base)
            if trivial:
                cl["dim_h3"] = b3 * mdim
            elif gname == "sl2":
                cl["dim_h3"] = 0
            self.emit(cl, op="classify", crossed_module=cm)
            self.emit(dict(base, theta_zero=True), op="theta", crossed_module=cm)
        elif kind == "ident":
            ad = self.adjoint(g)
            cm = self.fresh("icm")
            self.doc.d["crossed_modules"][cm] = {
                "L": g["name"], "V": ad, "partial": mat_out(identity(g["dim"]))}
            base = {"induced_g_dim": 0, "induced_m_dim": 0,
                    "class_is_zero": True}
            self.emit(dict(base, dim_h3=0), op="classify", crossed_module=cm)
            self.emit(dict(base, theta_zero=True), op="theta", crossed_module=cm)
        elif kind == "yoneda":
            a, b = (1, 1) if size == "fix" else (1 + idx % 3, 2 + idx % 2)
            ses = self.sequence(g, a, b, split=idx % 4 == 3)
            exact = not g["std"].startswith("abelian") and idx % 2 == 0
            coc, alpha, alpha0 = self.cocycle(g, ses, exact)
            zero = True if ses["split"] or exact else \
                self.abelian_connecting_zero(g, ses, alpha0)
            conn = {"degree": 3}
            if zero is not None:
                conn["class_is_zero"] = zero
            self.emit(conn, op="connecting", sequence=ses["name"], cochain=coc)
            self.emit({"matches_connecting": True, "v_dim": a + b,
                       "l_dim": b + g["dim"]},
                      op="yoneda", sequence=ses["name"], cochain=coc)
            cm = self.spliced(g, ses, alpha)
            cl = {"induced_g_dim": g["dim"], "induced_m_dim": a,
                  "dim_h3": b3 * a}
            if zero is not None:
                cl["class_is_zero"] = zero
            self.emit(cl, op="classify", crossed_module=cm)
            th = {k: v for k, v in cl.items() if k != "dim_h3"}
            self.emit(th, op="theta", crossed_module=cm)
        elif kind == "baer2":
            a, b = (1, 1)
            ses = self.sequence(g, a, b, split=False)
            exact = not g["std"].startswith("abelian") and idx % 2 == 0
            names, zeros = [], []
            for _ in range(2):
                _, alpha, alpha0 = self.cocycle(g, ses, exact)
                names.append(self.spliced(g, ses, alpha))
                zeros.append(True if exact else
                             self.abelian_connecting_zero(g, ses, alpha0))
            first = len(self.expect)
            for cm, zero in zip(names, zeros):
                cl = {"induced_g_dim": g["dim"], "induced_m_dim": a}
                if zero is not None:
                    cl["class_is_zero"] = zero
                self.emit(cl, op="classify", crossed_module=cm)
            self.emit({"v_dim": a + 2 * b, "l_dim": 2 * b + g["dim"],
                       "canonical_sum_of": [first, first + 1]},
                      op="baer-sum", left=names[0], right=names[1])
        elif kind == "baer3":
            a, b = 1, 1
            head = None
            exts = []
            for t in range(2):
                ses = self.sequence(g, a, b, split=t == 1 and idx % 2 == 0)
                if head is None:
                    head = ses["head"]
                else:  # both extensions must share one kernel module
                    ses["head"] = head
                    self.doc.d["morphisms"][ses["alpha"]]["source"] = head
                base = self.zero_cm(g, ses["tail"], b)
                name = self.fresh("ext")
                self.doc.d["extensions"][name] = {
                    "n": 3, "g": g["name"], "M": head,
                    "f": mat_out(ses["alpha_m"]),
                    "chain": [{"module": ses["mid"],
                               "map": mat_out(ses["beta_m"])}],
                    "base": base, "pi": mat_out(identity(g["dim"]))}
                exts.append(name)
            self.emit({"n": 3, "top_dim": a + 2 * b, "base_dim": g["dim"]},
                      op="baer-sum", left=exts[0], right=exts[1])
        elif kind == "pushout":
            a = 1 if size == "fix" else 2 + idx % 2
            b = 1 if size == "fix" else 2
            s1 = self.sequence(g, a, b, split=False)
            s2 = self.sequence(g, a, b + (idx % 2), split=idx % 3 == 0)
            self.doc.d["morphisms"][s2["alpha"]]["source"] = s1["head"]
            # dim of the pushout: dim B + dim C - rank of the graph of (f, -g)
            f, gm = s1["alpha_m"], s2["alpha_m"]
            graph = [[f[r][t] for r in range(len(f))] +
                     [-gm[r][t] for r in range(len(gm))] for t in range(a)]
            dim = len(f) + len(gm) - rank(graph)
            self.emit({"dim": dim}, op="pushout", f=s1["alpha"], g=s2["alpha"])
        else:
            raise ValueError(kind)


def mix(seed):
    """Return (document text, per-command expectations)."""
    m = _Mix(seed)
    idx = 0
    for _ in range(ROUNDS):
        for kind, size in PLAN_ROUND:
            m.item(kind, size, idx)
            idx += 1
    return m.doc.dumps(), m.expect


def generate(workload, seed):
    """Return (document text, extra CLI arguments, expectations)."""
    if workload == "ladder-q":
        return ladder(seed), [], ladder_expectations()
    if workload == "ladder-fp":
        return ladder(seed), ["--field", "p:2147483647"], ladder_expectations()
    if workload == "crossed-mix":
        text, expect = mix(seed)
        return text, [], expect
    raise ValueError(f"unknown workload {workload!r}")
