"""Per-layer spans for a traced crossedext run, installed from outside.

Each target function is replaced, by object identity, in every loaded
`crossedext.*` namespace that binds it (so `from .linalg import solve`
copies are caught too); `Subspace` and `Matrix` methods are patched on the
class.  A span's self time is its duration minus the time of the spans it
encloses.  Counters (shapes, nonzeros, hashes for the distinct ratios) are
computed after the span's clock stops and are charged to `bookkeeping`, not
to any layer.

Tiny helpers called in inner loops (vec_*, basis_vector, block_diag, the
cochain index helpers, and every Matrix method but `@`) are left unwrapped:
their time is part of the caller's self time.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# bucket -> {module: [qualified names]}.  Every public function of the seven
# layers reachable from the CLI is listed; a name missing from the code is
# skipped, so a refactor that deletes one does not break the trace.
BUCKETS = {
    "linalg.rref": {"linalg": ["rref"]},
    "linalg.solve": {"linalg": ["solve", "solve_matrix", "linear_section"]},
    "linalg.reduce": {"linalg": ["Subspace.reduce", "Subspace.coordinates",
                                 "Subspace.contains",
                                 "Subspace.contains_space"]},
    "linalg.subspace": {"linalg": ["kernel", "image", "rank", "quotient",
                                   "Subspace.from_rows", "Subspace.extended",
                                   "Subspace.sum", "Subspace.zero_space",
                                   "Subspace.full_space"]},
    "linalg.matmul": {"linalg": ["Matrix.__matmul__"]},
    "cohomology.build": {"cohomology": ["coboundary_matrix",
                                        "ce_coboundary_matrix",
                                        "leibniz_coboundary_matrix",
                                        "coboundary"]},
    "cohomology.class": {"cohomology": ["class_of", "cohomology",
                                        "cohomology_table",
                                        "coboundary_witness", "map_class"]},
    "cohomology.connecting": {"cohomology": ["connecting_hom"]},
    "cohomology.cochain": {"cohomology": ["cochain_from_values",
                                          "map_coefficients", "zero_cochain",
                                          "h0_invariants"]},
    "cohomology.splice": {"cohomology": ["abelian_extension_from_2cocycle"]},
    "cohomology.validate": {"cohomology": ["validate_ses"]},
    "workspace.parse": {"workspace": ["parse_workspace",
                                      "serialize_workspace"]},
    "algebra.validate": {"algebra": ["validate_lie", "validate_leibniz",
                                     "validate_module",
                                     "validate_leibniz_module",
                                     "validate_morphism"]},
    "algebra.build": {"algebra": ["trivial_rep", "adjoint", "leibniz_adjoint",
                                  "leibniz_from_lie", "leibniz_rep_from_lie",
                                  "direct_sum_reps"]},
    "crossed.validate": {"crossed": ["validate_crossed",
                                     "validate_presentation",
                                     "check_crossed_morphism"]},
    "crossed.induced_pair": {"crossed": ["induced_pair",
                                         "zero_crossed_module",
                                         "negate_crossed"]},
    "crossed.theta": {"crossed": ["theta", "leibniz_theta", "classify2",
                                  "choose_sections", "perturbed_sections"]},
    "crossed.yoneda": {"crossed": ["yoneda_crossed_module"]},
    "extensions.validate": {"extensions": ["validate_extension",
                                           "check_extension_morphism"]},
    "extensions.pushout": {"extensions": ["pushout", "push_forward",
                                          "mediate"]},
    "extensions.baer_sum": {"extensions": ["baer_sum", "baer_sum_n2",
                                           "sum_over_g"]},
    "extensions.split_detect": {"extensions": ["split_detect"]},
    "extensions.build": {"extensions": ["zero_extension", "negate",
                                        "opext_connecting", "ident_alg"]},
    "cli.dispatch": {"cli": ["main", "run", "run_command"]},
    "cli.emit": {"cli": ["_emit", "render_human"]},
}

OPS = ("check", "cohomology", "theta", "classify", "baer-sum", "pushout",
       "connecting", "yoneda")


def _nnz(rows):
    return sum(1 for row in rows for x in row if x)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []              # [bucket, child seconds] per open span
        self.self_s = defaultdict(float)
        self.entries = Counter()     # entries into a bucket from outside it
        self.calls = Counter()       # calls per wrapped function
        self.counts = Counter()
        self.op_s = defaultdict(float)
        self.bookkeeping_s = 0.0
        self.installed = {}          # bucket -> number of functions wrapped
        self._solve_keys = set()
        self._build_keys = set()

    # ------------------------------------------------------------ hooks
    def _hook(self, key, args, result, elapsed):
        if key == "linalg.rref":
            m, (r, piv) = args[0], result
            self.counts["rref_cells"] += m.rows * m.cols
            self.counts["rref_nnz_in"] += _nnz(m.data)
            self.counts["rref_nnz_out"] += _nnz(r.data)
            self.counts["rref_rank"] += len(piv)
        elif key == "linalg.solve":
            self._solve_keys.add(hash(args[0].matrix))
        elif key in ("cohomology.ce_coboundary_matrix",
                     "cohomology.leibniz_coboundary_matrix"):
            alg, mod, n = args[0], args[1], args[2]
            acts = (mod.left, mod.right) if hasattr(mod, "left") else mod.action
            self._build_keys.add(hash((key, alg.c, hash(acts), n)))
            self.counts["build_calls"] += 1
            self.counts["build_nnz"] += _nnz(result.matrix.data)
        elif key == "cli.run_command":
            self.op_s[args[1].get("op")] += elapsed

    # ---------------------------------------------------------- install
    def wrap(self, fn, bucket, key):
        tracer = self
        clock = self.clock
        stack = self.stack
        hooked = key in ("linalg.rref", "linalg.solve", "cli.run_command",
                         "cohomology.ce_coboundary_matrix",
                         "cohomology.leibniz_coboundary_matrix")

        def span(*args, **kwargs):
            t0 = clock()
            outer = stack[-1][0] if stack else None
            stack.append([bucket, 0.0])
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                frame = stack.pop()
                tracer.self_s[bucket] += t1 - t0 - frame[1]
                tracer.calls[key] += 1
                if outer != bucket:
                    tracer.entries[bucket] += 1
                if ok and hooked:
                    tracer._hook(key, args, result, t1 - t0)
                t2 = clock()
                tracer.bookkeeping_s += t2 - t1
                if stack:
                    stack[-1][1] += t2 - t0

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", "span")
        return span

    def install(self):
        """Wrap every target in every loaded crossedext namespace."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and
                (name == "crossedext" or name.startswith("crossedext."))}
        for bucket, targets in BUCKETS.items():
            for short, names in targets.items():
                home = mods.get(f"crossedext.{short}")
                if home is None:
                    continue
                for qual in names:
                    if "." in qual:
                        self._install_method(home, qual, bucket, short)
                        continue
                    fn = getattr(home, qual, None)
                    if fn is None:
                        continue
                    wrapper = self.wrap(fn, bucket, f"{short}.{qual}")
                    for mod in mods.values():
                        for attr, val in list(vars(mod).items()):
                            if val is fn:
                                setattr(mod, attr, wrapper)
                    self.installed[bucket] = self.installed.get(bucket, 0) + 1

    def _install_method(self, home, qual, bucket, short):
        cls_name, meth = qual.split(".")
        cls = getattr(home, cls_name, None)
        if cls is None or meth not in vars(cls):
            return
        raw = vars(cls)[meth]
        key = f"{short}.{qual}"
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.wrap(raw.__func__, bucket, key)))
        else:
            setattr(cls, meth, self.wrap(raw, bucket, key))
        self.installed[bucket] = self.installed.get(bucket, 0) + 1

    # ---------------------------------------------------------- results
    def metrics(self):
        """Per-layer metrics, keyed by their BENCHMARK.json names (without
        the trace.* wall-clock metrics, which the parent process adds)."""
        c, calls = self.counts, self.calls
        out = {f"{b}_s": self.self_s.get(b, 0.0) for b in BUCKETS}
        nnz_in = c["rref_nnz_in"]
        solves = calls["linalg.solve"]
        builds = c["build_calls"]
        out.update({
            "linalg.rref_calls": calls["linalg.rref"],
            "linalg.rref_cells": c["rref_cells"],
            "linalg.rref_nnz_in": nnz_in,
            "linalg.rref_fill": c["rref_nnz_out"] / nnz_in if nnz_in else 0.0,
            "linalg.rref_rank": c["rref_rank"],
            "linalg.solve_calls": solves,
            "linalg.solve_distinct_ratio":
                len(self._solve_keys) / solves if solves else 1.0,
            "linalg.reduce_calls": self.entries["linalg.reduce"],
            "linalg.matmul_calls": calls["linalg.Matrix.__matmul__"],
            "cohomology.build_calls": builds,
            "cohomology.build_nnz": c["build_nnz"],
            "cohomology.build_reuse_ratio":
                len(self._build_keys) / builds if builds else 1.0,
            "cohomology.class_calls": self.entries["cohomology.class"],
            "algebra.validate_calls": self.entries["algebra.validate"],
        })
        for op in OPS:
            out[f"cli.op.{op}_s"] = self.op_s.get(op, 0.0)
        return out

    def entered(self):
        return {b for b in BUCKETS if self.entries[b]}
