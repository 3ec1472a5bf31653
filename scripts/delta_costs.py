#!/usr/bin/env python3
"""Print what each coboundary of a benchmark document's cohomology tables
costs to emit and to rank.

    python3 scripts/delta_costs.py WORKLOAD SEED [--field SPEC] [--src DIR]

The document is the benchmark's (perfbench/gen.py, standard library only,
loaded from its file); --field SPEC replaces the generator's field, as in
scripts/report_hashes.py, and crossedext is imported from DIR, this
checkout's src/ by default.  For each `cohomology` command, in document
order, and each degree n of its table (max_degree, capped as the CLI caps
it), one line gives the module, n, the shape ROWSxCOLS of delta_n, its
nonzeros, its rank, and the best of 5 timings, in milliseconds, of its
emission (`coboundary_matrix`) and of its rank (`linalg.rank`).  For a CE
module whose algebra has a torus, three more columns give the weight-0
block that `cohomology_table` eliminates instead, ROWSxCOLS (its weight-0
rows and columns), and its emission and rank in milliseconds; they read
`-` for a table that takes the full coboundaries.  A command
that fails (an unknown name, a module over another algebra, a table over
the work budget) is skipped; see `crossed-ext report` for its record.  A
document that does not parse (say under --field p:4) gives a message and
exit status 1.
"""
import argparse
import sys
import time
from pathlib import Path

from _gen import perfbench_gen

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder-q", "ladder-fp", "crossed-mix")
REPEAT = 5


def best_ms(fn, *args):
    """(fn(*args), the least of REPEAT timings of it in milliseconds)."""
    best = None
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        out = fn(*args)
        t = time.perf_counter() - t0
        best = t if best is None else min(best, t)
    return out, best * 1e3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--field", help="a field selector that replaces the "
                    "generator's")
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the directory crossedext is imported from")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from crossedext.cli import DEFAULT_DEGREE_CAP, run_command
    from crossedext.cohomology import CE, _weight_zero, coboundary_matrix
    from crossedext.errors import CheckFailure
    from crossedext.linalg import rank
    from crossedext.workspace import parse_workspace

    text, extra, _ = perfbench_gen().generate(args.workload, args.seed)
    field = args.field
    if field is None and "--field" in extra:
        field = extra[extra.index("--field") + 1]
    try:
        ws = parse_workspace(text, field)
    except CheckFailure as exc:
        print(f"the document does not parse: {exc}", file=sys.stderr)
        return 1
    print(f"{'module':16} {'n':>2} {'shape':>11} {'nnz':>7} {'rank':>6} "
          f"{'emit_ms':>9} {'rank_ms':>9} {'w0_shape':>9} {'w0_emit_ms':>10} "
          f"{'w0_rank_ms':>10}")
    for cmd in ws.commands:
        if cmd.get("op") != "cohomology" or \
                run_command(ws, cmd)[0]["status"] != "PASS":
            continue
        M = ws.modules[cmd["module"]]
        top = min(cmd.get("max_degree", DEFAULT_DEGREE_CAP),
                  DEFAULT_DEGREE_CAP)
        zero = M.flavor == CE and _weight_zero(M, top + 1)
        for n in range(top + 1):
            d, emit_ms = best_ms(coboundary_matrix, M, n)
            r, rank_ms = best_ms(rank, d)
            m = d.matrix
            nnz = sum(map(len, m._ints[0]))
            w0 = "-", "-", "-"
            if zero:
                d0, w0_emit = best_ms(coboundary_matrix, M, n, zero[n + 1])
                w0_cols = sum(len(coords) for _, coords in zero[n])
                w0 = (f"{d0.codomain_dim}x{w0_cols}", f"{w0_emit:.3f}",
                      f"{best_ms(rank, d0)[1]:.3f}")
            print(f"{cmd['module']:16} {n:2} {f'{m.rows}x{m.cols}':>11} "
                  f"{nnz:7} {r:6} {emit_ms:9.3f} {rank_ms:9.3f} "
                  f"{w0[0]:>9} {w0[1]:>10} {w0[2]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
