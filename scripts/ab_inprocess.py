#!/usr/bin/env python3
"""Time two checkouts of crossedext against each other in one interpreter,
round by round, on one or more benchmark documents.

    python3 scripts/ab_inprocess.py OLD_SRC NEW_SRC WORKLOAD --seeds 1,2,3
                                    [--field SPEC] [--rounds N]

OLD_SRC and NEW_SRC are the directories crossedext is imported from (a
checkout's src/).  Each is loaded under its own package name, which works
because the package imports itself only relatively.  The document is the
benchmark's (perfbench/gen.py, standard library only, loaded from its
file); --field SPEC replaces the generator's field, as in
scripts/report_hashes.py.  Each round parses the document and runs its
`report` commands once per checkout, the two in alternating order, so that
a drift of the host's speed falls on both sides of a pair alike.  The output
is, for each seed, the median of each side's parse and command seconds and
the median of the paired NEW/OLD ratios; with more than one seed (--seeds,
a comma-separated list, each seed taking its turn in every round) it ends
with the median of all seeds' paired ratios together.  The exit status is
1, after a message, if the two checkouts' records differ in any round.
"""
import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path

from _gen import perfbench_gen

WORKLOADS = ("ladder-q", "ladder-fp", "crossed-mix")


def load(src, name):
    """The (workspace, cli) modules of the crossedext in directory src,
    imported as the package `name`."""
    pkg_dir = Path(src).resolve() / "crossedext"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    pkg = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pkg)
    return (importlib.import_module(f"{name}.workspace"),
            importlib.import_module(f"{name}.cli"))


# the columns of the output: parse, command and total seconds of a report
PARTS = (("parse", lambda t: t[0]), ("commands", lambda t: t[1]),
         ("total", sum))


def measure(side, text, field):
    """(parse seconds, command seconds, records) of one report."""
    workspace, cli = side
    gc.collect()
    t0 = time.perf_counter()
    ws = workspace.parse_workspace(text, field)
    t1 = time.perf_counter()
    records = cli.run(ws, "report")
    t2 = time.perf_counter()
    return t1 - t0, t2 - t1, records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("--seeds", required=True, help="comma-separated seeds")
    ap.add_argument("--field", help="a field selector that replaces the "
                    "generator's")
    ap.add_argument("--rounds", type=int, default=10)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    docs = {}
    for seed in seeds:
        text, extra, _ = perfbench_gen().generate(args.workload, seed)
        field = args.field
        if field is None and "--field" in extra:
            field = extra[extra.index("--field") + 1]
        docs[seed] = text, field
    sides = {"old": load(args.old_src, "crossedext_ab_old"),
             "new": load(args.new_src, "crossedext_ab_new")}
    times = {seed: {"old": [], "new": []} for seed in seeds}
    for r in range(max(args.rounds, 1)):
        order = ("old", "new") if r % 2 == 0 else ("new", "old")
        for seed, (text, field) in docs.items():
            got = {}
            for key in order:
                parse_s, cmd_s, records = measure(sides[key], text, field)
                times[seed][key].append((parse_s, cmd_s))
                got[key] = json.dumps(records, sort_keys=True)
            if got["old"] != got["new"]:
                print(f"round {r}, seed {seed}: the two checkouts' records "
                      "differ", file=sys.stderr)
                return 1
    ratios = {part: [] for part, _ in PARTS}
    for seed, (_, field) in docs.items():
        old_t, new_t = times[seed]["old"], times[seed]["new"]
        print(f"{args.workload} seed {seed}"
              + (f" field {field}" if field else "")
              + f", {len(old_t)} rounds")
        for part, pick in PARTS:
            old = [pick(t) for t in old_t]
            new = [pick(t) for t in new_t]
            paired = [n / o for n, o in zip(new, old)]
            ratios[part] += paired
            print(f"{part:9} old {statistics.median(old):.4f} s  "
                  f"new {statistics.median(new):.4f} s  "
                  f"new/old {statistics.median(paired):.3f}")
    if len(seeds) > 1:
        print(f"{args.workload} seeds {','.join(map(str, seeds))} pooled, "
              f"{sum(len(times[s]['old']) for s in seeds)} pairs")
        for part, _ in PARTS:
            print(f"{part:9} new/old {statistics.median(ratios[part]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
