#!/usr/bin/env python3
"""Print the SHA-256 of the `crossed-ext report --format json` bytes of a
benchmark workload, one `SEED SHA256 EXIT` line per seed.

    python3 scripts/report_hashes.py WORKLOAD FIRST LAST [--src DIR]
                                     [--field SPEC]

The documents are those of the benchmark: perfbench/gen.py (standard
library only) is loaded from its file and only called.  Each report runs in
a fresh interpreter that imports crossedext from DIR, this checkout's src/
by default, so that two checkouts are compared with one diff:

    python3 scripts/report_hashes.py crossed-mix 1 40 --src OLD/src > old.txt
    python3 scripts/report_hashes.py crossed-mix 1 40 > new.txt
    diff old.txt new.txt

--field SPEC is passed to every report after the generator's own
arguments, so it overrides theirs: `crossed-mix 1 10 --field p:2147483647`
hashes the F_p twin of the crossed-mix reports.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from _gen import perfbench_gen

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder-q", "ladder-fp", "crossed-mix")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("first", type=int)
    ap.add_argument("last", type=int)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the directory crossedext is imported from")
    ap.add_argument("--field", help="a field selector for every report, "
                    "after the generator's arguments")
    args = ap.parse_args()
    field = [] if args.field is None else ["--field", args.field]
    gen = perfbench_gen()
    # no __pycache__ is written into DIR
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        for seed in range(args.first, args.last + 1):
            text, extra, _ = gen.generate(args.workload, seed)
            doc.write_text(text)
            proc = subprocess.run(
                [sys.executable, "-m", "crossedext.cli", "report", "--input",
                 str(doc), "--format", "json"] + extra + field,
                capture_output=True, env=env)
            digest = hashlib.sha256(proc.stdout).hexdigest()
            print(f"{seed} {digest} {proc.returncode}", flush=True)


if __name__ == "__main__":
    main()
