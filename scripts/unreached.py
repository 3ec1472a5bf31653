#!/usr/bin/env python3
"""Print the top-level definitions of crossedext that a benchmark
document's `report` and `check` runs execute but never call.

    python3 scripts/unreached.py WORKLOAD SEED [--field SPEC] [--src DIR]

The document is the benchmark's (perfbench/gen.py, standard library only,
loaded from its file).  Each command runs in a fresh interpreter that
imports crossedext from DIR, this checkout's src/ by default, under
`sys.setprofile`, which records every Python function entered.  A module
counts as executed when its code ran in either process (a lazy module that
was never read did not run).  A top-level function is reached when it was
entered, and a class when one of its own methods was, so a class that only
inherits its methods is always listed.  The output lists each executed
module with its lines, then each unreached definition with its lines,
decorators and docstring included, and ends with

    total  UNREACHED of EXECUTED lines

--field SPEC is passed after the generator's own arguments, as in
scripts/report_hashes.py.
"""
import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from _gen import perfbench_gen

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ladder-q", "ladder-fp", "crossed-mix")

# python -c DRIVER OUT ARGS...: runs `crossed-ext ARGS...` and writes the
# executed crossedext modules and the (file, first line) of every entered
# function to OUT
DRIVER = """
import json, os, sys, types
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import crossedext.cli as cli
with open(os.devnull, "w") as sink:
    sys.stdout = sink
    rc = cli.main(sys.argv[2:])
    sys.stdout = sys.__stdout__
sys.setprofile(None)
ran = {n: m.__file__ for n, m in sys.modules.items()
       if type(m) is types.ModuleType
       and (n == "crossedext" or n.startswith("crossedext."))}
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "modules": ran, "entered": sorted(entered)}, fh)
"""


def _first_line(node):
    """The line a definition's code object starts at: its first decorator's
    line, if it has any."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def unreached(path, entered):
    """[(name, lines)] of the top-level definitions of the module at path
    that entered, a set of (file, first line), never reaches."""
    out = []
    for node in ast.parse(Path(path).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs = [node]
        elif isinstance(node, ast.ClassDef):
            defs = [n for n in node.body if isinstance(
                n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        else:
            continue
        if not any((path, _first_line(d)) in entered for d in defs):
            out.append((node.name, node.end_lineno - _first_line(node) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("workload", choices=WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="the directory crossedext is imported from")
    ap.add_argument("--field", help="a field selector for both runs, "
                    "after the generator's arguments")
    args = ap.parse_args()
    field = [] if args.field is None else ["--field", args.field]
    text, extra, _ = perfbench_gen().generate(args.workload, args.seed)
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               PYTHONDONTWRITEBYTECODE="1")
    modules, entered = {}, set()
    with tempfile.TemporaryDirectory() as tmp:
        doc, out = Path(tmp) / "doc.json", Path(tmp) / "out.json"
        doc.write_text(text)
        for command in ("report", "check"):
            proc = subprocess.run(
                [sys.executable, "-c", DRIVER, str(out), command, "--input",
                 str(doc), "--format", "json"] + extra + field,
                capture_output=True, text=True, env=env)
            if proc.returncode != 0:
                sys.exit(f"{command} failed:\n{proc.stderr}")
            res = json.loads(out.read_text())
            modules.update(res["modules"])
            entered.update(map(tuple, res["entered"]))
    executed = missed = 0
    rows = []
    for name, path in sorted(modules.items()):
        lines = Path(path).read_text().count("\n")
        executed += lines
        print(f"executed  {name:<24}{lines:>6}")
        for definition, count in unreached(path, entered):
            missed += count
            rows.append(f"unreached {Path(path).name:<24}{definition:<32}"
                        f"{count:>6}")
    for row in rows:
        print(row)
    print(f"total  {missed} of {executed} lines")


if __name__ == "__main__":
    main()
