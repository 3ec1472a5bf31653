"""The example scripts run end to end against the package under test,
scripts/report_hashes.py prints the benchmark's manifest hash and passes
a field selector to every report,
scripts/src_size.py counts each line of the package once and refuses a
directory without modules, scripts/unreached.py lists what a ladder
run executes but never calls, scripts/ab_inprocess.py times two
checkouts in one interpreter and refuses two whose records differ, and
scripts/delta_costs.py lists each coboundary of a ladder with its rank and,
where the table is graded, its weight-0 block."""
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import shutil

import pytest

import crossedext
from crossedext import cli
from support import perfbench_gen

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# the SHA-256 of the seed-1 crossed-mix report over F_2147483647 (the
# manifest's report_sha256 pins the one over Q); with it tier-1 pins the
# bytes of the n = 2 and n = 3 Baer sums over both fields
CROSSED_MIX_FP_SEED_1 = \
    "e9407167ad91a53e5dfdc994ccfb32fa2d04852c0e76892f2212e03e7ba65594"


# the children import the same crossedext as this process, installed or not
SRC = str(Path(crossedext.__file__).resolve().parent.parent)


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


@pytest.mark.parametrize("script", ["classify_demo.py",
                                    "cohomology_tables.py"])
def test_script_runs(script):
    proc = _run(str(SCRIPTS / script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_report_hashes_prints_the_manifest_hash():
    manifest = json.loads((SCRIPTS.parent / "perfbench" /
                           "manifest.json").read_text())
    seed = manifest["default_seed"]
    want = manifest["workloads"]["ladder-fp"]["report_sha256"]
    proc = _run(str(SCRIPTS / "report_hashes.py"), "ladder-fp", str(seed),
                str(seed + 1), "--src", SRC)
    assert proc.returncode == 0, proc.stderr
    # the ladder report is the same for every seed
    assert proc.stdout.splitlines() == [f"{seed} {want} 0",
                                        f"{seed + 1} {want} 0"]


def test_report_hashes_passes_the_field_after_the_generators_arguments():
    manifest = json.loads((SCRIPTS.parent / "perfbench" /
                           "manifest.json").read_text())
    text, extra, _ = perfbench_gen().generate("crossed-mix", 1)
    assert extra == []
    # the F_p twin of the seed-1 crossed-mix report, against the same
    # report made in this process
    proc = _run(str(SCRIPTS / "report_hashes.py"), "crossed-mix", "1", "1",
                "--src", SRC, "--field", "p:2147483647")
    assert proc.returncode == 0, proc.stderr
    seed, digest, status = proc.stdout.split()
    assert (seed, status) == ("1", "0")
    assert digest != manifest["workloads"]["crossed-mix"]["report_sha256"]
    assert digest == CROSSED_MIX_FP_SEED_1
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["report", "--input", str(doc), "--format",
                             "json", "--field", "p:2147483647"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
    # ladder-fp's generator passes --field p:2147483647; a field given
    # here comes after it and wins: p:4 is not a field, and the report fails
    proc = _run(str(SCRIPTS / "report_hashes.py"), "ladder-fp", "1", "1",
                "--src", SRC, "--field", "p:4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[2] == "1"


def test_src_size_counts_every_line_once():
    spec = importlib.util.spec_from_file_location("src_size",
                                                  SCRIPTS / "src_size.py")
    src_size = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_size)
    paths = sorted(Path(crossedext.__file__).parent.glob("*.py"))
    for path in paths:
        counts = src_size.count(path)
        assert sum(counts.values()) == path.read_text().count("\n")
        assert counts["code"] and counts["blank"]
    # one line of each kind, and a string that is not a docstring
    text = ('"""doc\n\nstring"""\n\n# comment\nx = """a\nb"""  # c\n'
            'def f():\n    "one line"\n    return x\n')
    assert src_size.line_kinds(text) == [
        "docstring", "docstring", "docstring", "blank", "comment", "code",
        "code", "code", "docstring", "code"]
    proc = _run(str(SCRIPTS / "src_size.py"))
    assert proc.returncode == 0, proc.stderr
    total = proc.stdout.splitlines()[-1].split()
    assert total[0] == "total"
    assert int(total[-1]) == sum(p.read_text().count("\n") for p in paths)
    assert sum(map(int, total[1:5])) == int(total[-1])


def test_src_size_refuses_a_directory_without_modules(tmp_path):
    """src/ (the package is one level down), an empty directory and a
    missing one: exit status 2 and a message, not a zero total."""
    for where in (Path(SRC), tmp_path, tmp_path / "missing"):
        proc = _run(str(SCRIPTS / "src_size.py"), str(where))
        assert proc.returncode == 2, where
        assert proc.stdout == ""
        assert "holds no *.py module" in proc.stderr


def test_unreached_lists_what_a_ladder_run_never_calls():
    proc = _run(str(SCRIPTS / "unreached.py"), "ladder-q", "1", "--src", SRC)
    assert proc.returncode == 0, proc.stderr
    *rows, total = [line.split() for line in proc.stdout.splitlines()]
    executed = {r[1]: int(r[2]) for r in rows if r[0] == "executed"}
    missed = {(r[1], r[2]): int(r[3]) for r in rows if r[0] == "unreached"}
    assert len(executed) + len(missed) == len(rows)
    # the lazy layers never run on a ladder, and nor do the crossed handlers
    assert "crossedext.cohomology" in executed
    assert not {"crossedext._spaces", "crossedext._classes",
                "crossedext._maps", "crossedext.crossed"} & set(executed)
    assert missed[("cli.py", "_cmd_theta")] == 6
    assert ("cli.py", "_cmd_cohomology") not in missed
    assert ("cohomology.py", "cohomology_table") not in missed
    assert total == ["total", str(sum(missed.values())), "of",
                     str(sum(executed.values())), "lines"]


def test_ab_inprocess_compares_two_checkouts_in_one_process(tmp_path):
    proc = _run(str(SCRIPTS / "ab_inprocess.py"), SRC, SRC, "ladder-q",
                "--seeds", "1", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    head, *rows = proc.stdout.splitlines()
    assert head == "ladder-q seed 1, 2 rounds"
    assert [row.split()[0] for row in rows] == ["parse", "commands", "total"]
    assert all("new/old" in row for row in rows)
    # two seeds: one block per seed, then the pooled ratios of all pairs
    proc = _run(str(SCRIPTS / "ab_inprocess.py"), SRC, SRC, "ladder-q",
                "--seeds", "1,2", "--rounds", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [lines[0], lines[4], lines[8]] == [
        "ladder-q seed 1, 2 rounds", "ladder-q seed 2, 2 rounds",
        "ladder-q seeds 1,2 pooled, 4 pairs"]
    for block in (lines[1:4], lines[5:8], lines[9:]):
        assert [row.split()[0] for row in block] == \
            ["parse", "commands", "total"]
        assert all("new/old" in row for row in block)
    assert len(lines) == 12
    # the seeds are given only by --seeds
    proc = _run(str(SCRIPTS / "ab_inprocess.py"), SRC, SRC, "ladder-q", "1")
    assert proc.returncode == 2 and "--seeds" in proc.stderr
    # a checkout whose report gains a record differs from this one
    other = tmp_path / "src"
    shutil.copytree(Path(SRC) / "crossedext", other / "crossedext",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(other / "crossedext" / "cli.py", "a") as fh:
        fh.write("\n_run = run\n\n\n"
                 "def run(ws, which, degree_cap=DEFAULT_DEGREE_CAP):\n"
                 "    return _run(ws, which, degree_cap) + [{}]\n")
    proc = _run(str(SCRIPTS / "ab_inprocess.py"), SRC, str(other),
                "ladder-q", "--seeds", "1", "--rounds", "1")
    assert proc.returncode == 1
    assert "records differ" in proc.stderr


def test_delta_costs_lists_each_coboundary_of_a_ladder():
    text, _, _ = perfbench_gen().generate("ladder-q", 1)
    proc = _run(str(SCRIPTS / "delta_costs.py"), "ladder-q", "1", "--src",
                SRC)
    assert proc.returncode == 0, proc.stderr
    head, *rows = [line.split() for line in proc.stdout.splitlines()]
    assert head == ["module", "n", "shape", "nnz", "rank", "emit_ms",
                    "rank_ms", "w0_shape", "w0_emit_ms", "w0_rank_ms"]
    ws = crossedext.parse_workspace(text)
    want = [(cmd["module"], n, f"{dim_c}", r)
            for cmd in ws.commands
            for n, dim_c, r, _ in crossedext.cohomology_table(
                ws.modules[cmd["module"]], cmd["max_degree"])]
    assert len(rows) == len(want) == 28
    assert [(row[0], int(row[1]), row[2].split("x")[1], int(row[4]))
            for row in rows] == want
    assert all(float(x) >= 0 for row in rows for x in row[5:7])
    # the weight-0 blocks the table eliminates: gl3's and sl2's, which
    # have a torus, and none of the Leibniz, heis3 and abelian4 tables
    w0 = {(row[0], int(row[1])): row[7:] for row in rows}
    assert w0["gl3_adjoint", 2][0] == "84x42"
    assert w0["gl3_trivial", 4][0] == "18x18"
    assert {m for (m, _), w in w0.items() if w != ["-"] * 3} == \
        {"gl3_adjoint", "gl3_trivial", "sl2_adjoint"}
    assert all(float(x) >= 0 for w in w0.values() if w[0] != "-"
               for x in w[1:])
    proc = _run(str(SCRIPTS / "delta_costs.py"), "ladder-q", "1", "--src",
                SRC, "--field", "p:4")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "does not parse" in proc.stderr and "Traceback" not in proc.stderr
