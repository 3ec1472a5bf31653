"""The layer contract of the benchmark's tracer, checked on every test run.

perfbench/run.py --trace 1 reports a problem when a layer that
manifest.json's `layers_entered` lists for a workload is wrapped but never
entered, or when a wrapped layer is listed for no workload.  These tests run
`perfbench/probe.py trace` on the seed-1 document of each workload, as the
benchmark does, and make the same two checks, so a refactor that stops
entering a layer (say `linalg.rref` or `linalg.matmul`) fails here and not
only in a traced benchmark run.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import perfbench_gen

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
MANIFEST = json.loads((PERFBENCH / "manifest.json").read_text())


@pytest.mark.parametrize("workload", sorted(MANIFEST["layers_entered"]))
def test_traced_run_enters_every_listed_layer(workload, tmp_path):
    text, extra, _ = perfbench_gen().generate(workload, 1)
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), "trace", str(doc),
         str(tmp_path / "report.json"), str(out)] + extra,
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(out.read_text())
    entered = MANIFEST["layers_entered"]
    installed = set(res["installed"])
    # a listed layer must be wrapped, not only entered when it is wrapped
    assert set(entered[workload]) <= installed
    never_entered = (set(entered[workload]) & installed) - set(res["entered"])
    assert sorted(never_entered) == []
    assert sorted(installed - set().union(*entered.values())) == []
