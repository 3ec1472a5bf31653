"""The example scripts run end to end against the package under test, and
scripts/report_hashes.py prints the benchmark's manifest hash."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossedext

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
