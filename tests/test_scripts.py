"""The example scripts run end to end against the package under test."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossedext

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["classify_demo.py",
                                    "cohomology_tables.py"])
def test_script_runs(script):
    # the child imports the same crossedext as this process, installed or not
    src = str(Path(crossedext.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
