"""What a CLI process loads: a cohomology-only document never imports
`dataclasses` or `inspect` and never executes `crossed.py` or
`extensions.py`; a document with crossed modules and extensions executes
both.  Each run is a fresh interpreter started with -S, so that only the
imports of crossedext and the CLI are counted, not those of `site`."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# Runs `crossed-ext ARGS...` and writes what it loaded to the file OUT:
#   python -S -c DRIVER OUT ARGS...
# A lazy module that never ran is still of a ModuleType subclass; type()
# reads that without loading it, where any attribute access would load it.
DRIVER = """
import json, sys, types
import crossedext.cli as cli
rc = cli.main(sys.argv[2:])
executed = {name: type(sys.modules[f"crossedext.{name}"]) is types.ModuleType
            for name in ("crossed", "extensions")}
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "executed": executed,
               "imported": [m for m in ("dataclasses", "inspect")
                            if m in sys.modules]}, fh)
"""


def _gen():
    """perfbench/gen.py, which needs the standard library only."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _check(workload, tmp_path):
    text, extra, _ = _gen().generate(workload, 1)
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    out = tmp_path / "loaded.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", DRIVER, str(out), "check", "--input",
         str(doc), "--format", "json"] + extra,
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(out.read_text())
    assert res["rc"] == 0
    return res


def test_a_ladder_check_loads_no_crossed_code_and_no_dataclasses(tmp_path):
    res = _check("ladder-q", tmp_path)
    assert res["imported"] == []
    assert res["executed"] == {"crossed": False, "extensions": False}


def test_a_crossed_mix_check_executes_crossed_and_extensions(tmp_path):
    res = _check("crossed-mix", tmp_path)
    assert res["imported"] == []
    assert res["executed"] == {"crossed": True, "extensions": True}
