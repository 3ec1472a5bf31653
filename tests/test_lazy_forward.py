"""A home module serves the names of its lazy layer with no list of them:
`crossedext._forward(home, lazy)` reads any global of the layer, refuses a
dunder without running the layer, and names the home in the AttributeError
for any other name the layer lacks."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# the importing statements, then which of the lazy modules have run; a lazy
# module that never ran is of a ModuleType subclass, read with type()
PROBE = """
import importlib, json, sys, types
from crossedext.linalg import rref
from crossedext.algebra import validate_module
from crossedext.field import QQ
# the module, not the package's `cohomology`, which is the function
assert not hasattr(importlib.import_module("crossedext.cohomology"),
                   "__path__")
print(json.dumps({n: type(sys.modules[f"crossedext.{n}"]) is types.ModuleType
                  for n in ("_spaces", "_classes", "_maps", "_serializer",
                            "_fp", "crossed", "extensions")}))
"""


def test_importing_from_a_home_runs_no_lazy_module():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert not any(json.loads(proc.stdout).values())


@pytest.mark.parametrize("home", ["linalg", "algebra", "cohomology",
                                  "workspace", "field"])
def test_an_unknown_name_is_refused_by_its_home(home):
    module = importlib.import_module(f"crossedext.{home}")
    with pytest.raises(AttributeError, match=f"'crossedext.{home}'"):
        getattr(module, "no_such_name")


def test_a_home_serves_what_its_layer_imports():
    from crossedext import algebra, linalg
    assert algebra.LinearMap is linalg.LinearMap
