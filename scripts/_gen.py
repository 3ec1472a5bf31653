"""The benchmark's document generator, shared by the scripts:
perfbench/gen.py needs the standard library only and never imports
crossedext, so it is loaded from its file and only called."""
import functools
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def perfbench_gen():
    """perfbench/gen.py, loaded once."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen
