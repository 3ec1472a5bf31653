"""Helpers shared by the test modules: the benchmark's document generator
`perfbench/gen.py`, and a hypothesis strategy of field scalars."""
import functools
import importlib.util
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from crossedext.field import QQ

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def perfbench_gen():
    """perfbench/gen.py, loaded once.  It needs the standard library only
    and never imports crossedext, so the documents are generated here
    exactly as the benchmark generates them."""
    spec = importlib.util.spec_from_file_location("perfbench_gen",
                                                  PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def scalars(field):
    """Mostly zero; over Q with denominators 1 to 6."""
    if field is QQ:
        value = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    else:
        value = st.integers(-field.p, field.p).map(field.of)
    return st.one_of(st.just(field.zero), value)
