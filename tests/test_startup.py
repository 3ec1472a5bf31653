"""What a CLI process loads: a cohomology-only document never imports
`dataclasses` or `inspect` and never executes the lazy modules (`crossed`,
`extensions` and the layers `_spaces`, `_classes` and `_maps`); a document
with crossed modules and extensions executes all five.  Only a run over
F_p executes the prime fields, `_fp`.  No report executes
the serializer layer `_serializer`.  A ladder report executes at most
LADDER_LINES source lines of the package, and a crossed-mix report at most
MIX_LINES.  Each run is a fresh interpreter
started with -S, so that only the imports of crossedext and the CLI are
counted, not those of `site`.  The layers' names are one
object from their old home and from their lazy module."""
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import perfbench_gen

ROOT = Path(__file__).resolve().parent.parent

# Runs `crossed-ext ARGS...` and writes what it loaded to the file OUT:
#   python -S -c DRIVER OUT ARGS...
# A lazy module that never ran is still of a ModuleType subclass; type()
# reads that without loading it, where any attribute access would load it.
DRIVER = """
import json, sys, types
import crossedext.cli as cli
rc = cli.main(sys.argv[2:])
ran = {n: m.__file__ for n, m in sys.modules.items()
       if type(m) is types.ModuleType
       and (n == "crossedext" or n.startswith("crossedext."))}
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc,
               "executed": {n: f"crossedext.{n}" in ran for n in LAZY},
               "lines": sum(open(f).read().count("\\n") for f in ran.values()),
               "imported": [m for m in ("dataclasses", "inspect")
                            if m in sys.modules]}, fh)
"""
LAZY = ("crossed", "extensions", "_spaces", "_classes", "_maps")
# the summed lines of the modules a seed-1 ladder-q report executes: 2817
# before the three layers were made lazy, 2027 after, 2015 once the parse
# wrote its cochains through the class layer's writer, 1972 once
# `serialize_workspace` moved to a lazy layer, and 1966 once the emitter
# inserted bracket coordinates by bisection and `sort_with_sign` moved to
# the class layer, 1940 once the lazy forwards lost their name lists
# and a field carried its own `p`, and 1931 once a run kept what it
# derives in one table and the parse's base check moved to the crossed
# axioms, 1839 once the prime fields moved to the lazy `_fp` and the
# CE tables eliminated only their weight-0 rows, 1818 once a Lie
# algebra was checked to be alternating and one builder emitted delta_n,
# and 1798 once one module class served both flavors
LADDER_LINES = 1798
# the summed lines of the modules a seed-1 crossed-mix report executes:
# 3546 when this budget was set, 3524 with LADDER_LINES at 1818, and 3519
# with LADDER_LINES at 1798.
# Like LADDER_LINES, it is lowered when a change executes fewer lines,
# and never raised
MIX_LINES = 3519

# old home -> (lazy module, the names it took from there)
MOVED = {
    "linalg": ("_spaces", [
        "Echelon", "Subspace", "_over_leads", "image", "kernel",
        "linear_section", "quotient", "solve", "solve_matrix"]),
    "cohomology": ("_classes", [
        "Cochain", "CochainComplex", "CohomologyClass", "ShortExactSequence",
        "_Record", "_blocks", "abelian_extension_from_2cocycle", "class_of",
        "coboundary", "coboundary_witness", "cochain_from_values",
        "cochain_tuples", "cohomology", "complex_of", "connecting_hom",
        "h0_invariants", "map_class", "map_coefficients", "sort_with_sign",
        "validate_ses"]),
    "algebra": ("_maps", [
        "ModuleMorphism", "_adjoint_family", "_bracket_view", "adjoint",
        "bracket_defect", "direct_sum_reps", "equivariance_defect",
        "hom_rows", "leibniz_adjoint", "leibniz_from_lie",
        "leibniz_rep_from_lie", "pulled_back", "trivial_rep",
        "validate_morphism"]),
    "workspace": ("_serializer", ["serialize_workspace"]),
    "field": ("_fp", ["FpElement", "PrimeField", "_is_prime"]),
}


def _run(workload, tmp_path, command="check", field=None, lazy=LAZY):
    text, extra, _ = perfbench_gen().generate(workload, 1)
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    out = tmp_path / "loaded.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"LAZY = {lazy!r}\n" + DRIVER, str(out),
         command, "--input", str(doc), "--format", "json"] + extra
        + ([] if field is None else ["--field", field]),
        capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(out.read_text())
    assert res["rc"] == 0
    return res


def test_a_ladder_check_loads_no_crossed_code_and_no_dataclasses(tmp_path):
    res = _run("ladder-q", tmp_path)
    assert res["imported"] == []
    assert res["executed"] == dict.fromkeys(LAZY, False)


def test_a_crossed_mix_check_executes_crossed_and_extensions(tmp_path):
    res = _run("crossed-mix", tmp_path)
    assert res["imported"] == []
    assert res["executed"] == dict.fromkeys(LAZY, True)


@pytest.mark.parametrize("command, field", [("check", "p:2147483647"),
                                            ("report", None),
                                            ("report", "p:2147483647")])
def test_a_ladder_run_executes_no_lazy_module(command, field, tmp_path):
    res = _run("ladder-q", tmp_path, command, field)
    assert res["imported"] == []
    assert res["executed"] == dict.fromkeys(LAZY, False)


@pytest.mark.parametrize("command, field", [("check", None),
                                            ("report", None),
                                            ("report", "p:2147483647")])
def test_only_a_run_over_f_p_executes_the_prime_fields(command, field,
                                                      tmp_path):
    res = _run("ladder-q", tmp_path, command, field, lazy=("_fp",))
    assert res["executed"] == {"_fp": field is not None}


def test_a_ladder_report_executes_at_most_ladder_lines(tmp_path):
    assert _run("ladder-q", tmp_path, "report")["lines"] <= LADDER_LINES


def test_a_crossed_mix_report_executes_at_most_mix_lines(tmp_path):
    assert _run("crossed-mix", tmp_path, "report")["lines"] <= MIX_LINES


def test_a_crossed_mix_report_executes_every_lazy_module(tmp_path):
    assert _run("crossed-mix", tmp_path, "report")["executed"] == \
        dict.fromkeys(LAZY, True)


@pytest.mark.parametrize("workload", ["ladder-q", "crossed-mix"])
def test_no_report_executes_the_serializer_layer(workload, tmp_path):
    res = _run(workload, tmp_path, "report", lazy=("_serializer",))
    assert res["executed"] == {"_serializer": False}


def test_every_moved_name_is_one_object_from_both_homes():
    # import_module, not `import crossedext.cohomology`: the package's
    # `cohomology` is the function
    for home, (lazy, names) in MOVED.items():
        old = importlib.import_module(f"crossedext.{home}")
        new = importlib.import_module(f"crossedext.{lazy}")
        for name in names:
            obj = vars(new)[name]
            assert getattr(old, name) is obj, name
            assert name not in vars(old), name
            assert obj.__module__ == new.__name__, name
            ns = {}
            exec(f"from crossedext.{home} import {name}", ns)
            assert ns[name] is obj, name
        with pytest.raises(AttributeError):
            getattr(old, "no_such_name")
