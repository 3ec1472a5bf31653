"""A run derives each fact once, and checks each construction once, pinned
by its work on the benchmark's crossed-mix document (seed 1, generated by
perfbench/gen.py as in test_bench_documents):

- coboundary builds: one per (module value, degree), as equal modules of a
  run share one cochain complex (in the run's table `Workspace.derived`).  The run before
  value sharing built 351 coboundaries of 138 distinct values.
- eliminations (`linalg._echelon` calls), by phase: the exactness checks
  eliminate each map once, reading injectivity and surjectivity off the
  image and kernel they compare; equal crossed modules share one
  presentation and class, and a yoneda command reuses the connecting class
  of its (sequence, cochain), whose kernel of beta is eliminated only when
  a lift is perturbed.  Before these the parse made 1170 and the commands
  2033, and the commands 1463 while each connecting class eliminated that
  kernel twice and dropped it, and 1409 while a 2-fold Baer sum and a
  yoneda splice each went back through `validate_extension`.  A count that
  falls here is a gain to record, one that rises derives something twice.
- relation checks (`linalg._first_nonzero_row` calls), by phase: every
  object of the document has every relation checked at the parse, and a
  construction checks the step that decides it (a submodule, a closed
  bracket, an ideal, a stable kernel, a cocycle) and derives the rest, so
  the counts stay exact.  A Baer sum of two crossed modules is the
  codiagonal push-forward of their sum over g, whose `pushout` checks the
  equivariance of its two legs, one check per basis vector of the fiber
  product each.  The commands made 2102 while `pushout` also checked its
  two maps into D and D itself, and the constructions went back through
  the module, Lie and crossed-module validators; and the parse 3002 and
  the commands 957 while `validate_module` also checked the diagonal
  pairs (i, i) of an alternating algebra, which cannot fail.

A small document pins the sharing itself: within one run two equal modules
under different names get one complex, and a module of a second parse of
the same text gets another."""
import importlib
import json
from collections import Counter
from pathlib import Path

from crossedext import _classes, _maps, _spaces, algebra, linalg
from crossedext.cli import run, run_command
from crossedext.cohomology import CochainComplex, complex_of
from crossedext.workspace import parse_workspace
from support import perfbench_gen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
cohomology_mod = importlib.import_module("crossedext.cohomology")


def _count(monkeypatch, counts, phase):
    """Count, under the key (phase[0], kind), every call of the engine's
    elimination, relation check and coboundary builders, through each
    module that binds them."""
    targets = [(mod, "_echelon", "elimination") for mod in (linalg, _spaces)]
    targets += [(mod, "_first_nonzero_row", "relation check")
                for mod in (linalg, algebra, _maps)]
    targets += [(mod, "coboundary_matrix", "coboundary build")
                for mod in (cohomology_mod, _classes)]
    for mod, name, kind in targets:
        original = getattr(mod, name)

        def counted(*args, _original=original, _kind=kind):
            counts[phase[0], _kind] += 1
            return _original(*args)
        monkeypatch.setattr(mod, name, counted)


def test_seed_1_crossed_mix_work(monkeypatch):
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    counts, phase = Counter(), ["parse"]
    _count(monkeypatch, counts, phase)
    ws = parse_workspace(text)
    phase[0] = "commands"
    records = run(ws, "report")
    assert all(rec["status"] == "PASS" for rec in records)
    assert counts["parse", "coboundary build"] == 0
    assert counts["commands", "coboundary build"] <= 138
    assert (counts["parse", "elimination"],
            counts["commands", "elimination"]) == (711, 1094)
    assert (counts["parse", "relation check"],
            counts["commands", "relation check"]) == (2376, 826)


def _document():
    """The Jordan fixture, whose k_head and k_tail are equal modules, with
    its cochain vol12 valued in k_tail too, as tail_vol12, and a connecting
    command on each."""
    doc = json.loads((FIXTURES / "yoneda_jordan.json").read_text())
    doc["cochains"]["tail_vol12"] = {**doc["cochains"]["vol12"],
                                     "module": "k_tail"}
    doc["commands"] = [{"op": "connecting", "sequence": "jordan_ses",
                        "cochain": c} for c in ("vol12", "tail_vol12")]
    return json.dumps(doc)


def test_equal_modules_of_a_run_share_one_complex(monkeypatch):
    text = _document()
    ws = parse_workspace(text)
    head, tail = ws.modules["k_head"], ws.modules["k_tail"]
    assert head == tail and head is not tail
    counts, phase = Counter(), ["first"]
    _count(monkeypatch, counts, phase)
    first = run_command(ws, ws.commands[0])
    phase[0] = "second"
    second = run_command(ws, ws.commands[1])
    assert first[0]["status"] == "PASS"
    assert second == [{**first[0], "cochain": "tail_vol12"}]
    assert complex_of(head) is complex_of(tail)
    assert counts["first", "coboundary build"] > 0
    assert counts["second", "coboundary build"] == 0
    # one complex per distinct module value of the run
    complexes = {k: v for k, v in ws.derived.items()
                 if isinstance(v, CochainComplex)}
    assert len(complexes) == len(set(complexes.values())) == 2
    # a second parse of the same text is another run, with its own tables
    again = parse_workspace(text)
    assert run_command(again, again.commands[1]) == second
    assert complex_of(again.modules["k_tail"]) is not complex_of(tail)
    assert counts["second", "coboundary build"] > 0
