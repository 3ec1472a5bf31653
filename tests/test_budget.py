"""The work budget of the cohomology command: a table whose estimated work
(`cohomology._table_work`) passes `TABLE_BUDGET` is a BUDGET_EXCEEDED
record with exit status 1, refused before any coboundary is built, and
every table the fixtures, the benchmark's workloads and the ladder's next
rungs ask for is admitted.  The parse holds each algebra to the same
budget (`workspace._algebra_work`): its dim^2 structure rows plus the
triples its validator visits, and each cochain to its degree plus its
|C^n| tuples of dim M entries (`_classes._cochain_work`).

Without the budget, `--max-degree 1000000000000000000` on a document whose
command gives no `max_degree` never finishes, even over sl2: the table has
one row per degree, empty past dim g.  A one-dimensional Leibniz algebra
to degree 1000 takes 36 s, and gl2L trivial to degree 7 takes 54 s."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crossedext
from crossedext import samples
from crossedext.algebra import adjoint, leibniz_from_lie, trivial_rep
from crossedext.cli import DEFAULT_DEGREE_CAP
from crossedext.cohomology import TABLE_BUDGET, _table_work
from crossedext.field import QQ
from crossedext._classes import _cochain_work
from crossedext.workspace import _algebra_work, parse_workspace
from support import perfbench_gen
from test_cli_contract import _cochain_over

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _sl2_without_max_degree():
    doc = json.loads((FIXTURES / "sl2.json").read_text())
    doc["commands"] = [{"op": "cohomology", "algebra": "sl2",
                        "module": "k_trivial"}]
    return doc


def _leibniz_line():
    """The one-dimensional Leibniz algebra with trivial coefficients."""
    return {"field": "q", "algebras": {"h1": {"type": "leibniz", "dim": 1}},
            "modules": {"k": {"algebra": "h1", "dim": 1,
                              "left": {"0": [["0"]]},
                              "right": {"0": [["0"]]}}},
            "commands": [{"op": "cohomology", "algebra": "h1",
                          "module": "k", "max_degree": 1000}]}


def _gl2l_trivial_to(degree):
    text, _, _ = perfbench_gen().generate("ladder-q", 1)
    doc = json.loads(text)
    doc["commands"] = [{"op": "cohomology", "algebra": "gl2L",
                        "module": "gl2L_trivial", "max_degree": degree}]
    return doc


def _refused_record(tmp_path, doc, command, *args):
    """The one record of `crossed-ext COMMAND --input DOC ARGS --format
    json`, run in a child that must exit 1 within 2 s, stderr empty."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    src = str(Path(crossedext.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "crossedext.cli", command, "--input",
         str(path), *args, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=2)
    assert proc.stderr == ""
    assert proc.returncode == 1
    rec, = json.loads(proc.stdout)["results"]
    return rec


# (document, --max-degree)
REFUSED = {
    "sl2-to-1e18": (_sl2_without_max_degree, 10 ** 18),
    "leibniz-line-to-1000": (_leibniz_line, 1000),
    "gl2L-trivial-to-7": (lambda: _gl2l_trivial_to(7), 7),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_an_unbounded_table_is_refused_quickly(case, tmp_path):
    make, degree = REFUSED[case]
    rec = _refused_record(tmp_path, make(), "cohomology", "--max-degree",
                          str(degree))
    assert (rec["status"], rec["error"]) == ("FAIL", "BUDGET_EXCEEDED")


def _document_tables(text, cap=DEFAULT_DEGREE_CAP):
    """(module, degree) of every cohomology command of a document, at the
    degree the CLI runs it to by default."""
    ws = parse_workspace(text)
    return [(ws.modules[c["module"]], min(c.get("max_degree", cap), cap))
            for c in ws.commands if c.get("op") == "cohomology"]


def _admitted():
    tables = [t for path in sorted(FIXTURES.glob("*.json"))
              for t in _document_tables(path.read_text())]
    gen = perfbench_gen()
    for workload in ("ladder-q", "ladder-fp", "crossed-mix"):
        text, _, _ = gen.generate(workload, 1)
        tables += _document_tables(text)
    gl3, gl4 = samples.gl(QQ, 3), samples.gl(QQ, 4)
    return tables + [(adjoint(gl3), 3), (adjoint(gl4), 2),
                     (trivial_rep(gl4, 1), 4),
                     (trivial_rep(leibniz_from_lie(samples.gl(QQ, 2)), 1),
                      6)]


def test_every_table_in_use_is_admitted():
    tables = _admitted()
    assert len(tables) >= 19
    for module, degree in tables:
        assert _table_work(module, degree) <= TABLE_BUDGET, (module, degree)


def test_the_estimate_counts_rows_and_tuple_lengths():
    sl2_trivial = trivial_rep(samples.sl2(QQ), 1)
    # 4 units for each of rows 0..3 of the table, and delta_n has
    # C(3, n + 1) rows of (n + 1)-tuples: 4 * 4 + (1 * 3 + 2 * 3 + 3 * 1)
    assert _table_work(sl2_trivial, 3) == 28
    # past dim g only the rows of the table count
    assert _table_work(sl2_trivial, 10) == 4 * 11 + 12
    gl2l = trivial_rep(leibniz_from_lie(samples.gl(QQ, 2)), 1)
    assert _table_work(gl2l, 6) == \
        4 * 7 + sum(k * 4 ** k for k in range(1, 8)) == 145_664
    assert _table_work(gl2l, 7) > TABLE_BUDGET
    # an empty row is not free: sl2 is admitted to about degree 50 000
    assert _table_work(sl2_trivial, 49_000) <= TABLE_BUDGET
    assert _table_work(sl2_trivial, 50_000) > TABLE_BUDGET


# one algebra with no structure constants: without the budget the parse
# of a Lie one took 3.6 s at dim 200 and 26 s at dim 400
BARE = {f"{kind}-{dim}": {"algebras": {"a": {"type": kind, "dim": dim}}}
        for kind in ("lie", "leibniz") for dim in (800, 100_000)}


@pytest.mark.parametrize("case", sorted(BARE))
def test_a_huge_algebra_is_refused_at_parse_quickly(case, tmp_path):
    rec = _refused_record(tmp_path, BARE[case], "check")
    assert (rec["op"], rec["status"]) == ("parse", "FAIL")
    assert "a: BUDGET_EXCEEDED" in rec["detail"]


def test_the_algebra_budget_counts_rows_and_visited_triples():
    # a Lie validator visits the triples i <= j <= k, a Leibniz one all
    assert _algebra_work(3, leib=False) == 9 + 10
    assert _algebra_work(3, leib=True) == 9 + 27
    # the largest algebras admitted: dim 103 (Lie) and 58 (Leibniz)
    assert _algebra_work(103, False) <= TABLE_BUDGET
    assert _algebra_work(104, False) > TABLE_BUDGET
    assert _algebra_work(58, True) <= TABLE_BUDGET < _algebra_work(59, True)
    for kind, dim in (("lie", 103), ("leibniz", 58)):
        ws = parse_workspace(json.dumps(
            {"algebras": {"a": {"type": kind, "dim": dim}}}))
        assert ws.algebras["a"].dim == dim


def test_a_huge_cochain_is_refused_at_parse_quickly(tmp_path):
    # without the budget its 2**24 tuples ended in a MemoryError traceback
    # under a 3 GB address space, and each degree doubled the work
    rec = _refused_record(tmp_path, _cochain_over(2, 24, "leibniz"), "check")
    assert (rec["op"], rec["status"]) == ("parse", "FAIL")
    assert "c: BUDGET_EXCEEDED" in rec["detail"]


def test_the_cochain_budget_counts_degree_and_entries():
    ws = parse_workspace(json.dumps(_cochain_over(3, 0)))
    lie3 = ws.modules["m"]
    leib2 = parse_workspace(json.dumps(
        _cochain_over(2, 0, "leibniz"))).modules["m"]
    assert _cochain_work(lie3, 2) == 2 + 3
    # a CE degree past dim g has no tuples: only the degree counts
    assert _cochain_work(lie3, 60) == 60
    assert _cochain_work(leib2, 17) == 17 + 2 ** 17 <= TABLE_BUDGET
    assert _cochain_work(leib2, 18) > TABLE_BUDGET
    assert _cochain_work(leib2, 10 ** 18) > TABLE_BUDGET
    # the largest degree admitted over a one-dimensional Leibniz algebra
    leib1 = parse_workspace(json.dumps(
        _cochain_over(1, 0, "leibniz"))).modules["m"]
    assert _cochain_work(leib1, TABLE_BUDGET - 1) == TABLE_BUDGET
    assert _cochain_work(leib1, TABLE_BUDGET) > TABLE_BUDGET
    # the empty CE cochains past dim g still parse
    for degree in (4, 60):
        c = parse_workspace(json.dumps(_cochain_over(3, degree))).cochains["c"]
        assert c.vec == () and c.degree == degree
