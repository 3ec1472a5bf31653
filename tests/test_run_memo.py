"""One run presents and classifies each crossed module value once: the
first theta, classify or baer-sum that names it, or an equal crossed module,
builds its induced pair, and the first theta or classify its class, in the
complex of the pair's M; later commands of the same workspace reuse them and
give the records a fresh workspace gives.  The run's entries are keyed by
the crossed module: its induced pair under it, its class under (classify2,
it), both in the run's one table `Workspace.derived`."""
import importlib
from collections import Counter

import pytest

from crossedext.cli import run_command
from crossedext.crossed import CrossedModule
from crossedext.linalg import LinearMap, Matrix
from crossedext.workspace import parse_workspace, serialize_workspace
from test_command_reuse import _count_builds, _workspace

crossed_mod = importlib.import_module("crossedext.crossed")


@pytest.fixture(scope="module")
def doc_text():
    return serialize_workspace(_workspace())


def _commands(name, leibniz):
    cmds = [{"op": "theta", "crossed_module": name},
            {"op": "classify", "crossed_module": name}]
    # baer_sum refuses a Leibniz pair
    if not leibniz:
        cmds.append({"op": "baer-sum", "left": name, "right": name})
    return cmds


def _count(monkeypatch):
    """Counters of induced_pair calls and of _g2_table calls, both by the
    crossed module they present."""
    pairs, g2 = Counter(), Counter()
    original_pair = crossed_mod.induced_pair
    original_g2 = crossed_mod._g2_table

    def counted_pair(cm):
        pairs[id(cm)] += 1
        return original_pair(cm)

    def counted_g2(pres, s, q):
        g2[id(pres.base)] += 1
        return original_g2(pres, s, q)
    monkeypatch.setattr(crossed_mod, "induced_pair", counted_pair)
    monkeypatch.setattr(crossed_mod, "_g2_table", counted_g2)
    return pairs, g2


@pytest.mark.parametrize("name, leibniz", [("jordan_cm", False),
                                           ("jordan_leib", True)])
@pytest.mark.parametrize("reverse", [False, True])
def test_one_presentation_complex_and_class_per_run(name, leibniz, reverse,
                                                    doc_text, monkeypatch):
    ws = parse_workspace(doc_text)
    cm = ws.crossed_modules[name]
    cmds = _commands(name, leibniz)
    if reverse:
        cmds.reverse()
    # the same commands, each alone on a freshly parsed workspace
    alone = [run_command(parse_workspace(doc_text), cmd) for cmd in cmds]
    pairs, g2 = _count(monkeypatch)
    builds = _count_builds(monkeypatch)
    got = [run_command(ws, cmd) for cmd in cmds]
    assert got == alone
    assert all(rec["status"] == "PASS" for recs in got for rec in recs)
    assert pairs == {id(cm): 1}
    # one g2 table for the crossed module; a Baer sum is a new crossed
    # module with its own theta
    assert g2[id(cm)] == 1
    assert sum(g2.values()) == 1 + (not leibniz)
    # delta_2 and delta_3 of the induced (g, M), once each: the Baer sum
    # is classified in the complex of its left operand
    M = ws.derived[cm].M
    assert builds == {(id(M), 2): 1, (id(M), 3): 1}


def test_records_are_fresh_dicts(doc_text):
    ws = parse_workspace(doc_text)
    cmd = {"op": "theta", "crossed_module": "jordan_cm"}
    first, = run_command(ws, cmd)
    first["theta"].append("junk")
    first["extra"] = 1
    second, = run_command(ws, cmd)
    assert second == run_command(parse_workspace(doc_text), cmd)[0]


def test_a_replaced_crossed_module_is_presented_afresh(doc_text,
                                                       monkeypatch):
    ws = parse_workspace(doc_text)
    cmd = {"op": "classify", "crossed_module": "jordan_cm"}
    run_command(ws, cmd)
    old = ws.crossed_modules["jordan_cm"]
    # (V, L, -d) is a crossed module too, equal to no other object
    new = CrossedModule(old.algebra, old.rep, -old.partial)
    ws.crossed_modules["jordan_cm"] = new
    fresh = parse_workspace(doc_text)
    fresh.crossed_modules["jordan_cm"] = new
    want = run_command(fresh, cmd)
    pairs, _ = _count(monkeypatch)
    assert run_command(ws, cmd) == want
    # presented once more in ws: the memo of fresh is its own
    assert pairs == {id(new): 1}
    assert ws.derived[new].base is new
    assert (crossed_mod.classify2, new) in ws.derived


def test_a_failing_presentation_stores_nothing(doc_text):
    ws = parse_workspace(doc_text)
    field = ws.field
    L = ws.algebras["jordan_e"]
    V = ws.modules["jordan_v"]
    # a boundary that was never validated: its image, the span of
    # e_0 + e_1 + e_2 + e_3, is not an ideal, and induced_pair refuses it
    d = LinearMap(Matrix(field, [[1] * V.dim] * L.dim))
    ws.crossed_modules["bad"] = CrossedModule(L, V, d)
    cmd = {"op": "theta", "crossed_module": "bad"}
    first = run_command(ws, cmd)
    assert (first[0]["status"], first[0]["error"]) == \
        ("FAIL", "EQUIVARIANCE_FAIL")
    assert "not an ideal" in first[0]["detail"]
    assert ws.crossed_modules["bad"] not in ws.derived
    assert run_command(ws, cmd) == first
    assert ws.crossed_modules["bad"] not in ws.derived


def test_an_equal_crossed_module_under_another_name_shares_the_entry(
        doc_text, monkeypatch):
    ws = parse_workspace(doc_text)
    cm = ws.crossed_modules["jordan_cm"]
    # equal to cm, and no object of it is cm's
    twin = ws.crossed_modules["twin"] = CrossedModule(
        cm.algebra, cm.rep, LinearMap(Matrix(ws.field, cm.partial.matrix.data,
                                             cm.partial.matrix.cols)))
    assert twin == cm and twin.partial is not cm.partial
    pairs, g2 = _count(monkeypatch)
    got = [run_command(ws, {"op": op, "crossed_module": name})
           for name in ("jordan_cm", "twin") for op in ("theta", "classify")]
    assert pairs == {id(cm): 1} and g2 == {id(cm): 1}
    assert ws.derived[twin] is ws.derived[cm]
    assert ws.derived[crossed_mod.classify2, twin] is \
        ws.derived[crossed_mod.classify2, cm]
    # the records differ in the name alone
    for a, b in zip(got[:2], got[2:]):
        assert a == [{**rec, "crossed_module": "jordan_cm"} for rec in b]
