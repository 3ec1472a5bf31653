"""One CLI command factors each matrix once: classify and yoneda build each
coboundary of (g, M) once, theta computes theta once, and theta and
classify on Leibniz crossed modules use the Leibniz classifier.  A module
owns its complex, so commands and calls on one module share its
coboundaries, except cohomology_table, which streams them."""
import importlib
import json
from collections import Counter
from pathlib import Path

import pytest

from crossedext import samples
from crossedext.algebra import (ModuleMorphism, leibniz_adjoint,
                                leibniz_from_lie, leibniz_rep_from_lie,
                                trivial_rep)
from crossedext.cli import main, run_command
from crossedext.cohomology import class_of, cohomology, cohomology_table
from crossedext.crossed import (CrossedModule, choose_sections, induced_pair,
                                leibniz_theta, theta, validate_crossed,
                                yoneda_crossed_module)
from crossedext.field import QQ
from crossedext.linalg import LinearMap, Matrix
from crossedext.workspace import (Workspace, parse_workspace,
                                  serialize_workspace)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the package exports a function named cohomology, so the submodules are
# looked up by name
cohomology_mod = importlib.import_module("crossedext.cohomology")
crossed_mod = importlib.import_module("crossedext.crossed")


def _workspace():
    """The Jordan fixture plus three crossed modules: its Yoneda splice
    (Lie), the same splice read as a Leibniz crossed module (right action
    minus the left one), and the zero boundary into the Leibniz adjoint
    module of a Leibniz algebra that is not Lie."""
    ws = parse_workspace((FIXTURES / "yoneda_jordan.json").read_text())
    cm = yoneda_crossed_module(ws.sequences["jordan_ses"],
                               ws.cochains["vol12"]).base
    leib = leibniz_from_lie(cm.algebra)
    h = samples.nonlie_leibniz(QQ)
    ad_h = leibniz_adjoint(h)
    ws.algebras.update({"jordan_e": cm.algebra, "jordan_e_leib": leib,
                        "h": h})
    ws.modules.update({"jordan_v": cm.rep,
                       "jordan_v_leib": leibniz_rep_from_lie(cm.rep, leib),
                       "ad_h": ad_h})
    ws.crossed_modules.update({
        "jordan_cm": cm,
        "jordan_leib": validate_crossed(CrossedModule(
            leib, ws.modules["jordan_v_leib"], cm.partial)),
        "zero_leib": validate_crossed(CrossedModule(
            h, ad_h, LinearMap.zero(QQ, ad_h.dim, h.dim)))})
    return ws


@pytest.fixture(scope="module")
def doc_text():
    return serialize_workspace(_workspace())


def _cli(tmp_path, text, command, name):
    doc = json.loads(text)
    doc["commands"] = [{"op": command, "crossed_module": name}]
    path = tmp_path / f"{command}-{name}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", ["jordan_leib", "zero_leib"])
def test_leibniz_theta_and_classify_commands(name, doc_text, tmp_path,
                                             capsys):
    ws = parse_workspace(doc_text)
    pres = induced_pair(ws.crossed_modules[name])
    want_theta = leibniz_theta(pres, *choose_sections(pres))
    want_h3, _ = cohomology(pres.M, 3)

    rc = main(["theta", "--input", str(_cli(tmp_path, doc_text, "theta",
                                            name)), "--format", "json"])
    rec, = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0 and rec["status"] == "PASS"
    assert rec["theta"] == [ws.field.to_str(x) for x in want_theta.vec]

    rc = main(["classify", "--input", str(_cli(tmp_path, doc_text,
                                               "classify", name)),
               "--format", "json"])
    rec, = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0 and rec["status"] == "PASS"
    assert rec["dim_h3"] == want_h3


def test_leibniz_theta_is_not_zero_on_the_splice(doc_text):
    """The splice gives the Leibniz test a nonzero cochain to compare."""
    ws = parse_workspace(doc_text)
    pres = induced_pair(ws.crossed_modules["jordan_leib"])
    assert any(leibniz_theta(pres).vec)


def _count_builds(monkeypatch):
    """Record (module, n) for every coboundary matrix built."""
    builds = Counter()
    for name in ("ce_coboundary_matrix", "leibniz_coboundary_matrix"):
        original = getattr(cohomology_mod, name)

        def counted(algebra, module, n, _original=original):
            builds[(id(module), n)] += 1
            return _original(algebra, module, n)
        monkeypatch.setattr(cohomology_mod, name, counted)
    return builds


@pytest.mark.parametrize("name", ["jordan_cm", "jordan_leib"])
def test_classify_builds_each_coboundary_once(name, doc_text, monkeypatch):
    ws = parse_workspace(doc_text)
    builds = _count_builds(monkeypatch)
    rec, = run_command(ws, {"op": "classify", "crossed_module": name})
    assert rec["status"] == "PASS"
    # every build is of the induced module, delta_2 and delta_3 once each
    assert sorted(n for (_, n) in builds) == [2, 3]
    assert set(builds.values()) == {1}


@pytest.mark.parametrize("name", ["jordan_cm", "jordan_leib"])
def test_theta_command_computes_theta_once(name, doc_text, monkeypatch):
    ws = parse_workspace(doc_text)
    calls = []
    original = crossed_mod._g2_table

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(crossed_mod, "_g2_table", counted)
    rec, = run_command(ws, {"op": "theta", "crossed_module": name})
    assert rec["status"] == "PASS"
    assert len(calls) == 1
    if name == "jordan_cm":
        pres = induced_pair(ws.crossed_modules[name])
        assert rec["theta"] == [ws.field.to_str(x) for x in
                                theta(pres, *choose_sections(pres)).vec]


def test_yoneda_builds_each_coboundary_of_g_m_once(doc_text, monkeypatch):
    ws = parse_workspace(doc_text)
    head = ws.sequences["jordan_ses"].head
    builds = _count_builds(monkeypatch)
    rec, = run_command(ws, {"op": "yoneda", "sequence": "jordan_ses",
                            "cochain": "vol12"})
    assert rec["status"] == "PASS" and rec["matches_connecting"] is True
    assert builds[(id(head), 2)] == 1
    assert builds[(id(head), 3)] == 1


def test_connecting_then_yoneda_share_the_head_complex(doc_text,
                                                      monkeypatch):
    """The two commands of one sequence and cocycle build each coboundary
    of the head once: its complex is the module's, not the command's."""
    ws = parse_workspace(doc_text)
    head = ws.sequences["jordan_ses"].head
    builds = _count_builds(monkeypatch)
    for op in ("connecting", "yoneda"):
        rec, = run_command(ws, {"op": op, "sequence": "jordan_ses",
                                "cochain": "vol12"})
        assert rec["status"] == "PASS"
    assert builds[(id(head), 2)] == 1
    assert builds[(id(head), 3)] == 1


def test_class_of_twice_builds_each_coboundary_once(monkeypatch):
    ws = parse_workspace((FIXTURES / "yoneda_jordan.json").read_text())
    c = ws.cochains["vol12"]
    builds = _count_builds(monkeypatch)
    assert class_of(c) == class_of(c)
    assert sorted(n for (_, n) in builds) == [1, 2]
    assert set(builds.values()) == {1}
    assert cohomology_mod.complex_of(c.module) is c.module._complex


def test_cohomology_table_leaves_the_complex_unbuilt():
    ws = parse_workspace((FIXTURES / "sl2.json").read_text())
    M = ws.modules["adjoint"]
    assert [row[3] for row in cohomology_table(M, 3)] == [0, 0, 0, 0]
    assert M._complex is None


LEIBNIZ_BAER = {"op": "baer-sum", "status": "FAIL",
                "error": "UNSUPPORTED_FLAVOR",
                "detail": "UNSUPPORTED_FLAVOR: the Baer sum of Leibniz "
                          "crossed modules is not implemented"}


@pytest.mark.parametrize("name", ["jordan_leib", "zero_leib"])
def test_leibniz_baer_sum_is_a_fail_record(name, doc_text, tmp_path,
                                           capsys):
    """A Baer sum of Leibniz crossed modules is refused with its own code:
    no traceback, and no failure of a Lie check on the fiber product."""
    ws = parse_workspace(doc_text)
    cmd = {"op": "baer-sum", "left": name, "right": name}
    assert run_command(ws, cmd) == [LEIBNIZ_BAER]
    doc = json.loads(doc_text)
    doc["commands"] = [cmd]
    path = tmp_path / "baer.json"
    path.write_text(json.dumps(doc))
    assert main(["baer-sum", "--input", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == [LEIBNIZ_BAER]


LEIBNIZ_PUSHOUT = {"op": "pushout", "status": "FAIL",
                   "error": "UNSUPPORTED_FLAVOR",
                   "detail": "UNSUPPORTED_FLAVOR: the pushout of Leibniz "
                             "modules is not implemented"}


def test_leibniz_pushout_is_a_fail_record(tmp_path, capsys):
    """A pushout of morphisms of Leibniz modules is refused with its own
    code, as their Baer sum is: one record, exit 1 and no traceback."""
    h = samples.nonlie_leibniz(QQ)
    k, k2 = trivial_rep(h, 1), trivial_rep(h, 2)
    cmd = {"op": "pushout", "f": "f", "g": "g"}
    f = ModuleMorphism(k, k2, Matrix(QQ, [[QQ.one], [QQ.zero]], cols=1))
    g = ModuleMorphism(k, k, Matrix.identity(QQ, 1))
    ws = Workspace(QQ, algebras={"h": h}, modules={"k": k, "k2": k2},
                   morphisms={"f": f, "g": g}, commands=[cmd])
    assert run_command(ws, cmd) == [LEIBNIZ_PUSHOUT]
    path = tmp_path / "pushout.json"
    path.write_text(serialize_workspace(ws))
    assert main(["pushout", "--input", str(path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["results"] == [LEIBNIZ_PUSHOUT] and err == ""


def test_baer_sum_across_flavors_is_a_base_mismatch(doc_text):
    ws = parse_workspace(doc_text)
    rec, = run_command(ws, {"op": "baer-sum", "left": "jordan_cm",
                            "right": "jordan_leib"})
    assert (rec["status"], rec["error"]) == ("FAIL", "BASE_MISMATCH")
