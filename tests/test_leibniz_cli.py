"""A Leibniz crossed module over an algebra that is not Lie, run through
the CLI over Q and over p = 2^31 - 1.

The benchmark's crossed-mix document has no Leibniz algebra, so its F_p
twin (`test_fp_twin`) and its field-boundary allow-lists
(`test_field_boundary`) never see the Leibniz paths of the parse
validators, theta and classify.  This test runs a small document built
with `serialize_workspace` through `cli.main` in this process and checks
both contracts on it.

L is the Leibniz algebra spanned by x, y with [y, y] = x (not Lie: [y, y]
is not zero), V = span(v0, v1) with y acting on the left by v0 -> 3 v1 and
every other action zero, and d v0 = 2 x, d v1 = 0.  Then g = L / (x) and
M = ker(d) = span(v1), g2(y, y) = q([y, y]) = v0 / 2, and theta(y, y, y),
the left action of y on it, is 3/2 v1: a class that is not zero, with a
denominator for the mod-p map to turn into a residue."""
import collections
import contextlib
import io
import json
import sys

import pytest

import crossedext
from crossedext import cli, linalg, samples
from crossedext.algebra import LeibnizRepresentation, validate_leibniz_module
from crossedext.crossed import CrossedModule, validate_crossed
from crossedext.field import QQ
from crossedext.linalg import LinearMap, Matrix
from crossedext.workspace import Workspace, serialize_workspace
from test_field_boundary import DATA_READERS, INT_VEC_CALLERS
from test_fp_twin import P, _mod_p

COMMANDS = [{"op": "check"}, {"op": "theta", "crossed_module": "cm"},
            {"op": "classify", "crossed_module": "cm"}]


def _document():
    h = samples.nonlie_leibniz(QQ)
    zero = Matrix.zero(QQ, 2, 2)
    V = validate_leibniz_module(LeibnizRepresentation(
        h, 2, [zero, Matrix(QQ, [[0, 0], [3, 0]])], [zero, zero]))
    cm = validate_crossed(CrossedModule(h, V, LinearMap(
        Matrix(QQ, [[2, 0], [0, 0]]))))
    return serialize_workspace(Workspace(
        QQ, algebras={"h": h}, modules={"v": V},
        crossed_modules={"cm": cm}, commands=COMMANDS))


def _report(path, *extra):
    """The status and records of a report run through `cli.main`, and the
    callers of first `.data` reads and of `linalg._int_vec` during it."""
    assert crossedext.crossed.theta and crossedext.extensions.pushout
    first_reads, int_vecs = collections.Counter(), collections.Counter()
    dense, int_vec = linalg.Matrix.data.fget, linalg._int_vec

    def data(m):
        if m._data is None:
            first_reads[sys._getframe(1).f_code.co_name] += 1
        return dense(m)

    def counted(field, vec):
        int_vecs[sys._getframe(1).f_code.co_name] += 1
        return int_vec(field, vec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.Matrix, "data", property(data))
        for name, module in list(sys.modules.items()):
            if name.startswith("crossedext") and \
                    getattr(module, "_int_vec", None) is int_vec:
                mp.setattr(module, "_int_vec", counted)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["report", "--input", str(path), "--format",
                               "json", *extra])
    return status, json.loads(out.getvalue())["results"], first_reads, \
        int_vecs


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    path = tmp_path_factory.mktemp("leibniz") / "doc.json"
    path.write_text(_document())
    return _report(path), _report(path, "--field", f"p:{P}")


def test_the_leibniz_crossed_module_classifies_to_a_nonzero_class(reports):
    (status, records, _, _), _ = reports
    assert status == 0
    assert [r["status"] for r in records] == ["PASS"] * 5
    theta = next(r for r in records if r["op"] == "theta")
    assert theta["theta"] == ["3/2"]
    assert (theta["induced_g_dim"], theta["induced_m_dim"]) == (1, 1)
    classify = next(r for r in records if r["op"] == "classify")
    assert classify["class_is_zero"] is False and classify["dim_h3"] == 1


def test_fp_report_is_the_q_report_mod_p(reports):
    (q_status, q, _, _), (fp_status, fp, _, _) = reports
    assert q_status == fp_status == 0
    assert _mod_p(q) != q
    assert fp == _mod_p(q)


@pytest.mark.parametrize("run", [0, 1], ids=["q", "fp"])
def test_only_the_boundary_builds_field_elements(reports, run):
    _, _, first_reads, int_vecs = reports[run]
    assert set(first_reads) <= DATA_READERS, first_reads
    assert set(int_vecs) <= INT_VEC_CALLERS, int_vecs
    assert int_vecs["check_cocycle"] > 0
