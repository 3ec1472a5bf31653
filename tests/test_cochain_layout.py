"""A cochain's flat layout: dim M scalars per basis tuple, the tuples in
lexicographic order.  `cochain_from_values` writes it, `Cochain.items`
reads it, and `cohomology._tuple_count` counts its tuples; the parse, the
serializer, `Cochain.value` and `map_coefficients` go through them."""
import copy
import json
import pickle
import time
from pathlib import Path

import pytest

from crossedext import _classes
from crossedext.algebra import ModuleMorphism, trivial_rep, validate_leibniz
from crossedext.cli import main
from crossedext.cohomology import cochain_from_values, map_coefficients
from crossedext.errors import CheckFailure
from crossedext.field import QQ
from crossedext.linalg import Matrix
from crossedext.workspace import parse_workspace, serialize_workspace
from support import perfbench_gen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
ZERO2 = [["0", "0"], ["0", "0"]]


def _cochain_doc(*entries):
    """A degree-2 cochain with the given entries, valued in the trivial
    2-dimensional module of the 3-dimensional abelian Lie algebra."""
    return {"algebras": {"a": {"dim": 3}},
            "modules": {"m": {"algebra": "a", "dim": 2, "action": {
                str(i): ZERO2 for i in range(3)}}},
            "cochains": {"c": {"module": "m", "degree": 2,
                               "entries": list(entries)}}}


def _entry(t, *value):
    return {"tuple": list(t), "value": list(value)}


# a value of one scalar, then one of three: laid end to end they would fill
# the two blocks of (0, 1) and (0, 2) with (1, 5) and (6, 7)
RAGGED = _cochain_doc(_entry((0, 1), "1"), _entry((0, 2), "5", "6", "7"))


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_a_ragged_cochain_entry_is_a_parse_error(fmt, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(RAGGED))
    assert main(["check", "--input", str(path), "--format", fmt]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    detail = ("PARSE_ERROR('c'): c: malformed spec: value on (0, 1) has 1 "
              "scalars, want 2")
    if fmt == "json":
        assert json.loads(out)["results"] == [
            {"op": "parse", "status": "FAIL", "error": "PARSE_ERROR",
             "detail": detail}]
    else:
        assert out.splitlines() == [
            f"[FAIL] parse  detail={detail}  error=PARSE_ERROR"]


@pytest.mark.parametrize("entries, detail", [
    ([_entry((0, 1), "1", "2", "3")], "value on (0, 1) has 3 scalars"),
    # a string is not a list of scalars, even one of dim M characters
    ([{"tuple": [0, 1], "value": "12"}], "key 'value' must be a list"),
    ([_entry((1, 0), "1", "2")], "bad index tuple (1, 0)"),
])
def test_a_malformed_cochain_entry_names_its_cochain(entries, detail):
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(_cochain_doc(*entries)))
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.detail.startswith("c: ")
    assert detail in exc.value.detail


def test_the_parse_writes_each_value_in_its_tuples_block():
    c = parse_workspace(json.dumps(_cochain_doc(
        _entry((1, 2), "3", "4"), _entry((0, 1), "1", "2"),
        # a repeated tuple keeps its last value
        _entry((1, 2), "5", "6")))).cochains["c"]
    assert c.vec == tuple(QQ.of(x) for x in (1, 2, 0, 0, 5, 6))
    assert list(c.items()) == [((0, 1), (1, 2)), ((0, 2), (0, 0)),
                               ((1, 2), (5, 6))]
    assert c.value([1, 2]) == (5, 6)
    for outside in ((1, 0), (0, 0), (0, 1, 2), (3, 4)):
        with pytest.raises(ValueError):
            c.value(outside)


def test_the_parse_writes_every_cochain_through_cochain_from_values(
        monkeypatch):
    written = []

    def counted(module, degree, value_of):
        c = cochain_from_values(module, degree, value_of)
        written.append(len(c.vec))
        return c
    monkeypatch.setattr(_classes, "cochain_from_values", counted)
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    ws = parse_workspace(text)
    assert (len(written), sum(written)) == (len(ws.cochains), 326) == (63, 326)


def test_map_coefficients_is_linear_in_the_tuples():
    """4096 tuples: the trivial 1-dimensional module of the 2-dimensional
    abelian Leibniz algebra at degree 12.  It took 2.83 s when each value
    was looked up by listing the tuples."""
    z0 = (QQ.zero,) * 2
    g = validate_leibniz(QQ, 2, [[z0, z0], [z0, z0]])
    M = trivial_rep(g, 1)
    z = cochain_from_values(M, 12, lambda t: (QQ.of(sum(t) - 5),))
    assert len(z.vec) == 4096
    ident = ModuleMorphism(M, M, Matrix.identity(QQ, 1))
    start = time.perf_counter()
    image = map_coefficients(ident, z)
    assert time.perf_counter() - start < 0.5
    assert image == z


def _pickled(ws):
    return pickle.loads(pickle.dumps(ws))


@pytest.mark.parametrize("copy_of", [copy.deepcopy, _pickled],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("field", [None, "p:7"])
@pytest.mark.parametrize("fixture", ["sl2.json", "yoneda_jordan.json"])
def test_a_copied_workspace_serializes_as_its_original(copy_of, field,
                                                       fixture):
    ws = parse_workspace((FIXTURES / fixture).read_text(), field)
    copied = copy_of(ws)
    assert copied.field is not ws.field
    assert serialize_workspace(copied) == serialize_workspace(ws)


@pytest.mark.parametrize("workload", ["crossed-mix", "ladder-q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_serialized_document_is_a_fixed_point_with_the_same_report(
        workload, seed, tmp_path, capsys):
    text, extra, _ = perfbench_gen().generate(workload, seed)
    once = serialize_workspace(parse_workspace(text))
    assert serialize_workspace(parse_workspace(once)) == once
    reports = []
    for name, doc in (("doc.json", text), ("once.json", once)):
        path = tmp_path / name
        path.write_text(doc)
        main(["report", "--input", str(path), "--format", "json"] + extra)
        reports.append(capsys.readouterr().out.encode())
    assert reports[0] == reports[1]


def test_an_equal_object_is_serialized_under_its_own_name():
    """Names are found by identity first: a cochain on m2, equal to the
    earlier m1, is written on m2, and m2 on its own algebra a2, equal to
    a1.  Only an object bound under no name of its table (an equal copy)
    takes the first equal name, and an object equal to none has no name."""
    doc = {"algebras": {"a1": {"dim": 3}, "a2": {"dim": 3}},
           "modules": {"m1": {"algebra": "a1", "dim": 2, "action": {
                           str(i): ZERO2 for i in range(3)}},
                       "m2": {"algebra": "a2", "dim": 2, "action": {
                           str(i): ZERO2 for i in range(3)}}},
           "cochains": {"c": {"module": "m2", "degree": 2, "entries": [
               _entry((0, 1), "1", "0")]}}}
    ws = parse_workspace(json.dumps(doc))
    assert ws.modules["m1"] == ws.modules["m2"]
    once = serialize_workspace(ws)
    out = json.loads(once)
    assert out["cochains"]["c"]["module"] == "m2"
    assert out["modules"]["m2"]["algebra"] == "a2"
    assert serialize_workspace(parse_workspace(once)) == once
    c = ws.cochains["c"]
    ws.cochains["c"] = cochain_from_values(copy.deepcopy(c.module), 2,
                                           c.value)
    assert json.loads(serialize_workspace(ws))["cochains"]["c"][
        "module"] == "m1"
    ws.cochains["c"] = cochain_from_values(
        trivial_rep(ws.algebras["a1"], 1), 2,
        lambda t: (QQ.zero,))
    with pytest.raises(CheckFailure) as exc:
        serialize_workspace(ws)
    assert exc.value.code == "UNRESOLVED_REFERENCE"
