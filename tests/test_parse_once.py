"""Parsing validates each object of a document once, and a malformed
document keeps its exact failure record.

The counts are taken on the benchmark's crossed-mix document (seed 1,
generated by perfbench/gen.py as in test_bench_documents): one
`validate_module` per module, one `validate_morphism` per morphism and
per extension chain map, and one `crossed_axioms` per crossed module.
The table pins (code, witness, detail) of every kind of malformed
document; the records were taken before the scalar table and the
module-level `_wrap` existed."""
import copy
import importlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from crossedext.cli import main
from crossedext.errors import CheckFailure
from crossedext.field import QQ
from crossedext.linalg import Matrix
from crossedext.workspace import parse_workspace
from support import perfbench_gen

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
COUNTED = ("validate_module", "validate_leibniz_module", "validate_morphism",
           "crossed_axioms", "validate_crossed")


def _count_validators(monkeypatch):
    """Count every call of the validators in COUNTED, whichever crossedext
    namespace it is made from."""
    calls = Counter()
    mods = [importlib.import_module(f"crossedext.{m}") for m in
            ("algebra", "_maps", "cohomology", "crossed", "extensions",
             "workspace")]
    for name in COUNTED:
        home = next(m for m in mods if name in vars(m)
                    and vars(m)[name].__module__ == m.__name__)
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        for mod in mods:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


def test_parse_validates_each_object_once(monkeypatch):
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    doc = json.loads(text)
    chain_maps = sum(len(spec["chain"]) for spec in doc["extensions"].values())
    calls = _count_validators(monkeypatch)
    ws = parse_workspace(text)
    assert len(ws.extensions) == len(doc["extensions"]) > 0
    assert len(ws.sequences) == len(doc["sequences"]) > 0
    assert calls == Counter({
        "validate_module": len(doc["modules"]),
        "validate_morphism": len(doc["morphisms"]) + chain_maps,
        "crossed_axioms": len(doc["crossed_modules"])})


# ------------------------------------------------ malformed documents

HEIS = [{"i": i, "j": j, "k": k, "value": v} for i, j, k, v in [
    (0, 1, 0, "-1"), (0, 1, 2, "-1"), (1, 0, 0, "1"), (1, 0, 2, "1"),
    (1, 2, 0, "-1"), (1, 2, 2, "-1"), (2, 1, 0, "1"), (2, 1, 2, "1")]]


def _trivial(alg, dim, count):
    zero = [["0"] * dim for _ in range(dim)]
    return {"algebra": alg, "dim": dim,
            "action": {str(i): copy.deepcopy(zero) for i in range(count)}}


# A valid document with every kind of object: a Heisenberg algebra with a
# crossed 3-fold extension over a zero crossed module (from the crossed-mix
# document), an abelian algebra with the Jordan sequence and a cochain, a
# Leibniz module and an entry with a denominator.
BASE = {
    "field": "q",
    "algebras": {"heis": {"type": "lie", "dim": 3, "structure": HEIS},
                 "ab": {"type": "lie", "dim": 2, "structure": []},
                 "ab_leib": {"type": "leibniz", "dim": 1, "structure": []}},
    "modules": {
        "k": _trivial("heis", 1, 3),
        "v": _trivial("heis", 1, 3),
        "mid": {"algebra": "heis", "dim": 2, "action": {
            "0": [["4", "4"], ["-4", "-4"]], "1": [["6", "6"], ["-6", "-6"]],
            "2": [["-4", "-4"], ["4", "4"]]}},
        "jordan": {"algebra": "ab", "dim": 2, "action": {
            "0": [["0", "1/2"], ["0", "0"]], "1": [["0", "0"], ["0", "0"]]}},
        "k_ab": _trivial("ab", 1, 2),
        "m_leib": {"algebra": "ab_leib", "dim": 1, "left": {"0": [["0"]]},
                   "right": {"0": [["0"]]}}},
    "morphisms": {"alpha": {"source": "k_ab", "target": "jordan",
                            "matrix": [["1"], ["0"]]},
                  "beta": {"source": "jordan", "target": "k_ab",
                           "matrix": [["0", "1"]]}},
    "cochains": {"c": {"module": "k_ab", "degree": 2, "flavor": "ce",
                       "entries": [{"tuple": [0, 1], "value": ["1"]}]}},
    "crossed_modules": {"zcm": {"L": "heis", "V": "v",
                                "partial": [["0"], ["0"], ["0"]]}},
    "sequences": {"ses": {"alpha": "alpha", "beta": "beta"}},
    "extensions": {"ext": {
        "n": 3, "g": "heis", "M": "k", "base": "zcm",
        "chain": [{"module": "mid", "map": [["1", "1"]]}],
        "f": [["1"], ["-1"]],
        "pi": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}},
    "commands": [{"op": "check"}],
}


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value is _DELETE:
            del doc[last]
        else:
            doc[last] = value
    return edit


_DELETE = object()
MID0 = ("modules", "mid", "action", "0")
EXT = ("extensions", "ext")

# (case, edit of BASE) for each kind of malformed document
CASES = [
    ("missing module key", _set(("modules", "k", "dim"), _DELETE)),
    ("missing extension key", _set(EXT + ("pi",), _DELETE)),
    ("missing structure value", _set(("algebras", "heis", "structure", 0,
                                      "value"), _DELETE)),
    ("missing chain link key", _set(EXT + ("chain", 0, "map"), _DELETE)),
    ("unresolved chain module", _set(EXT + ("chain", 0, "module"), "nope")),
    ("bad scalar", _set(MID0 + (0, 0), "x")),
    ("zero denominator", _set(MID0 + (0, 0), "1/0")),
    ("integer scalar", _set(MID0 + (0, 0), 4)),
    ("list scalar", _set(MID0 + (0, 0), ["4"])),
    ("null scalar", _set(MID0 + (0, 0), None)),
    ("bad structure scalar", _set(("algebras", "heis", "structure", 0,
                                   "value"), "one")),
    ("bad cochain scalar", _set(("cochains", "c", "entries", 0, "value"),
                                ["?"])),
    ("bad residue", lambda doc: doc.update(field="p:7") or
     _set(MID0 + (0, 0), "3 mod 5")(doc)),
    ("ragged first row", _set(MID0 + (0,), ["4"])),
    ("ragged matrix", _set(MID0, [["4"], ["-4"]])),
    ("ragged partial", _set(("crossed_modules", "zcm", "partial"),
                            [["0", "0"], ["0", "0"], ["0", "0"]])),
    ("row not a list", _set(MID0 + (1,), 7)),
    ("non-module action", _set(MID0, [["1", "0"], ["0", "0"]])),
    ("non-module leibniz action", _set(("modules", "m_leib", "left", "0"),
                                       [["1"]])),
    ("non-equivariant morphism", _set(("morphisms", "beta", "matrix"),
                                      [["1", "0"]])),
    ("non-exact sequence", lambda doc: doc["morphisms"].update(
        beta={"source": "jordan", "target": "jordan",
              "matrix": [["1", "0"], ["0", "1"]]})),
    ("non-crossed module", _set(("crossed_modules", "zcm", "partial"),
                                [["1"], ["0"], ["0"]])),
    ("peiffer failure", _set(("crossed_modules", "pcm"),
                             {"L": "ab", "V": "jordan",
                              "partial": [["0", "1"], ["0", "0"]]})),
    ("non-crossed leibniz module", lambda doc: doc["modules"].update(
        m_leib1={"algebra": "ab_leib", "dim": 1, "left": {"0": [["1"]]},
                 "right": {"0": [["-1"]]}}) or doc["crossed_modules"].update(
        lcm={"L": "ab_leib", "V": "m_leib1", "partial": [["1"]]})),
    ("extension head not injective", _set(EXT + ("f",), [["0"], ["0"]])),
    ("extension pi not surjective",
     _set(EXT + ("pi",), [["0"] * 3] * 3)),
    ("extension chain map not equivariant", _set(EXT + ("f",),
                                                 [["1"], ["0"]])),
    ("extension not exact at the base", _set(EXT + ("chain", 0, "map"),
                                             [["0", "0"]])),
    ("extension length mismatch", _set(EXT + ("n",), 4)),
    ("ragged row then bad scalar", _set(MID0, [["4"], ["4", "x"]])),
    ("later zero structure record", lambda doc: doc["algebras"]["heis"][
        "structure"].append({"i": 0, "j": 1, "k": 0, "value": "0"})),
    ("string row", _set(("modules", "jordan", "action", "0"), ["01", "00"])),
    ("object row", _set(("modules", "jordan", "action", "0"),
                        [{"1": "a", "0": "b"}, {"0": "x", "1": "y"}])),
]

# (code, witness, detail) of each case, recorded before the change
RECORDS = {
    'missing module key':
        ('PARSE_ERROR', 'k',
         "k: missing key 'dim'"),
    'missing extension key':
        ('PARSE_ERROR', 'ext',
         "ext: missing key 'pi'"),
    'missing structure value':
        ('PARSE_ERROR', 'heis',
         "heis: missing key 'value'"),
    'missing chain link key':
        ('PARSE_ERROR', 'ext',
         "ext: missing key 'map'"),
    'unresolved chain module':
        ('UNRESOLVED_REFERENCE', 'nope',
         "unknown module 'nope'"),
    'bad scalar':
        ('PARSE_ERROR', None,
         "bad scalar 'x': bad rational literal 'x'"),
    'zero denominator':
        ('PARSE_ERROR', None,
         "bad scalar '1/0': bad rational literal '1/0'"),
    'integer scalar':
        ('PARSE_ERROR', 'mid',
         "mid: malformed spec: 'int' object has no attribute 'strip'"),
    'list scalar':
        ('PARSE_ERROR', 'mid',
         "mid: malformed spec: 'list' object has no attribute 'strip'"),
    'null scalar':
        ('PARSE_ERROR', 'mid',
         "mid: malformed spec: 'NoneType' object has no attribute 'strip'"),
    'bad structure scalar':
        ('PARSE_ERROR', None,
         "bad scalar 'one': bad rational literal 'one'"),
    'bad cochain scalar':
        ('PARSE_ERROR', None,
         "bad scalar '?': bad rational literal '?'"),
    'bad residue':
        ('PARSE_ERROR', None,
         "bad scalar '3 mod 5': residue '3 mod 5' has wrong modulus for F7"),
    'ragged first row':
        ('PARSE_ERROR', 'mid',
         'mid: malformed spec: ragged matrix rows'),
    'ragged matrix':
        ('PARSE_ERROR', None,
         'ragged matrix rows'),
    'ragged partial':
        ('PARSE_ERROR', None,
         'ragged matrix rows'),
    'row not a list':
        ('PARSE_ERROR', 'mid',
         "mid: malformed spec: 'int' object is not iterable"),
    'non-module action':
        ('VALIDATION_FAIL', 'mid',
         'mid: MODULE_AXIOM_FAIL(0, 1)'),
    'non-module leibniz action':
        ('VALIDATION_FAIL', 'm_leib',
         'm_leib: MODULE_AXIOM_FAIL(0, 0): slot z'),
    'non-equivariant morphism':
        ('VALIDATION_FAIL', 'beta',
         'beta: EQUIVARIANCE_FAIL(0,)'),
    'non-exact sequence':
        ('VALIDATION_FAIL', 'ses',
         "ses: EXACTNESS_FAIL('middle'): im(alpha) != ker(beta)"),
    'non-crossed module':
        ('VALIDATION_FAIL', 'zcm',
         'zcm: EQUIVARIANCE_FAIL(1,)'),
    'peiffer failure':
        ('VALIDATION_FAIL', 'pcm',
         'pcm: PEIFFER_FAIL(1, 1)'),
    'non-crossed leibniz module':
        ('VALIDATION_FAIL', 'lcm',
         'lcm: EQUIVARIANCE_FAIL(0,): left action'),
    'extension head not injective':
        ('VALIDATION_FAIL', 'ext',
         "ext: EXACTNESS_FAIL('M'): head map is not injective"),
    'extension pi not surjective':
        ('VALIDATION_FAIL', 'ext',
         "ext: EXACTNESS_FAIL('g'): pi is not surjective"),
    'extension chain map not equivariant':
        ('VALIDATION_FAIL', 'ext',
         'ext: NOT_G_MODULE_MAP(3): EQUIVARIANCE_FAIL(0,)'),
    'extension not exact at the base':
        ('VALIDATION_FAIL', 'ext',
         "ext: EXACTNESS_FAIL('M_2')"),
    'extension length mismatch':
        ('PARSE_ERROR', 'ext',
         'ext: malformed spec: chain length inconsistent with n'),
    # every scalar of a matrix parses before its shape is checked
    'ragged row then bad scalar':
        ('PARSE_ERROR', None,
         "bad scalar 'x': bad rational literal 'x'"),
    # the "0" erases [e0, e1]'s e0 coordinate, so the bracket is not skew
    'later zero structure record':
        ('VALIDATION_FAIL', 'heis',
         'heis: ANTISYM_FAIL(0, 1)'),
    # a row read as its characters or keys would be a valid matrix
    'string row':
        ('PARSE_ERROR', 'jordan',
         "jordan: malformed spec: matrix row '01' is not a list"),
    'object row':
        ('PARSE_ERROR', 'jordan',
         "jordan: malformed spec: matrix row {'1': 'a', '0': 'b'} is not a "
         "list"),
}


def _edited(edit):
    doc = copy.deepcopy(BASE)
    edit(doc)
    return json.dumps(doc)


def test_base_document_is_valid():
    ws = parse_workspace(json.dumps(BASE))
    assert set(ws.extensions) == {"ext"} and set(ws.sequences) == {"ses"}


def test_the_parsed_views_are_canonical():
    """A matrix's entries go on the lcm of their denominators, however the
    rows bring them in, and a structure record that a later one replaces
    leaves no trace: the views equal those of the field-element
    constructor."""
    doc = copy.deepcopy(BASE)
    doc["modules"]["mixed"] = {"algebra": "ab", "dim": 2, "action": {
        "0": [["1/2", "0"], ["1/3", "3/4"]], "1": [["0", "0"], ["0", "0"]]}}
    doc["algebras"]["heis"]["structure"].insert(
        0, {"i": 0, "j": 1, "k": 0, "value": "1/5"})
    ws = parse_workspace(json.dumps(doc))
    F = Fraction
    assert ws.modules["mixed"].action[0] == Matrix(
        QQ, [[F(1, 2), 0], [F(1, 3), F(3, 4)]])
    assert ws.modules["mixed"].action[0]._ints == (({0: 6}, {0: 4, 1: 9}),
                                                  12)
    heis = parse_workspace(json.dumps(BASE)).algebras["heis"]
    assert ws.algebras["heis"] == heis
    assert ws.algebras["heis"].structure._ints[1] == 1


def test_parse_lists_each_cochains_tuples_once(monkeypatch):
    """One listing of the basis tuples per parsed cochain, of either
    flavor: a Cochain counts its tuples in closed form.  A vector of the
    wrong length is still a ValueError."""
    doc = copy.deepcopy(BASE)
    doc["cochains"]["c_leib"] = {"module": "m_leib", "degree": 3, "entries": [
        {"tuple": [0, 0, 0], "value": ["2"]}]}
    classes = importlib.import_module("crossedext._classes")
    listed = Counter()
    for name in ("ce_tuples", "leib_tuples"):
        def counted(*args, _name=name, _original=getattr(classes, name)):
            listed[_name] += 1
            return _original(*args)
        monkeypatch.setattr(classes, name, counted)
    ws = parse_workspace(json.dumps(doc))
    assert listed == Counter({"ce_tuples": 1, "leib_tuples": 1})
    for c in ws.cochains.values():
        with pytest.raises(ValueError, match="length 0, want 1"):
            type(c)(c.degree, c.module, ())


@pytest.mark.parametrize("case, edit", CASES, ids=[c for c, _ in CASES])
def test_malformed_document_keeps_its_record(case, edit, tmp_path, capsys):
    text = _edited(edit)
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(text)
    got = exc.value
    assert (got.code, got.witness, got.detail) == RECORDS[case]
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["check", "--input", str(path), "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == [
        {"op": "parse", "status": "FAIL", "error": got.code,
         "detail": str(got)}]


# ------------------------------------------------ --field decodes once

def _count_json(monkeypatch):
    calls = Counter()
    for name in ("loads", "dumps"):
        original = getattr(json, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(json, name, counted)
    return calls


def test_field_override_decodes_the_document_once(tmp_path, capsys,
                                                  monkeypatch):
    path = str(FIXTURES / "sl2.json")
    calls = _count_json(monkeypatch)
    assert main(["report", "--input", path, "--field", "p:7",
                 "--format", "json"]) == 0
    # one decode of the document, one encode of the report
    assert calls == Counter({"loads": 1, "dumps": 1})
    monkeypatch.undo()
    records = json.loads(capsys.readouterr().out)["results"]
    assert records and all(r["status"] == "PASS" for r in records)
    # the table over F_7, as in test_workspace_cli
    table, = [r["table"] for r in records if r["op"] == "cohomology"]
    assert [row["dim_h"] for row in table] == [1, 0, 0, 1]
    assert parse_workspace(Path(path).read_text(), "p:7").field.p == 7


@pytest.mark.parametrize("text, detail", [
    ("{ not json", "PARSE_ERROR(1, 3): Expecting property name enclosed in "
                   "double quotes: line 1 column 3 (char 2)"),
    ("[1, 2]", "PARSE_ERROR: top level must be an object"),
])
def test_field_override_on_an_unparsable_document(text, detail, tmp_path,
                                                  capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["check", "--input", str(path), "--field", "p:7",
                 "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["results"] == [
        {"op": "parse", "status": "FAIL", "error": "PARSE_ERROR",
         "detail": detail}]
