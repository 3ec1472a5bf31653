import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import crossedext
from crossedext.errors import CheckFailure
from crossedext.cli import main, run
from crossedext.workspace import parse_workspace, serialize_workspace

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

MINIMAL = json.dumps({
    "field": "q",
    "algebras": {"a1": {"type": "lie", "dim": 1, "structure": []}},
    "commands": [{"op": "check"}],
})


def test_minimal_document_parses():
    ws = parse_workspace(MINIMAL)
    assert set(ws.algebras) == {"a1"}
    assert ws.algebras["a1"].dim == 1


def test_unresolved_reference():
    doc = json.loads(MINIMAL)
    doc["modules"] = {"m": {"algebra": "nope", "dim": 1, "action": {}}}
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(doc))
    assert exc.value.code == "UNRESOLVED_REFERENCE"


def test_parse_error_carries_position():
    with pytest.raises(CheckFailure) as exc:
        parse_workspace("{ not json")
    assert exc.value.code == "PARSE_ERROR"
    assert exc.value.witness is not None


def test_validation_failure_names_object():
    doc = json.loads(MINIMAL)
    doc["algebras"]["bad"] = {
        "type": "lie", "dim": 2,
        "structure": [{"i": 0, "j": 1, "k": 0, "value": "1"},
                      {"i": 1, "j": 0, "k": 0, "value": "1"}]}
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(doc))
    assert exc.value.code == "VALIDATION_FAIL"
    assert exc.value.witness == "bad"


def test_serialize_parse_idempotent_on_fixtures():
    for name in ("sl2.json", "yoneda_jordan.json"):
        text = (FIXTURES / name).read_text()
        once = serialize_workspace(parse_workspace(text))
        twice = serialize_workspace(parse_workspace(once))
        assert once == twice


def test_sl2_fixture_cohomology_table():
    ws = parse_workspace((FIXTURES / "sl2.json").read_text())
    records = run(ws, "cohomology")
    table = records[0]["table"]
    assert [row["dim_h"] for row in table] == [1, 0, 0, 1]


def test_yoneda_fixture_agrees_with_connecting():
    ws = parse_workspace((FIXTURES / "yoneda_jordan.json").read_text())
    recs = run(ws, "yoneda")
    assert recs[0]["status"] == "PASS"
    assert recs[0]["matches_connecting"] is True
    conn = run(ws, "connecting")[0]
    assert conn["class_canonical"] == recs[0]["class_canonical"]


def test_cli_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(MINIMAL)
    assert main(["check", "--input", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", "--input", str(bad)]) == 1
    assert main(["check", "--input", str(tmp_path / "absent.json")]) == 2


def test_cli_json_reports_byte_identical(tmp_path, capsys):
    path = str(FIXTURES / "sl2.json")
    main(["report", "--input", path, "--format", "json"])
    first = capsys.readouterr().out
    main(["report", "--input", path, "--format", "json"])
    second = capsys.readouterr().out
    assert first == second
    json.loads(first)  # well-formed


def test_cli_field_override(tmp_path, capsys):
    path = str(FIXTURES / "sl2.json")
    rc = main(["cohomology", "--input", path, "--field", "p:7",
               "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["dim_h"] for r in out["results"][0]["table"]] == [1, 0, 0, 1]


def test_console_script_installed():
    # the child imports the same crossedext as this process, installed or not
    src = str(Path(crossedext.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "crossedext.cli", "report", "--input",
         str(FIXTURES / "sl2.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "[PASS] cohomology" in proc.stdout


# SHA-256 of `crossed-ext report --format json` on each fixture, recorded
# with the dense elimination engine that the sparse one replaced.
REPORT_SHA256 = {
    "sl2.json":
        "03369fdb1294be4ca660e51e0e6bbab06540e8cf8b049c1dfd92a2b6372d7957",
    "yoneda_jordan.json":
        "438fed50275f18a068722d7d7266b342f4d4e4155f3994453e2f9a2aaf709be1",
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_fixture_reports_byte_identical_to_recorded(name, capsys):
    assert main(["report", "--input", str(FIXTURES / name),
                 "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == REPORT_SHA256[name]


@pytest.mark.parametrize("spec", ["p:4", "p:561", "p:3215031751", "p:x"])
def test_cli_bad_field_is_a_parse_error(spec, capsys):
    rc = main(["cohomology", "--input", str(FIXTURES / "sl2.json"),
               "--field", spec, "--format", "json"])
    assert rc == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["op"], rec["status"], rec["error"]) == \
        ("parse", "FAIL", "PARSE_ERROR")


def test_cli_field_override_on_non_object_document(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["check", "--input", str(path), "--field", "p:7",
                 "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert rec["error"] == "PARSE_ERROR"


def test_document_bad_field_is_a_parse_error():
    doc = json.loads(MINIMAL)
    doc["field"] = "p:9"
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(doc))
    assert exc.value.code == "PARSE_ERROR"


def test_cli_large_prime_field_finishes(capsys):
    t0 = time.perf_counter()
    rc = main(["cohomology", "--input", str(FIXTURES / "sl2.json"),
               "--field", f"p:{2 ** 61 - 1}", "--format", "json"])
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert [r["dim_h"] for r in out["results"][0]["table"]] == [1, 0, 0, 1]


def test_check_unknown_object_is_unresolved(tmp_path, capsys):
    doc = json.loads(MINIMAL)
    doc["commands"] = [{"op": "check", "object": "does_not_exist"}]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path), "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["status"], rec["error"]) == ("FAIL", "UNRESOLVED_REFERENCE")
    doc["commands"] = [{"op": "check", "object": "a1"}]
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path), "--format", "json"]) == 0


def test_cli_max_degree_caps_the_document(capsys):
    path = str(FIXTURES / "sl2.json")  # its cohomology command asks for 3
    assert main(["cohomology", "--input", path, "--max-degree", "1",
                 "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["results"][0]["table"]
    assert [row["degree"] for row in table] == [0, 1]
    assert main(["cohomology", "--input", path, "--max-degree", "5",
                 "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)["results"][0]["table"]
    assert [row["degree"] for row in table] == [0, 1, 2, 3]


def _sl2_with(tmp_path, edit):
    doc = json.loads((FIXTURES / "sl2.json").read_text())
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _first_module(doc):
    return sorted(doc["modules"])[0]


@pytest.mark.parametrize("edit, key", [
    (lambda spec: spec.pop("dim"), "'dim'"),
    (lambda spec: spec.update(dim="3"), "'dim'"),
    (lambda spec: spec.update(dim=True), "'dim'"),
    (lambda spec: spec.pop("algebra"), "'algebra'"),
    (lambda spec: spec.update(action=[]), "'action'"),
    (lambda spec: spec["action"].pop("0"), "'action'"),
])
def test_missing_or_mistyped_module_key_is_a_parse_error(edit, key, tmp_path,
                                                         capsys):
    name = []

    def mutate(doc):
        name.append(_first_module(doc))
        edit(doc["modules"][name[0]])

    path = _sl2_with(tmp_path, mutate)
    assert main(["check", "--input", path, "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["op"], rec["status"], rec["error"]) == \
        ("parse", "FAIL", "PARSE_ERROR")
    assert name[0] in rec["detail"] and key in rec["detail"]


def _module_row(doc):
    return doc["modules"][_first_module(doc)]["action"]["0"][0]


def _structure_record(doc):
    return doc["algebras"]["sl2"]["structure"][0]


@pytest.mark.parametrize("edit, named", [
    (lambda doc: _module_row(doc).pop(), "adjoint"),
    (lambda doc: _module_row(doc).__setitem__(0, 1), "adjoint"),
    (lambda doc: _structure_record(doc).pop("value"), "sl2"),
    (lambda doc: _structure_record(doc).update(i="0"), "sl2"),
    (lambda doc: _structure_record(doc).update(k=3), "sl2"),
    (lambda doc: doc.update(modules=[]), "modules"),
    (lambda doc: doc["commands"].append("check"), "commands"),
])
def test_malformed_document_is_a_parse_error(edit, named, tmp_path, capsys):
    path = _sl2_with(tmp_path, edit)
    assert main(["check", "--input", path, "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["op"], rec["error"]) == ("parse", "PARSE_ERROR")
    assert named in rec["detail"]


@pytest.mark.parametrize("value", ["3", True, 2.5, None])
def test_non_integer_max_degree_is_a_fail_record(value, tmp_path, capsys):
    def edit(doc):
        for cmd in doc["commands"]:
            if cmd["op"] == "cohomology":
                cmd["max_degree"] = value

    path = _sl2_with(tmp_path, edit)
    assert main(["cohomology", "--input", path, "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["op"], rec["status"], rec["error"]) == \
        ("cohomology", "FAIL", "PARSE_ERROR")
    assert "max_degree" in rec["detail"]


def test_non_string_object_name_is_a_fail_record(tmp_path, capsys):
    def edit(doc):
        for cmd in doc["commands"]:
            if cmd["op"] == "cohomology":
                cmd["algebra"] = ["sl2"]

    path = _sl2_with(tmp_path, edit)
    assert main(["cohomology", "--input", path, "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["status"], rec["error"]) == ("FAIL", "PARSE_ERROR")


@pytest.mark.parametrize("op", ["report", "nope", ["theta"], {"op": 1}, 3,
                                None])
def test_unknown_command_record(op):
    from crossedext.cli import COMMANDS, run_command
    assert COMMANDS == ("check", "cohomology", "theta", "classify",
                        "baer-sum", "pushout", "connecting", "yoneda",
                        "report")
    ws = parse_workspace((FIXTURES / "sl2.json").read_text())
    assert run_command(ws, {"op": op}) == \
        [{"op": op, "status": "FAIL", "error": "UNKNOWN_COMMAND"}]


@pytest.mark.parametrize("value", [-1, -5])
def test_negative_max_degree_is_a_fail_record(value, tmp_path, capsys):
    def edit(doc):
        for cmd in doc["commands"]:
            if cmd["op"] == "cohomology":
                cmd["max_degree"] = value

    path = _sl2_with(tmp_path, edit)
    assert main(["cohomology", "--input", path, "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["op"], rec["status"], rec["error"]) == \
        ("cohomology", "FAIL", "PARSE_ERROR")
    assert "non-negative integer" in rec["detail"]
    assert "table" not in rec


@pytest.mark.parametrize("value", ["-1", "x"])
def test_bad_max_degree_option_is_a_usage_error(value, capsys):
    path = str(FIXTURES / "sl2.json")
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--input", path, "--max-degree", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--max-degree" in err and "non-negative integer" in err


def test_crossed_module_over_a_module_of_the_other_flavor(capsys, tmp_path):
    doc = json.loads(MINIMAL)
    zero = [["0"]]
    doc["modules"] = {"m": {"algebra": "a1", "dim": 1, "left": {"0": zero},
                            "right": {"0": zero}}}
    doc["crossed_modules"] = {"x": {"L": "a1", "V": "m", "partial": zero}}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--input", str(path), "--format", "json"]) == 1
    rec = json.loads(capsys.readouterr().out)["results"][0]
    assert (rec["op"], rec["error"]) == ("parse", "PARSE_ERROR")
    assert "x" in rec["detail"]
