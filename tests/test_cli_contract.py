"""The CLI contract on hostile input: every failure is a record with a
status and an error code, the exit status is 1, and no traceback reaches
stderr.  A module carries its algebra and its flavor, so an input that names
another algebra or flavor beside a module is refused where it enters.  A Q
scalar whose decimal exponent is over the digits Python allows a decimal
string is refused before `Fraction` expands it, and a theta past the work
budget before any of its work.  An extension's modules are modules over its
g, and its pi maps L onto g."""
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import crossedext
from crossedext import cli, crossed
from crossedext._classes import _cochain_work
from crossedext.cli import run_command
from crossedext.cohomology import TABLE_BUDGET
from crossedext.errors import CheckFailure
from crossedext.extensions import CrossedExtension, validate_extension
from crossedext.linalg import LinearMap, Matrix
from crossedext.workspace import parse_workspace
from support import perfbench_gen
from test_command_reuse import _workspace

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _ladder_doc():
    """The seed-1 ladder-q document of perfbench/gen.py (stdlib only)."""
    text, _, _ = perfbench_gen().generate("ladder-q", 1)
    return json.loads(text)


def _jordan(**cochains):
    doc = json.loads((FIXTURES / "yoneda_jordan.json").read_text())
    doc["cochains"].update(cochains)
    return doc


ZERO1 = [["0"]]
ZERO2 = [["0", "0"], ["0", "0"]]

# one-dimensional Leibniz algebra, its zero crossed module (V = k) and the
# exact 0 -> k -> k^2 -> V -> L -> L -> 0, all actions zero
LEIBNIZ_EXTENSION = {
    "field": "q",
    "algebras": {"h1": {"type": "leibniz", "dim": 1}},
    "modules": {
        "v": {"algebra": "h1", "dim": 1, "left": {"0": ZERO1},
              "right": {"0": ZERO1}},
        "m": {"algebra": "h1", "dim": 1, "left": {"0": ZERO1},
              "right": {"0": ZERO1}},
        "m2": {"algebra": "h1", "dim": 2, "left": {"0": ZERO2},
               "right": {"0": ZERO2}}},
    "crossed_modules": {"zero": {"L": "h1", "V": "v", "partial": ZERO1}},
    "extensions": {"ext": {"n": 3, "g": "h1", "M": "m", "f": [["1"], ["0"]],
                           "chain": [{"module": "m2", "map": [["0", "1"]]}],
                           "base": "zero", "pi": [["1"]]}},
    "commands": [{"op": "check"}]}


def _cochain(module, degree, entries=(), **extra):
    return dict(module=module, degree=degree, entries=list(entries), **extra)


DEG1_ON_JORDAN2 = _cochain("jordan2", 1, [{"tuple": [0], "value": ["1", "0"]}])
DEG3_ON_K_TAIL = _cochain("k_tail", 3, [{"tuple": [0, 1, 2], "value": ["1"]}])
LEIBNIZ_ON_K_TAIL = _cochain("k_tail", 2, flavor="leibniz")


def _on_sequence(op, cochain):
    return {**_jordan(c=cochain),
            "commands": [{"op": op, "sequence": "jordan_ses", "cochain": "c"}]}


def _crossed_over(dim):
    """sl2.json plus a crossed module whose V, the sl2 adjoint module, is
    read over an abelian L of dimension dim, with zero boundary."""
    doc = json.loads((FIXTURES / "sl2.json").read_text())
    doc["algebras"]["ab"] = {"type": "lie", "dim": dim}
    doc["crossed_modules"]["wrong_base"] = {
        "L": "ab", "V": "adjoint", "partial": [["0"] * 3] * dim}
    doc["commands"] = [{"op": "check"}]
    return doc


def _cohomology_over(algebra):
    return {**_ladder_doc(),
            "commands": [{"op": "cohomology", "algebra": algebra,
                          "module": "sl2_adjoint", "max_degree": 2}]}


def _over_zero_algebra(op, degree):
    """0 -> k -> k^2 -> k -> 0 over the 0-dimensional algebra, and op on a
    cochain valued in a 3-dimensional module instead of the tail k: over
    that algebra every module's action is empty, so only the dimensions
    tell the modules apart."""
    def module(dim):
        return {"algebra": "z", "dim": dim, "action": {}}
    return {"field": "q", "algebras": {"z": {"type": "lie", "dim": 0}},
            "modules": {"a": module(1), "b": module(2), "c": module(1),
                        "x": module(3)},
            "morphisms": {
                "alpha": {"source": "a", "target": "b",
                          "matrix": [["1"], ["0"]]},
                "beta": {"source": "b", "target": "c",
                         "matrix": [["0", "1"]]}},
            "sequences": {"ses": {"alpha": "alpha", "beta": "beta"}},
            "cochains": {"c": _cochain("x", degree)},
            "commands": [{"op": op, "sequence": "ses", "cochain": "c"}]}


def _bare_algebra(dim, **kind):
    """One algebra of dimension dim without structure constants: past the
    parse's work budget at dim 800."""
    return {"algebras": {"a": {"dim": dim, **kind}}}


def _cochain_over(dim, degree, kind="lie"):
    """An algebra of dimension dim without structure constants, its trivial
    1-dimensional module and an empty cochain of the degree: past the
    parse's work budget at degree 10**18 whatever dim is, and at degree 24
    for a 2-dimensional Leibniz algebra (2**24 tuples)."""
    zero = {str(i): ZERO1 for i in range(dim)}
    module = ({"left": zero, "right": zero} if kind == "leibniz"
              else {"action": zero})
    return {"algebras": {"a": {"type": kind, "dim": dim}},
            "modules": {"m": {"algebra": "a", "dim": 1, **module}},
            "cochains": {"c": _cochain("m", degree)}}


def _action_scalar(scalar):
    """The one-dimensional module of the one-dimensional abelian algebra on
    which the basis vector acts by the scalar string."""
    return {"algebras": {"a": {"type": "lie", "dim": 1}},
            "modules": {"m": {"algebra": "a", "dim": 1,
                              "action": {"0": [[scalar]]}}}}


# a decimal exponent that Fraction would expand into a 33-million-bit
# integer, taking about 9 s each, were it not refused first
HUGE_EXPONENTS = ["1e10000000", "1e-10000000"]

# the Jordan fixture's vol12 with a value the parse admits, 10 to the digit
# limit, whose connecting class has a scalar of one digit more than `str`
# writes
VOL12_AT_THE_LIMIT = _cochain(
    "k_head", 2, [{"tuple": [1, 2],
                   "value": [f"1e{sys.get_int_max_str_digits()}"]}],
    flavor="ce")


def _zero_crossed(dim):
    """The zero crossed module over the abelian L of dimension dim, on a V
    of that dimension with zero action and zero boundary, and one theta
    command: theta would fill C(dim, 3) * dim entries of C^3(g, M), 980 000
    at dim 50."""
    zero = [["0"] * dim] * dim
    return {"algebras": {"L": {"type": "lie", "dim": dim}},
            "modules": {"V": {"algebra": "L", "dim": dim,
                              "action": {str(i): zero for i in range(dim)}}},
            "crossed_modules": {"zero": {"L": "L", "V": "V",
                                         "partial": zero}},
            "commands": [{"op": "theta", "crossed_module": "zero"}]}


def _solvable_extension(over="s2", pi=(["1", "0"], ["0", "1"]),
                        commands=("check",)):
    """The exact 0 -> k -> k^2 -> V -> L -> g -> 0 of length 3 over the
    2-dimensional solvable g = L ([e0, e1] = e1), V = k, d_1 = 0 and pi the
    identity, all modules trivial; M and the chain module k^2 are read over
    the algebra over, and pi is the given rows.  With over the abelian ab2
    or with a third row of pi, the parse once passed it."""
    def trivial(algebra, dim):
        zero = [["0"] * dim] * dim
        return {"algebra": algebra, "dim": dim,
                "action": {"0": zero, "1": zero}}
    return {"field": "q",
            "algebras": {"s2": {"type": "lie", "dim": 2, "structure": [
                {"i": 0, "j": 1, "k": 1, "value": "1"},
                {"i": 1, "j": 0, "k": 1, "value": "-1"}]},
                "ab2": {"type": "lie", "dim": 2}},
            "modules": {"v": trivial("s2", 1), "m": trivial(over, 1),
                        "m2": trivial(over, 2)},
            "crossed_modules": {"zero": {"L": "s2", "V": "v",
                                         "partial": [["0"], ["0"]]}},
            "extensions": {"ext": {"n": 3, "g": "s2", "M": "m",
                                   "f": [["1"], ["0"]],
                                   "chain": [{"module": "m2",
                                              "map": [["0", "1"]]}],
                                   "base": "zero", "pi": list(pi)}},
            "commands": [{"op": "check"} if op == "check" else
                         {"op": op, "left": "ext", "right": "ext"}
                         for op in commands]}


# (document, expected error code of its one record)
HOSTILE = {
    "cohomology-heis3-sl2": (lambda: _cohomology_over("heis3"),
                             "BASE_MISMATCH"),
    "cohomology-gl3-sl2": (lambda: _cohomology_over("gl3"), "BASE_MISMATCH"),
    "connecting-deg1-jordan2": (
        lambda: _on_sequence("connecting", DEG1_ON_JORDAN2), "BASE_MISMATCH"),
    "yoneda-deg1-jordan2": (
        lambda: _on_sequence("yoneda", DEG1_ON_JORDAN2), "BASE_MISMATCH"),
    "yoneda-deg3-k_tail": (
        lambda: _on_sequence("yoneda", DEG3_ON_K_TAIL), "DEGREE_MISMATCH"),
    "connecting-leibniz-k_tail": (
        lambda: _on_sequence("connecting", LEIBNIZ_ON_K_TAIL), "PARSE_ERROR"),
    "yoneda-leibniz-k_tail": (
        lambda: _on_sequence("yoneda", LEIBNIZ_ON_K_TAIL), "PARSE_ERROR"),
    "cochain-flavor-xyz": (
        lambda: _jordan(c=_cochain("k_tail", 2, flavor="xyz")),
        "PARSE_ERROR"),
    "leibniz-extension": (lambda: LEIBNIZ_EXTENSION, "VALIDATION_FAIL"),
    "crossed-ab3-sl2-adjoint": (lambda: _crossed_over(3), "VALIDATION_FAIL"),
    "crossed-ab2-sl2-adjoint": (lambda: _crossed_over(2), "VALIDATION_FAIL"),
    "connecting-zero-algebra-x3": (lambda: _over_zero_algebra("connecting", 0),
                                   "BASE_MISMATCH"),
    "yoneda-zero-algebra-x3": (lambda: _over_zero_algebra("yoneda", 2),
                               "BASE_MISMATCH"),
    "algebra-lie-800": (lambda: _bare_algebra(800), "VALIDATION_FAIL"),
    "algebra-lie-100000": (lambda: _bare_algebra(100_000), "VALIDATION_FAIL"),
    "algebra-leibniz-800": (lambda: _bare_algebra(800, type="leibniz"),
                            "VALIDATION_FAIL"),
    "algebra-leibniz-100000": (
        lambda: _bare_algebra(100_000, type="leibniz"), "VALIDATION_FAIL"),
    "cochain-lie2-1e18": (lambda: _cochain_over(2, 10 ** 18),
                          "VALIDATION_FAIL"),
    "cochain-leibniz2-1e18": (lambda: _cochain_over(2, 10 ** 18, "leibniz"),
                              "VALIDATION_FAIL"),
    "cochain-leibniz0-1e18": (lambda: _cochain_over(0, 10 ** 18, "leibniz"),
                              "VALIDATION_FAIL"),
    "cochain-leibniz2-24": (lambda: _cochain_over(2, 24, "leibniz"),
                            "VALIDATION_FAIL"),
    **{f"action-scalar-{s}": (lambda s=s: _action_scalar(s), "PARSE_ERROR")
       for s in HUGE_EXPONENTS},
    "connecting-vol12-1e-limit": (
        lambda: _on_sequence("connecting", VOL12_AT_THE_LIMIT),
        "BUDGET_EXCEEDED"),
    **{f"theta-zero-crossed-{d}": (lambda d=d: _zero_crossed(d),
                                   "BUDGET_EXCEEDED") for d in (50, 60)},
    "extension-modules-over-ab2": (
        lambda: _solvable_extension("ab2", commands=("check", "baer-sum")),
        "VALIDATION_FAIL"),
    "extension-pi-3x2": (
        lambda: _solvable_extension(pi=(["1", "0"], ["0", "1"], ["0", "0"])),
        "PARSE_ERROR"),
}


def _address_space_cap():
    """Hold a child to 3 GB of address space, so that a document that
    escapes the work budget fails with a MemoryError, not by exhausting the
    host."""
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


# the seconds a child may run: every case ends in well under one, so a
# document that hangs fails here (subprocess.TimeoutExpired) and does not
# hang the suite
HOSTILE_SECONDS = 60


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_is_a_fail_record(case, tmp_path):
    make, code = HOSTILE[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(make()))
    # the child imports the same crossedext as this process, installed or not
    src = str(Path(crossedext.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "crossedext.cli", "report", "--input",
         str(path), "--format", "json"],
        capture_output=True, text=True, env=env,
        preexec_fn=_address_space_cap, timeout=HOSTILE_SECONDS)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    records = json.loads(proc.stdout)["results"]
    assert all("status" in r and "error" in r for r in records)
    assert [(r["status"], r["error"]) for r in records] == [("FAIL", code)]


@pytest.mark.parametrize("scalar", HUGE_EXPONENTS)
def test_a_huge_decimal_exponent_is_refused_at_once(scalar):
    start = time.perf_counter()
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(_action_scalar(scalar)))
    assert time.perf_counter() - start < 2
    assert (exc.value.code, exc.value.detail) == (
        "PARSE_ERROR", f"bad scalar {scalar!r}: bad rational literal "
                       f"{scalar!r}")


def test_a_record_scalar_past_the_digit_limit_names_its_field():
    ws = parse_workspace(json.dumps(_on_sequence("connecting",
                                                 VOL12_AT_THE_LIMIT)))
    assert run_command(ws, ws.commands[0]) == [{
        "op": "connecting", "status": "FAIL", "error": "BUDGET_EXCEEDED",
        "detail": "BUDGET_EXCEEDED('class_canonical'): a scalar has more "
                  f"than {sys.get_int_max_str_digits()} digits"}]


def test_theta_past_the_work_budget_is_refused_at_once():
    """theta is held to the budget of a parsed 3-cochain valued in M: at
    dim 50 it is refused, parse included, in under 2 s; at dim 20 (22 803
    units) it is built."""
    start = time.perf_counter()
    ws = parse_workspace(json.dumps(_zero_crossed(50)))
    rec, = run_command(ws, ws.commands[0])
    assert time.perf_counter() - start < 2
    assert (rec["status"], rec["error"]) == ("FAIL", "BUDGET_EXCEEDED")
    assert rec["detail"] == "BUDGET_EXCEEDED(3): over the work budget of " \
                            f"{TABLE_BUDGET}"
    ws = parse_workspace(json.dumps(_zero_crossed(20)))
    pres = crossed.induced_pair(ws.crossed_modules["zero"])
    assert _cochain_work(pres.M, 3) == 22_803 <= TABLE_BUDGET
    assert crossed.theta(pres).is_zero()


@pytest.mark.parametrize("scalar, value", [
    ("1e3", 1000), ("-2.5e-2", Fraction(-1, 40)),
    (f"1e{sys.get_int_max_str_digits()}",
     10 ** sys.get_int_max_str_digits())], ids=["1e3", "-2.5e-2", "1e-limit"])
def test_a_decimal_exponent_within_the_digit_limit_parses(scalar, value):
    m = parse_workspace(json.dumps(_action_scalar(scalar))).modules["m"]
    assert m.action[0].data == ((value,),)


def test_cohomology_over_another_algebra_is_not_a_pass():
    ws = parse_workspace(json.dumps(_ladder_doc()))
    rec, = run_command(ws, {"op": "cohomology", "algebra": "heis3",
                            "module": "sl2_adjoint"})
    assert (rec["status"], rec["error"]) == ("FAIL", "BASE_MISMATCH")


@pytest.mark.parametrize("dim", [2, 3])
def test_crossed_module_over_another_algebra_is_a_base_mismatch(dim):
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(_crossed_over(dim)))
    assert (exc.value.code, exc.value.witness) == ("VALIDATION_FAIL",
                                                   "wrong_base")
    assert "BASE_MISMATCH" in exc.value.detail


def test_extension_modules_over_g_and_pi_onto_g_are_accepted():
    """The document of the hostile extensions, with its modules over g and
    its pi square, passes check and baer-sum; over ab2 its first module is
    named, and a third row of pi is a malformed spec."""
    ws = parse_workspace(json.dumps(_solvable_extension(
        commands=("check", "baer-sum"))))
    assert all(r["status"] == "PASS" for r in cli.run(ws, "report"))
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(_solvable_extension("ab2")))
    assert (exc.value.code, exc.value.witness) == ("VALIDATION_FAIL", "ext")
    assert "BASE_MISMATCH('M')" in exc.value.detail
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(_solvable_extension(
            pi=(["1", "0"], ["0", "1"], ["0", "0"]))))
    assert exc.value.code == "PARSE_ERROR"
    assert "pi has wrong shape" in exc.value.detail


def test_a_chain_map_of_the_wrong_shape_is_named():
    """d_2 : k^2 -> V with a second row, into the 1-dimensional V, is a
    malformed spec that names the map, not an index error."""
    doc = _solvable_extension()
    doc["extensions"]["ext"]["chain"][0]["map"] = [["0", "1"], ["0", "0"]]
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(doc))
    assert (exc.value.code, exc.value.witness) == ("PARSE_ERROR", "ext")
    assert exc.value.detail == \
        "ext: malformed spec: chain map d_2 has wrong shape"


def test_absent_flavor_is_the_modules_and_its_own_is_accepted():
    ws = parse_workspace(json.dumps(_jordan(
        a=_cochain("k_tail", 2), b=_cochain("k_tail", 2, flavor="ce"))))
    assert ws.cochains["a"].flavor == ws.cochains["b"].flavor == "ce"


def test_leibniz_extension_is_unsupported_flavor():
    with pytest.raises(CheckFailure) as exc:
        parse_workspace(json.dumps(LEIBNIZ_EXTENSION))
    assert (exc.value.code, exc.value.witness) == ("VALIDATION_FAIL", "ext")
    assert "UNSUPPORTED_FLAVOR" in exc.value.detail
    doc = dict(LEIBNIZ_EXTENSION, extensions={})
    ws = parse_workspace(json.dumps(doc))
    h, F = ws.algebras["h1"], ws.field
    E = CrossedExtension(
        3, h, ws.modules["m"], LinearMap(Matrix(F, [[1], [0]], cols=1)),
        (ws.modules["m2"],), (LinearMap(Matrix(F, [[0, 1]], cols=2)),),
        ws.crossed_modules["zero"], LinearMap(Matrix.identity(F, 1)))
    with pytest.raises(CheckFailure) as exc:
        validate_extension(E)
    assert exc.value.code == "UNSUPPORTED_FLAVOR"


# a one-dimensional Lie algebra, its zero crossed module (V = k) and a
# document extension of length n over it: at n = 2 the exact
# 0 -> k -> V -> L -> L -> 0 with no chain, at n = 1 no chain either
def _short_extension(n):
    zero = {"algebra": "g1", "dim": 1, "action": {"0": ZERO1}}
    return {"field": "q", "algebras": {"g1": {"type": "lie", "dim": 1}},
            "modules": {"v": zero, "m": zero},
            "crossed_modules": {"zero": {"L": "g1", "V": "v",
                                         "partial": ZERO1}},
            "extensions": {"ext": {"n": n, "g": "g1", "M": "m", "f": [["1"]],
                                   "chain": [], "base": "zero",
                                   "pi": [["1"]]}},
            "commands": [{"op": "check"}]}


@pytest.mark.parametrize("n", [2, 1])
def test_document_extension_shorter_than_three_is_a_parse_error(
        n, tmp_path, capsys):
    """A document's extensions start at length 3: a crossed module is
    written as one, not as an extension of length 2, so a shorter one is
    one parse record naming the extension, in both formats."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_short_extension(n)))
    assert cli.main(["check", "--input", str(path), "--format",
                     "json"]) == 1
    out, err = capsys.readouterr()
    rec, = json.loads(out)["results"]
    assert (rec["op"], rec["status"], rec["error"]) == \
        ("parse", "FAIL", "PARSE_ERROR")
    assert rec["detail"].startswith("PARSE_ERROR('ext')")
    assert err == ""
    assert cli.main(["check", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("[FAIL] parse  detail=PARSE_ERROR('ext')")
    assert out.count("\n") == 1 and err == ""


# the name arguments of each command
OP_ARGS = {"check": ("object",), "cohomology": ("algebra", "module"),
           "theta": ("crossed_module",), "classify": ("crossed_module",),
           "baer-sum": ("left", "right"), "pushout": ("f", "g"),
           "connecting": ("sequence", "cochain"),
           "yoneda": ("sequence", "cochain")}

SWEPT = {
    "sl2": lambda: parse_workspace((FIXTURES / "sl2.json").read_text()),
    "yoneda_jordan": lambda: parse_workspace(
        (FIXTURES / "yoneda_jordan.json").read_text()),
    "leibniz": _workspace,
}


@pytest.mark.parametrize("which", sorted(SWEPT))
def test_every_name_in_every_argument_gives_records(which):
    """Every object name of the workspace in every name argument of every
    command: a record for each, never an exception."""
    ws = SWEPT[which]()
    names = sorted({n for table in (ws.algebras, ws.modules, ws.morphisms,
                                    ws.cochains, ws.crossed_modules,
                                    ws.sequences, ws.extensions)
                    for n in table})
    for op, keys in OP_ARGS.items():
        for values in itertools.product(names, repeat=len(keys)):
            cmd = {"op": op, **dict(zip(keys, values))}
            records = run_command(ws, cmd, degree_cap=2)
            assert records, cmd
            for rec in records:
                assert rec["status"] in ("PASS", "FAIL"), cmd
                assert rec["status"] == "PASS" or "error" in rec, cmd


@pytest.mark.parametrize("fmt", ["json", "human"])
def test_closed_stdout_is_exit_1_without_traceback(fmt):
    """`crossed-ext report ... | head -c 400` closes the pipe before the
    report is written: the child gets EPIPE, writes nothing to stderr and
    exits 1.  The read end is closed before the child starts, so every
    write of the child fails, whatever the timing."""
    src = str(Path(crossedext.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "crossedext.cli", "report", "--input",
             str(FIXTURES / "sl2.json"), "--format", fmt],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write)
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ""
    assert proc.returncode == 1
