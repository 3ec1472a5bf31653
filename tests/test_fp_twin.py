"""The F_p twin of the crossed layer: over p = 2^31 - 1 the report of a
crossed-mix document (perfbench/gen.py, stdlib only) equals its report
over Q once every rational a/b in it is written as the residue
a * b^-1 mod p, the way the F_p report spells its scalars.  Dimensions,
`class_is_zero`, `matches_connecting`, statuses and codes must agree
exactly.

The twin is sound where p divides no denominator and no minor that decides
a rank; at p ~ 2^31 and these sizes a mismatch is a defect until shown
otherwise.  Each report runs in this process, through `cli.main`."""
import contextlib
import io
import json
from fractions import Fraction

import pytest

from crossedext import cli
from support import perfbench_gen

P = 2147483647


def _report(path, *extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["report", "--input", str(path), "--format", "json",
                           *extra])
    return status, json.loads(out.getvalue())["results"]


def _residue(text):
    x = Fraction(text)
    return f"{x.numerator * pow(x.denominator, -1, P) % P} mod {P}"


def _mod_p(value):
    """value with every string of a list (the scalar vectors of a record:
    `class_canonical` and `theta`) mapped to its residue mod P."""
    if isinstance(value, dict):
        return {k: _mod_p(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_residue(x) if isinstance(x, str) else _mod_p(x)
                for x in value]
    return value


def test_residue_spelling():
    assert _residue("0") == f"0 mod {P}"
    assert _residue("-1") == f"{P - 1} mod {P}"
    assert _residue("1/2") == f"{(P + 1) // 2} mod {P}"


@pytest.mark.parametrize("seed", [1, 2])
def test_fp_report_is_the_q_report_mod_p(seed, tmp_path):
    text, extra, _ = perfbench_gen().generate("crossed-mix", seed)
    assert extra == []
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    q_status, q = _report(doc)
    fp_status, fp = _report(doc, "--field", f"p:{P}")
    assert q_status == fp_status == 0
    assert len(fp) == len(q)
    twin = _mod_p(q)
    # the map has work to do: some records carry scalars
    assert sum(a != b for a, b in zip(q, twin)) > 0
    for want, got in zip(twin, fp):
        assert got == want
