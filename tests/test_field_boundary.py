"""Field elements only at the boundary: on the seed-1 crossed-mix report
(perfbench/gen.py, run in this process through `cli.main`), the dense rows
of a `Matrix` (`.data`) are built, and field vectors are turned into
integer views (`linalg._int_vec`), only by the callers allowed below.

`.data` is for serialization and the public records; `_int_vec` for the
functions that read a public record's field vector (`Cochain.vec`).
Everything between runs on integer views.  Before the parse, validators,
sections and solves moved onto integer views, this report built 1054
dense grids (387 of them in `linear_section`) and made 14 018 `_int_vec`
calls (8510 of them in `bracket`); after, it builds none and makes 342."""
import collections
import contextlib
import io
import sys

import crossedext
from crossedext import cli, linalg
from support import perfbench_gen

# serialization, and the structure constants of an algebra as field elements
DATA_READERS = {"_matrix_out", "_structure_out", "c"}
# the functions whose input is a cochain's field vector
INT_VEC_CALLERS = {"check_cocycle", "connecting_hom",
                   "abelian_extension_from_2cocycle"}


def _document(tmp_path):
    text, extra, _ = perfbench_gen().generate("crossed-mix", 1)
    assert extra == []
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    return doc


def test_only_the_boundary_builds_field_elements(tmp_path, monkeypatch):
    doc = _document(tmp_path)
    # run the lazy modules, so that every binding of _int_vec is loaded
    assert crossedext.crossed.theta and crossedext.extensions.pushout
    first_reads = collections.Counter()
    int_vecs = collections.Counter()
    dense = linalg.Matrix.data.fget
    int_vec = linalg._int_vec

    def data(m):
        if m._data is None:
            first_reads[sys._getframe(1).f_code.co_name] += 1
        return dense(m)

    def counted(field, vec):
        int_vecs[sys._getframe(1).f_code.co_name] += 1
        return int_vec(field, vec)

    monkeypatch.setattr(linalg.Matrix, "data", property(data))
    for name, module in list(sys.modules.items()):
        if name.startswith("crossedext") and \
                getattr(module, "_int_vec", None) is int_vec:
            monkeypatch.setattr(module, "_int_vec", counted)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["report", "--input", str(doc), "--format",
                           "json"])
    assert status == 0
    assert set(first_reads) <= DATA_READERS, first_reads
    assert set(int_vecs) <= INT_VEC_CALLERS, int_vecs
    # the cochains' vectors do enter: the counter sees its calls
    assert int_vecs["check_cocycle"] > 0
