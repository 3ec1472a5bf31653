"""No module of the package imports a name it never reads.

No linter runs on this code, and a refactor that moves work into a shared
helper leaves the names the old loops used (often `_`-prefixed linalg
kernels) imported and unread.  This test finds them with `ast`: every name
an import binds must be read somewhere in its module.  The only names
exempt are re-exports: the public names `__init__` imports for the
package's surface, and `CE` and `LEIBNIZ`, which `cohomology` re-exports
next to the complexes they name."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "crossedext"

RE_EXPORTS = {"cohomology": {"CE", "LEIBNIZ"}}


def unread_imports(source, public_reexports=False, allowed=()):
    """The names the module source imports and never reads, sorted;
    public names are skipped when public_reexports is set."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in bound - read - set(allowed)
                  if not (public_reexports and not name.startswith("_")))


def test_the_check_sees_an_unread_import():
    source = ("from .linalg import _columns, _sum\n"
              "import math\n"
              "def f(x):\n"
              "    return _sum(x), math.pi\n")
    assert unread_imports(source) == ["_columns"]
    assert unread_imports("from . import crossed\ncrossed.theta\n") == []
    assert unread_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path.read_text(),
                          public_reexports=path.stem == "__init__",
                          allowed=RE_EXPORTS.get(path.stem, ())) == []


# What the dense oracles may take from the package: records and their
# constructors, basis enumeration, the section check that precedes theta,
# and the two converters between integer views and field vectors.
ORACLE = Path(__file__).resolve().parent / "dense_oracle.py"
ORACLE_ALLOWED = {"CheckFailure", "LinearMap", "Matrix", "sides",
                  "cochain_from_values", "ce_tuples", "leib_tuples",
                  "sort_with_sign", "_check_sections", "_int_vec",
                  "_field_vec"}
# the integer kernels and solvers that the oracles are there to check
ENGINE = {"_kernel_puller", "_bracket", "_lincomb", "_lincomb_rows",
          "_mul_vec", "_mul_rows", "_sum", "_first_nonzero_row", "_echelon",
          "Echelon", "solve", "solve_matrix", "rref", "kernel", "image",
          "linear_section"}


def engine_uses(source):
    """(names imported from crossedext, sorted; whether a module of it is
    imported whole; the engine names the source reads as a name or an
    attribute, sorted)."""
    tree = ast.parse(source)
    names, whole = set(), False
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "crossedext":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            whole |= any(alias.name.split(".")[0] == "crossedext"
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    read |= {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    return sorted(names), whole, sorted(read & ENGINE)


def test_the_oracle_check_sees_an_engine_kernel():
    source = ("from crossedext.linalg import Matrix, _echelon\n"
              "import crossedext.crossed\n"
              "def f(alg, u, v):\n"
              "    return alg._bracket(u, v)\n")
    names, whole, read = engine_uses(source)
    assert set(names) - ORACLE_ALLOWED == {"_echelon"}
    assert whole and read == ["_bracket"]


def test_the_dense_oracles_share_no_kernel_with_the_engine():
    names, whole, read = engine_uses(ORACLE.read_text())
    assert set(names) <= ORACLE_ALLOWED, set(names) - ORACLE_ALLOWED
    assert not whole
    assert read == []
