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
