"""The parse's module validator does the work that antisymmetry leaves:
on the benchmark's crossed-mix document (seed 1, generated by
perfbench/gen.py as in test_bench_documents), `validate_module` forms
each product rho(e_i) rho(e_j) with i != j once, and none on the
diagonal, so it calls `linalg._mul_rows` exactly dim (dim - 1) times for
each module whose action is not zero (dim that of its algebra) and never
for the others.  A loop over all pairs would form dim^2."""
from crossedext import algebra
from crossedext.workspace import parse_workspace
from support import perfbench_gen


def test_validate_module_forms_each_off_diagonal_product_once(monkeypatch):
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    calls = []
    original = algebra._mul_rows

    def counted(a, b):
        calls.append(1)
        return original(a, b)
    # validate_module is the only caller of algebra's binding
    monkeypatch.setattr(algebra, "_mul_rows", counted)
    ws = parse_workspace(text)
    acting = [m for m in ws.modules.values() if m.flavor == algebra.CE
              and not all(a.is_zero() for a in m.action)]
    assert len(acting) > 100
    assert len(calls) == sum(m.algebra.dim * (m.algebra.dim - 1)
                             for m in acting)
