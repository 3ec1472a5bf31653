"""The parse's relation checks do the work that antisymmetry leaves, each
relation one pass of `linalg._first_nonzero_row`, on the benchmark's
crossed-mix document (seed 1, generated by perfbench/gen.py as in
test_bench_documents):

- `validate_module` makes one kernel call per pair i < j of each module
  whose action is not zero (dim that of its algebra), as the algebra is
  alternating.  Each call carries two product terms, A_i A_j and A_j A_i,
  so dim (dim - 1) product terms in all.  A module whose action is zero
  makes no call.  A loop over all pairs would pass 2 dim (dim - 1).
- each parsed morphism, all of which pass, makes exactly dim g x |sides|
  kernel calls (`equivariance_defect`), one per basis vector and action
  family."""
from crossedext import _maps, algebra, workspace
from crossedext.workspace import parse_workspace
from support import perfbench_gen


def _kernel_calls(monkeypatch, module):
    """The product terms of each kernel call made through module's
    binding, in order."""
    calls = []
    original = module._first_nonzero_row

    def counted(products, linear, n, p):
        calls.append(list(products))
        return original(products, linear, n, p)
    monkeypatch.setattr(module, "_first_nonzero_row", counted)
    return calls


def _per_call(monkeypatch, module, name, calls):
    """(argument, the kernel calls it made) for each call of module.name."""
    made = []
    original = getattr(module, name)

    def recorded(arg):
        start = len(calls)
        out = original(arg)
        made.append((arg, calls[start:]))
        return out
    monkeypatch.setattr(module, name, recorded)
    return made


def test_validate_module_forms_each_off_diagonal_product_once(monkeypatch):
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    # validate_module is the only caller of algebra's binding, and the
    # parse calls it through workspace's
    calls = _kernel_calls(monkeypatch, algebra)
    made = _per_call(monkeypatch, workspace, "validate_module", calls)
    ws = parse_workspace(text)
    assert len(made) == sum(m.flavor == algebra.CE
                            for m in ws.modules.values())
    acting = 0
    for rep, products in made:
        n = rep.algebra.dim
        if all(a.is_zero() for a in rep.action):
            assert products == []
            continue
        acting += 1
        assert sorted(map(len, products)) == [2] * (n * (n - 1) // 2)
        assert all(x is not y for terms in products for _, x, y in terms)
    assert acting > 100


def test_each_parsed_morphism_makes_one_call_per_basis_vector_and_side(
        monkeypatch):
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    calls = _kernel_calls(monkeypatch, _maps)
    # the parse calls validate_morphism through the lazy module
    made = _per_call(monkeypatch, _maps, "validate_morphism", calls)
    ws = parse_workspace(text)
    assert [phi for phi, _ in made] == list(ws.morphisms.values())
    assert len(made) > 10
    for phi, products in made:
        assert len(products) == phi.source.algebra.dim * \
            len(algebra.sides(phi.source))
