"""The torus-graded path of `cohomology_table`, against the full coboundary.

A CE table over an algebra with a torus (basis elements h with ad h and
rho(h) diagonal) eliminates only the weight-0 rows of each delta_n and adds
the rank of the acyclic nonzero-weight blocks by r_n = N_n - r_{n-1}.
Every rank must equal that of `coboundary_matrix(M, n)` in full, over Q and
over F_p for small p, where weights that are nonzero integers vanish: over
F_2 sl_2's h has weights +-2 = 0, so sl_2 has no torus there.  The ladder's
gl_3 tables must take the graded path, so that it cannot switch itself off
unseen."""
import importlib

import pytest

from crossedext import cli, samples
from crossedext.algebra import (Representation, adjoint, trivial_rep,
                                validate_module)
from crossedext.cohomology import (_weight_zero, ce_tuples,
                                   coboundary_matrix, cohomology_table)
from crossedext.field import PrimeField, QQ
from crossedext.linalg import Matrix, rank
from crossedext.workspace import parse_workspace
from support import perfbench_gen

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5),
          PrimeField(2147483647)]


def _permuted_gl3(field):
    """gl_3 with its basis E_00, ..., E_22 reversed, so that the torus
    E_ii sits at indices 8, 4 and 0 of a reordered structure."""
    P = Matrix(field, [[int(i + j == 8) for j in range(9)]
                       for i in range(9)])
    return samples.change_basis_lie(samples.gl(field, 3), P)


def _sl2_natural_twisted(field):
    """sl_2 on the basis (h, e + f, e - f) acting on k^2 by its natural
    representation: rho(h) = diag(1, -1) is diagonal but ad h is not, and
    no other basis element has a diagonal rho, so there is no torus."""
    g = samples.change_basis_lie(samples.sl2(field), Matrix(
        field, [[0, 1, 1], [0, 1, -1], [1, 0, 0]]))
    e, f = Matrix(field, [[0, 1], [0, 0]]), Matrix(field, [[0, 0], [1, 0]])
    h = Matrix(field, [[1, 0], [0, -1]])
    return validate_module(Representation(g, 2, [h, e + f, e + (-f)]))


# (name, module builder over a field, top degree)
CASES = [
    ("gl3 trivial", lambda F: trivial_rep(samples.gl(F, 3), 1), 5),
    ("gl3 adjoint", lambda F: adjoint(samples.gl(F, 3)), 3),
    ("gl4 trivial", lambda F: trivial_rep(samples.gl(F, 4), 1), 4),
    ("gl4 adjoint", lambda F: adjoint(samples.gl(F, 4)), 2),
    ("permuted gl3 adjoint", lambda F: adjoint(_permuted_gl3(F)), 3),
    ("sl2 adjoint", lambda F: adjoint(samples.sl2(F)), 3),
]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name, build, top", CASES, ids=[c[0] for c in CASES])
def test_graded_ranks_equal_the_full_coboundary_ranks(name, build, top,
                                                      field):
    M = build(field)
    assert [r for _, _, r, _ in cohomology_table(M, top)] == \
        [rank(coboundary_matrix(M, n)) for n in range(top + 1)]
    # sl_2 over F_2 is the one case here with no torus
    assert (_weight_zero(M, 1) is None) == (name == "sl2 adjoint"
                                            and field.p == 2)


@pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)],
                         ids=str)
def test_a_diagonal_action_without_a_diagonal_bracket_is_no_torus(field):
    # over F_3 the ranks are [2, 2, 2, 0], not the [2, 4, 2, 0] that
    # taking h for a torus element would give
    M = _sl2_natural_twisted(field)
    assert _weight_zero(M, 3) is None
    assert [r for _, _, r, _ in cohomology_table(M, 3)] == \
        [rank(coboundary_matrix(M, n)) for n in range(4)]


def test_an_algebra_whose_weights_vanish_takes_the_full_path():
    for M in (trivial_rep(samples.heisenberg(QQ), 1),
              trivial_rep(samples.abelian(QQ, 4), 1),
              adjoint(samples.sl2(PrimeField(2)))):
        assert _weight_zero(M, 4) is None


def test_the_ladders_gl3_tables_eliminate_only_weight_0_rows(monkeypatch):
    """The seed-1 ladder-q report ranks the weight-0 rows of each delta_n
    of gl_3's tables: 15, 42 and 84 of the adjoint's 81, 324 and 756, and 3
    to 18 of the trivial's 9 to 126.  Each matrix keeps all of C^n's
    columns, and its rows meet only the weight-0 ones."""
    text, _, _ = perfbench_gen().generate("ladder-q", 1)
    ws = parse_workspace(text)
    ranked = []
    # the module, not the package's `cohomology`, which is the function
    monkeypatch.setattr(importlib.import_module("crossedext.cohomology"),
                        "rank", lambda f: ranked.append(f) or rank(f))
    for cmd in ws.commands:
        if cmd["module"].startswith("gl3"):
            assert cli.run_command(ws, cmd)[0]["status"] == "PASS"
    assert [(f.codomain_dim, f.domain_dim) for f in ranked] == [
        (15, 9), (42, 81), (84, 324),                          # adjoint
        (3, 1), (6, 9), (12, 36), (18, 84), (18, 126)]         # trivial
    for name, top in (("gl3_adjoint", 2), ("gl3_trivial", 4)):
        M, zero = ws.modules[name], _weight_zero(ws.modules[name], top + 1)
        for n in range(top + 1):
            index = {t: i for i, t in enumerate(ce_tuples(9, n))}
            cols = {index[t] * M.dim + a for t, coords in zero[n]
                    for a in coords}
            rows, _ = ranked.pop(0).matrix._ints
            assert set().union(*rows) <= cols
