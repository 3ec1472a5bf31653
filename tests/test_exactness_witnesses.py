"""Every exactness failure of the sequence and extension validators, the
latter at n = 2 (a crossed module presented over (g, M)) and at n = 3, and
of extension morphisms keeps its code, witness and detail: each row of
`EXACTNESS` plants one failure in an otherwise valid object.  The rows of
`FIRST_OF_TWO` fail two or more checks at once and pin which one is
reported: the validators read injectivity and surjectivity off the same
image and kernel that the exactness checks compare.  A sequence's
failures also reach a document, so they are checked through `cli.main`
too, as the parse record of `crossed-ext check`."""
import json

import pytest

from crossedext import cli, samples
from crossedext.algebra import ModuleMorphism, trivial_rep
from crossedext.cohomology import ShortExactSequence, validate_ses
from crossedext.crossed import CrossedModule, CrossedMorphism
from crossedext.extensions import (CrossedExtension, ExtensionMorphism,
                                   check_extension_morphism,
                                   validate_extension, zero_extension)
from crossedext.field import QQ
from crossedext.linalg import LinearMap, Matrix
from test_flavor_core import outcome

G1 = samples.abelian(QQ, 1)


def _ses(alpha, beta, middle=2, source=None):
    """0 -> k -> k^middle -> k -> 0 over the one-dimensional abelian
    algebra, all actions trivial, with the matrices alpha and beta; beta
    leaves a module of dimension source (middle when not given)."""
    k, mid = trivial_rep(G1, 1), trivial_rep(G1, middle)
    src = mid if source is None else trivial_rep(G1, source)
    return validate_ses, ShortExactSequence(
        ModuleMorphism(k, mid, Matrix(QQ, alpha, cols=1)),
        ModuleMorphism(src, k, Matrix(QQ, beta, cols=src.dim)))


def _presentation(L, g, pi, vdim=1, incl=((1,),)):
    """The zero crossed module of the trivial L-module k^vdim, as the 2-fold
    extension of g by k with the matrices pi and incl as pi and f."""
    cm = CrossedModule(L, trivial_rep(L, vdim),
                       LinearMap.zero(QQ, vdim, L.dim))
    return validate_extension, CrossedExtension(
        2, g, trivial_rep(g, 1), LinearMap(Matrix(QQ, incl, cols=1)), (), (),
        cm, LinearMap(Matrix(QQ, pi, cols=L.dim)))


def _identity_morphism(alpha, beta):
    """The scalar maps alpha on V = k and beta on L = g of the zero crossed
    module of k over the one-dimensional algebra, with the identity on M,
    from its 2-fold extension to itself: a morphism of extensions only when
    both scalars are 1."""
    pres = zero_extension(G1, trivial_rep(G1, 1), 2)
    phi = CrossedMorphism(LinearMap(Matrix(QQ, [[alpha]])),
                          LinearMap(Matrix(QQ, [[beta]])))
    return (check_extension_morphism, pres, pres,
            ExtensionMorphism(LinearMap.identity(QQ, 1), (), phi))


def _extension_over_a_plane():
    """0 -> k -> k^2 -> k -> L -> g -> 0 with L the abelian plane, g the
    line and pi the first coordinate: the kernel of pi is the second axis,
    but d_1 = 0."""
    L = samples.abelian(QQ, 2)
    base = CrossedModule(L, trivial_rep(L, 1), LinearMap.zero(QQ, 1, 2))
    return validate_extension, CrossedExtension(
        3, G1, trivial_rep(G1, 1), LinearMap(Matrix(QQ, [[1], [0]])),
        (trivial_rep(G1, 2),), (LinearMap(Matrix(QQ, [[0, 1]])),), base,
        LinearMap(Matrix(QQ, [[1, 0]])))


def _extension_of_length_3(f, d2):
    """0 -> k -> k^2 -> k -> g -> g -> 0 over the one-dimensional algebra,
    all actions trivial, d_1 = 0 and pi = id, with the matrices f and d2:
    an extension when f = (1, 0)^T and d2 = (0, 1)."""
    base = CrossedModule(G1, trivial_rep(G1, 1), LinearMap.zero(QQ, 1, 1))
    return validate_extension, CrossedExtension(
        3, G1, trivial_rep(G1, 1), LinearMap(Matrix(QQ, f, cols=1)),
        (trivial_rep(G1, 2),), (LinearMap(Matrix(QQ, d2, cols=2)),), base,
        LinearMap.identity(QQ, 1))


# (case, (check, *args), (code, witness, detail))
EXACTNESS = [
    ("ses, middle modules differ", _ses([[1], [0]], [[0, 0, 1]], source=3),
     ("BASE_MISMATCH", None, "middle modules differ")),
    ("ses, alpha not injective", _ses([[0], [0]], [[0, 1]]),
     ("EXACTNESS_FAIL", "head", "alpha is not injective")),
    ("ses, beta not surjective", _ses([[1], [0]], [[0, 0]]),
     ("EXACTNESS_FAIL", "tail", "beta is not surjective")),
    ("ses, im(alpha) != ker(beta)", _ses([[1], [0]], [[1, 0]]),
     ("EXACTNESS_FAIL", "middle", "im(alpha) != ker(beta)")),
    ("presentation, ker(pi) != im(partial)",
     _presentation(samples.abelian(QQ, 2), G1, [[1, 0]]),
     ("EXACTNESS_FAIL", "L", "ker(pi) != im(d_1)")),
    # pi = id from [x, y] = y onto the abelian plane: [e_0, e_1] is lost
    ("presentation, pi not an algebra map",
     _presentation(samples.solvable2(QQ), samples.abelian(QQ, 2),
                   [[1, 0], [0, 1]]),
     ("EXACTNESS_FAIL", "L", "pi is not an algebra map")),
    ("presentation, incl not injective",
     _presentation(G1, G1, [[1]], incl=[[0]]),
     ("EXACTNESS_FAIL", "M", "head map is not injective")),
    ("presentation, im(incl) != ker(partial)",
     _presentation(G1, G1, [[1]], vdim=2, incl=[[1], [0]]),
     ("EXACTNESS_FAIL", "M_1", "")),
    ("crossed morphism, not the identity on g", _identity_morphism(1, 2),
     ("NOT_IDENTITY_ON_G", None, "")),
    ("crossed morphism, not the identity on M", _identity_morphism(2, 1),
     ("SQUARE_FAIL", "head", "")),
    ("extension, ker(pi) != im(d_1)", _extension_over_a_plane(),
     ("EXACTNESS_FAIL", "L", "ker(pi) != im(d_1)")),
]


# (case, (check, *args), (code, witness, detail)) of the first failure
FIRST_OF_TWO = [
    # alpha = 0 and beta = 0: not injective, not surjective and
    # im(alpha) = 0 != ker(beta) = k^2
    ("ses, all three checks", _ses([[0], [0]], [[0, 0]]),
     ("EXACTNESS_FAIL", "head", "alpha is not injective")),
    # beta = 0: not surjective, and ker(beta) = k^2 != im(alpha)
    ("ses, beta and the middle", _ses([[1], [0]], [[0, 0]]),
     ("EXACTNESS_FAIL", "tail", "beta is not surjective")),
    # pi = 0: not surjective, and ker(pi) = L != im(d_1) = 0
    ("presentation, pi and its kernel", _presentation(G1, G1, [[0]]),
     ("EXACTNESS_FAIL", "g", "pi is not surjective")),
    # f = 0: not injective, and im(f) = 0 != ker(d_1) = k^2
    ("presentation, incl and its image",
     _presentation(G1, G1, [[1]], vdim=2, incl=[[0], [0]]),
     ("EXACTNESS_FAIL", "M", "head map is not injective")),
    # f = 0: not injective, and im(f) = 0 != ker(d_2) at M_2
    ("extension, f and its image", _extension_of_length_3([[0], [0]],
                                                          [[0, 1]]),
     ("EXACTNESS_FAIL", "M", "head map is not injective")),
    # d_2 = 0: ker(d_2) = k^2 != im(f) at M_2, and im(d_2) = 0 != ker(d_1)
    # at M_1; the node nearer M is reported
    ("extension, two nodes", _extension_of_length_3([[1], [0]], [[0, 0]]),
     ("EXACTNESS_FAIL", "M_2", "")),
]


def test_the_extension_of_length_3_is_valid_as_given():
    assert outcome(*_extension_of_length_3([[1], [0]], [[0, 1]])) is None


@pytest.mark.parametrize("case, call, want", EXACTNESS + FIRST_OF_TWO,
                         ids=[c for c, _, _ in EXACTNESS + FIRST_OF_TWO])
def test_exactness_failure_witnesses(case, call, want):
    check, *args = call
    assert outcome(check, *args) == want


def _sequence_document(alpha, beta, middle=2, source=None):
    """The document of `_ses`: modules a = k, b = k^middle, c = k^source and
    the sequence of alpha : a -> b and beta : c -> a."""
    def module(dim):
        return {"algebra": "g", "dim": dim,
                "action": {"0": [["0"] * dim for _ in range(dim)]}}
    source = middle if source is None else source
    return {"field": "q", "algebras": {"g": {"type": "lie", "dim": 1}},
            "modules": {"a": module(1), "b": module(middle),
                        "c": module(source)},
            "morphisms": {
                "alpha": {"source": "a", "target": "b", "matrix": alpha},
                "beta": {"source": "c", "target": "a", "matrix": beta}},
            "sequences": {"ses": {"alpha": "alpha", "beta": "beta"}},
            "commands": [{"op": "check"}]}


# (case, matrices of `_sequence_document`, detail of the parse record)
DOCUMENTS = [
    ("middle modules differ",
     ([["1"], ["0"]], [["0", "0", "1"]], 2, 3),
     "VALIDATION_FAIL('ses'): ses: BASE_MISMATCH: middle modules differ"),
    ("alpha not injective", ([["0"], ["0"]], [["0", "1"]]),
     "VALIDATION_FAIL('ses'): ses: EXACTNESS_FAIL('head'): "
     "alpha is not injective"),
    ("beta not surjective", ([["1"], ["0"]], [["0", "0"]]),
     "VALIDATION_FAIL('ses'): ses: EXACTNESS_FAIL('tail'): "
     "beta is not surjective"),
    ("im(alpha) != ker(beta)", ([["1"], ["0"]], [["1", "0"]]),
     "VALIDATION_FAIL('ses'): ses: EXACTNESS_FAIL('middle'): "
     "im(alpha) != ker(beta)"),
]


@pytest.mark.parametrize("case, args, detail", DOCUMENTS,
                         ids=[c for c, _, _ in DOCUMENTS])
def test_sequence_failures_reach_the_cli(case, args, detail, tmp_path,
                                         capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_sequence_document(*args)))
    assert cli.main(["check", "--input", str(path), "--format",
                     "json"]) == 1
    rec, = json.loads(capsys.readouterr().out)["results"]
    assert rec == {"op": "parse", "status": "FAIL",
                   "error": "VALIDATION_FAIL", "detail": detail}
    # and the human format names the same failure
    assert cli.main(["check", "--input", str(path)]) == 1
    assert capsys.readouterr().out.startswith(f"[FAIL] parse  detail={detail}")
