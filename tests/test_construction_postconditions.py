"""What a construction derives, held on random valid inputs.

A constructor checks the step that decides its construction (a submodule,
a bracket closed on a subspace, an ideal and a stable kernel, a 2-cocycle,
an exact sequence) and does not pass its output back through the
validators, so these tests do.  Their inputs are validated objects drawn
from the `samples` builders over Q and F_p, and the objects of the
benchmark's seed-1 crossed-mix document.  On each output they assert what
the validators would:

- `validate_module` on a pushout's D, and `validate_morphism` on its i and j;
- `validate_lie` on a fiber product L x_g L', on the abelian extension e of
  a 2-cocycle, and (`validate_leibniz` for a Leibniz base) on an induced g;
- the module validator of the flavor on an induced M;
- `crossed_axioms` and `validate_extension` on a 2-fold push-forward, on a
  2-fold Baer sum (the codiagonal push-forward of the sum over g) and on a
  Yoneda splice.

A g over F_2 with some [e_i, e_i] != 0, whose 2-cocycle condition would
not decide the Jacobi identity of e, is not alternating, and is refused
before any extension of it is built."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from crossedext import samples
from crossedext.algebra import (LEIBNIZ, direct_sum_reps, validate_leibniz,
                                validate_lie, validate_module,
                                validate_morphism)
from crossedext.cohomology import abelian_extension_from_2cocycle
from crossedext.crossed import (crossed_axioms, induced_pair,
                                validate_crossed, yoneda_crossed_module)
from crossedext.errors import CheckFailure
from crossedext.extensions import (baer_sum, negate, push_forward, pushout,
                                   sum_over_g, validate_extension,
                                   zero_extension)
from crossedext.field import PrimeField, QQ
from crossedext.workspace import parse_workspace
from support import perfbench_gen
from test_theta_kernel import KINDS, theta_case

FIELDS = [QQ, PrimeField(2), PrimeField(5), PrimeField(2147483647)]
DRAWS = dict(max_examples=40, deadline=None)


def _padded(M, rng):
    """M (+) a random module: a target with maps out of M that are not
    all zero."""
    return direct_sum_reps(M, samples.random_module(M.algebra, rng, 2))


def _legs(field, rng):
    """Two random nonzero module maps out of one random module."""
    g = samples.random_lie(field, rng, max_dim=3)
    A = samples.random_module(g, rng, max_dim=2)
    legs = []
    while len(legs) < 2:
        f = samples.random_module_morphism(A, _padded(A, rng), rng)
        if not f.matrix.is_zero():
            legs.append(f)
    return legs


def _yoneda_input(field, rng):
    """A sequence 0 -> M -> M' -> M'' -> 0 and a random 2-cocycle valued in
    M'': the nonsplit Jordan sequence of an abelian g, or the split one of
    two random modules of a random g."""
    if rng.random() < 0.3:
        ses = samples.nilpotent_ses(samples.abelian(field, rng.randint(1, 3)))
    else:
        g = samples.random_lie(field, rng, max_dim=3)
        ses = samples.split_ses(g, samples.random_module(g, rng, 2),
                                samples.random_module(g, rng, 2))
    return ses, samples.random_2cocycle(ses.tail, rng)


def _pair(field, rng):
    """Two valid 2-fold extensions of one g by one M: two Yoneda splices of
    one sequence, or one with its negative or with the zero extension."""
    ses, c = _yoneda_input(field, rng)
    E = yoneda_crossed_module(ses, c)
    other = rng.randrange(3)
    if other == 0:
        return E, yoneda_crossed_module(
            ses, samples.random_2cocycle(ses.tail, rng))
    return E, negate(E) if other == 1 else zero_extension(E.g, E.M, 2)


def _algebra_ok(alg):
    """The validator of alg's flavor on its structure constants."""
    check = validate_leibniz if alg.flavor == LEIBNIZ else validate_lie
    check(alg.field, alg.dim, alg.structure)


def _pushout_ok(pd):
    validate_module(pd.D)
    validate_morphism(pd.i)
    validate_morphism(pd.j)


def _extension_ok(E):
    crossed_axioms(E.base)
    validate_extension(E)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_a_pushout_is_a_module_with_module_maps_into_it(field, seed):
    _pushout_ok(pushout(*_legs(field, random.Random(seed))))


@settings(**DRAWS)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_a_fiber_product_is_a_lie_algebra(field, seed):
    _algebra_ok(sum_over_g(*_pair(field, random.Random(seed))).base.algebra)


@settings(**DRAWS)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16),
       st.sampled_from(KINDS), st.booleans())
def test_an_induced_pair_is_an_algebra_and_a_module(field, seed, kind,
                                                    leibniz):
    cm = theta_case(field, seed, kind, leibniz)
    validate_crossed(cm)
    pres = induced_pair(cm)
    _algebra_ok(pres.g)
    validate_module(pres.M)


@settings(**DRAWS)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_an_abelian_extension_is_a_lie_algebra(field, seed):
    rng = random.Random(seed)
    g = samples.random_lie(field, rng, max_dim=3)
    M = samples.random_module(g, rng, max_dim=3)
    e, _, _ = abelian_extension_from_2cocycle(
        M, samples.random_2cocycle(M, rng))
    _algebra_ok(e)


@settings(**DRAWS)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_a_two_fold_push_forward_is_an_extension(field, seed):
    rng = random.Random(seed)
    E, _ = _pair(field, rng)
    alpha = samples.random_module_morphism(E.M, _padded(E.M, rng), rng)
    _extension_ok(push_forward(alpha, E)[0])


@settings(**DRAWS)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_a_two_fold_baer_sum_is_an_extension(field, seed):
    _extension_ok(baer_sum(*_pair(field, random.Random(seed))))


@settings(**DRAWS)
@given(st.sampled_from(FIELDS), st.integers(0, 2**16))
def test_a_yoneda_splice_is_an_extension(field, seed):
    _extension_ok(yoneda_crossed_module(
        *_yoneda_input(field, random.Random(seed))))


@pytest.fixture(scope="module")
def mix_document():
    """The seed-1 crossed-mix workspace, from perfbench/gen.py."""
    text, _, _ = perfbench_gen().generate("crossed-mix", 1)
    return parse_workspace(text)


def test_the_mix_document_constructions_keep_their_postconditions(
        mix_document):
    """Every construction the document's commands make, on its own
    validated objects: each induced pair, each 2-fold Baer sum with its
    fiber product, each pushout and each Yoneda splice."""
    ws, seen = mix_document, set()
    for cm in ws.crossed_modules.values():
        pres = induced_pair(cm)
        _algebra_ok(pres.g)
        validate_module(pres.M)
    for cmd in ws.commands:
        op = cmd["op"]
        if op == "baer-sum" and cmd["left"] in ws.crossed_modules:
            E, E2 = (induced_pair(ws.crossed_modules[cmd[side]])
                     for side in ("left", "right"))
            _algebra_ok(sum_over_g(E, E2).base.algebra)
            _extension_ok(baer_sum(E, E2))
        elif op == "pushout":
            _pushout_ok(pushout(ws.morphisms[cmd["f"]],
                                ws.morphisms[cmd["g"]]))
        elif op == "yoneda":
            _extension_ok(yoneda_crossed_module(
                ws.sequences[cmd["sequence"]], ws.cochains[cmd["cochain"]]))
        else:
            continue
        seen.add(op)
    assert seen == {"baer-sum", "pushout", "yoneda"}


def test_a_cocycle_over_a_non_alternating_algebra_is_still_checked():
    """Over F_2, g with [e_0, e_0] = e_1 is skew and satisfies the Jacobi
    identity, and alpha(e_0, e_1) = 1 would be a 2-cocycle (there are no
    3-cochains), but in its abelian extension the lift x of e_0 would have
    J(x, x, x) = 3 [x, [x, x]] = 3 alpha(e_0, e_1) != 0.  A Lie bracket is
    alternating, so `validate_lie` refuses g at the pair (0, 0), and no
    such cocycle or extension is built."""
    F2 = PrimeField(2)
    z, o = F2.zero, F2.one
    with pytest.raises(CheckFailure) as exc:
        validate_lie(F2, 2, [[(z, o), (z, z)], [(z, z), (z, z)]])
    assert (exc.value.code, exc.value.witness) == ("ANTISYM_FAIL", (0, 0))
