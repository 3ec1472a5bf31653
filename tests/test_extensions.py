import random

import pytest

from crossedext.errors import CheckFailure
from crossedext.field import QQ, PrimeField
from crossedext.linalg import LinearMap, Matrix
from crossedext.algebra import (ModuleMorphism, adjoint, direct_sum_reps,
                                trivial_rep, validate_module)
from crossedext.cohomology import cochain_from_values
from crossedext.crossed import CrossedModule, classify2, induced_pair, \
    theta, validate_crossed, yoneda_crossed_module
from crossedext.extensions import (CrossedExtension, ExtensionMorphism,
                                   baer_sum,
                                   check_extension_morphism, mediate, negate,
                                   opext_connecting, push_forward, pushout,
                                   split_detect, sum_over_g,
                                   validate_extension, zero_extension)
from crossedext import samples
from dense_oracle import dense_col
from test_flavor_core import _nonlie_crossed

Z, O = QQ.zero, QQ.one


def validate_whole(E):
    """validate_extension on an extension whose parts no parse has
    validated: the base as a crossed module and M and the mids as modules
    first, as its contract asks."""
    validate_crossed(E.base)
    for mod in (E.M,) + E.mids:
        validate_module(mod)
    return validate_extension(E)


def _zero_ext(n=3):
    g = samples.heisenberg(QQ)
    return zero_extension(g, adjoint(g), n)


def test_zero_extension_validates_all_lengths():
    for n in (3, 4, 5):
        validate_whole(_zero_ext(n))


def test_split_detect_finds_identity_on_zero_extension():
    E = _zero_ext()
    h = split_detect(E)
    assert h is not None
    assert h.matrix @ E.f.matrix == Matrix.identity(QQ, E.M.dim)


def test_split_detect_rejects_nonsplit_fixture():
    E = samples.nonsplit_extension3(QQ)
    validate_whole(E)
    assert split_detect(E) is None


def test_push_forward_keeps_splitness():
    E = _zero_ext()
    dbl = ModuleMorphism(E.M, E.M, Matrix.identity(QQ, 3).scale(QQ.of(2)))
    E2, mor = push_forward(dbl, E)
    validate_whole(E2)
    check_extension_morphism(E, E2, mor)
    assert split_detect(E2) is not None


def test_push_forward_of_nonsplit_along_zero_map_splits():
    E = samples.nonsplit_extension3(QQ)
    crush = ModuleMorphism(E.M, trivial_rep(E.g, 1),
                           Matrix.zero(QQ, 1, E.M.dim))
    E2, _ = push_forward(crush, E)
    validate_whole(E2)
    assert split_detect(E2) is not None


def test_negate_twice_is_original_chain():
    E = _zero_ext()
    assert negate(negate(E)).f.matrix == E.f.matrix
    validate_whole(negate(E))


def test_sum_over_g_dimensions():
    E = _zero_ext()
    S = sum_over_g(E, E)
    validate_whole(S)
    assert S.M.dim == 6
    assert S.base.algebra.dim == 3  # fiber product of g with itself over g


def test_baer_sum_of_zero_extensions_splits():
    E = _zero_ext()
    B = baer_sum(E, E)
    validate_whole(B)
    assert split_detect(B) is not None


def test_baer_sum_length_mismatch_rejected():
    with pytest.raises(CheckFailure) as exc:
        sum_over_g(_zero_ext(3), _zero_ext(4))
    assert exc.value.code == "LENGTH_MISMATCH"


# ------------------------------------------------------------------ pushout

@pytest.mark.parametrize("seed", range(5))
def test_pushout_universal_property(seed):
    rng = random.Random(seed)
    g = samples.random_lie(QQ, rng, max_dim=3)
    A = samples.random_module(g, rng, max_dim=2)
    B = samples.random_module(g, rng, max_dim=3)
    C = samples.random_module(g, rng, max_dim=3)
    f = samples.random_module_morphism(A, B, rng)
    h = samples.random_module_morphism(A, C, rng)
    pd = pushout(f, h)
    # every cocone factors through the pushout: build one from a random
    # equivariant map out of D and recover it through mediate
    D2 = samples.random_module(g, rng, max_dim=3)
    t = samples.random_module_morphism(pd.D, D2, rng)
    i_prime = LinearMap(t.matrix @ pd.i.matrix)
    j_prime = LinearMap(t.matrix @ pd.j.matrix)
    med = mediate(pd, i_prime, j_prime)
    assert med.matrix == t.matrix
    # triangle identities
    assert med.matrix @ pd.i.matrix == i_prime.matrix
    assert med.matrix @ pd.j.matrix == j_prime.matrix
    # pointwise formula theta((b, c) + S) = i'(b) + j'(c)
    for k in range(pd.D.dim):
        v = dense_col(pd.sect.matrix, k)
        b, c = v[:B.dim], v[B.dim:]
        lhs = med.apply(pd.proj.apply(tuple(b) + tuple(c)))
        rhs = tuple(x + y
                    for x, y in zip(i_prime.apply(b), j_prime.apply(c)))
        assert lhs == rhs


def test_pushout_coequalizes():
    g = samples.abelian(QQ, 2)
    A = trivial_rep(g, 1)
    B = trivial_rep(g, 2)
    f = ModuleMorphism(A, B, Matrix(QQ, [[O], [Z]], cols=1))
    h = ModuleMorphism(A, B, Matrix(QQ, [[Z], [O]], cols=1))
    pd = pushout(f, h)
    assert pd.D.dim == 3
    assert pd.i.matrix @ f.matrix == pd.j.matrix @ h.matrix


def test_mediate_rejects_non_cocone():
    g = samples.abelian(QQ, 2)
    A = trivial_rep(g, 1)
    B = trivial_rep(g, 1)
    f = ModuleMorphism(A, B, Matrix.identity(QQ, 1))
    pd = pushout(f, f)
    with pytest.raises(CheckFailure) as exc:
        mediate(pd, LinearMap.identity(QQ, 1), LinearMap(Matrix(QQ, [[QQ.of(2)]], cols=1)))
    assert exc.value.code == "COCONE_MISMATCH"


# ---------------------------------------------------------------- n = 2 sums

def _yoneda_pair():
    g = samples.abelian(QQ, 3)
    ses = samples.nilpotent_ses(g)
    c1 = cochain_from_values(ses.tail, 2,
                             lambda t: (O,) if t == (1, 2) else (Z,))
    c2 = cochain_from_values(ses.tail, 2,
                             lambda t: (QQ.of(3),) if t == (1, 2) else (Z,))
    return yoneda_crossed_module(ses, c1), yoneda_crossed_module(ses, c2)


def test_two_fold_baer_sum_additive_on_classes():
    A, B = _yoneda_pair()
    assert classify2(baer_sum(A, B)) == classify2(A) + classify2(B)


def test_two_fold_baer_sum_inverse_gives_zero():
    A, _ = _yoneda_pair()
    assert classify2(baer_sum(A, negate(A))).is_zero()


def test_two_fold_baer_sum_with_zero_is_identity():
    A, _ = _yoneda_pair()
    zero = zero_extension(A.g, A.M, 2)
    assert classify2(baer_sum(A, zero)) == classify2(A)


def _two_fold_pairs(field, seed, count=5):
    """Two Yoneda crossed modules on each of count fixture sequences of
    samples.yoneda_fixtures: its 2-cocycle and a second one on the same
    tail, so that both are 2-fold extensions of the same g by the same M."""
    rng = random.Random(seed)
    return [(yoneda_crossed_module(ses, c), yoneda_crossed_module(
        ses, samples.random_2cocycle(ses.tail, rng)))
        for ses, c in samples.yoneda_fixtures(field, rng, count=count)]


def _scaled(M, k):
    field = M.algebra.field
    return ModuleMorphism(M, M, Matrix.identity(field, M.dim).scale(
        field.of(k)))


@pytest.mark.parametrize("field", [QQ, PrimeField(2147483647)],
                         ids=["Q", "F_2147483647"])
@pytest.mark.parametrize("seed", range(5))
def test_one_group_law_at_n_2(field, seed):
    """The Baer sum and the push-forward of 2-fold extensions are valid
    extensions, and classify2 is a group map: A + B, A + (-A) = 0,
    A + 0 = A, and pushing along 2 id is A + A.  A split extension has the
    zero class, and the zero extension splits."""
    for A, B in _two_fold_pairs(field, seed):
        zero = zero_extension(A.g, A.M, 2)
        cA = classify2(A)
        sums = {(A, B): cA + classify2(B), (A, negate(A)): cA - cA,
                (A, zero): cA}
        for (X, Y), want in sums.items():
            S = validate_whole(baer_sum(X, Y))
            assert (S.n, S.g, S.M) == (2, A.g, A.M)
            assert classify2(S) == want
        doubled, mor = push_forward(_scaled(A.M, 2), A)
        check_extension_morphism(A, validate_whole(doubled), mor)
        assert classify2(doubled) == cA + cA
        for E in (A, B, negate(A), doubled, zero):
            assert split_detect(E) is None or classify2(E).is_zero()
        assert split_detect(zero) is not None


def test_two_fold_push_forward_along_zero_splits():
    """Pushed along M -> 0 (+) M', the Yoneda crossed modules with
    nonzero class give split extensions: D is V/f(M) (+) M'."""
    seen = 0
    for A, _ in _two_fold_pairs(QQ, 7):
        crush = ModuleMorphism(A.M, trivial_rep(A.g, 1),
                               Matrix.zero(QQ, 1, A.M.dim))
        E, mor = push_forward(crush, A)
        check_extension_morphism(A, validate_whole(E), mor)
        h = split_detect(E)
        assert h is not None and h.matrix @ E.f.matrix == \
            Matrix.identity(QQ, 1)
        seen += not classify2(A).is_zero()
    assert seen     # some A did not split before


def test_two_fold_leibniz_push_forward_and_split_are_refused():
    """M and M' act on a Leibniz V by two families through pi, which make
    no Lie module: both are UNSUPPORTED_FLAVOR, not a traceback."""
    pres = induced_pair(validate_crossed(_nonlie_crossed(1)))
    ident = ModuleMorphism(pres.M, pres.M, Matrix.identity(QQ, pres.M.dim))
    for call, args in ((push_forward, (ident, pres)), (split_detect, (pres,))):
        with pytest.raises(CheckFailure) as exc:
            call(*args)
        assert exc.value.code == "UNSUPPORTED_FLAVOR"


def test_two_fold_zero_and_negated_extensions():
    """At n = 2 zero_extension is the zero boundary M -> g presented by
    identities, and negate flips the sign of the head embedding only."""
    g = samples.heisenberg(QQ)
    M = adjoint(g)
    zero = validate_whole(zero_extension(g, M, 2))
    assert zero == CrossedExtension(
        2, g, M, LinearMap.identity(QQ, 3), (), (),
        CrossedModule(g, M, LinearMap.zero(QQ, 3, 3)),
        LinearMap.identity(QQ, 3))
    A, _ = _yoneda_pair()
    assert validate_whole(negate(A)) == \
        CrossedExtension(2, A.g, A.M, -A.f, (), (), A.base, A.pi)


def test_length_is_checked_where_it_matters():
    """theta and classify2 classify 2-fold extensions only; push_forward,
    baer_sum and split_detect serve every n >= 2."""
    E3 = _zero_ext(3)
    for call in (theta, classify2):
        with pytest.raises(CheckFailure) as exc:
            call(E3)
        assert (exc.value.code, exc.value.witness) == ("LENGTH_MISMATCH", 3)


def test_leibniz_two_fold_extensions_validate():
    """Only n >= 3 refuses a Leibniz base: the induced pairs of Leibniz
    crossed modules are valid 2-fold extensions."""
    for k in range(3):
        pres = induced_pair(validate_crossed(_nonlie_crossed(k)))
        assert validate_extension(pres) is pres


# ------------------------------------------------------------------- splice

def test_opext_connecting_extends_length():
    g = samples.abelian(QQ, 1)
    ses = samples.nilpotent_ses(g)
    E2 = zero_extension(g, ses.tail, 2)
    E3 = opext_connecting(ses, E2)
    assert E3.n == 3
    validate_whole(E3)
    E4 = opext_connecting(samples.split_ses(g, trivial_rep(g, 1), E3.M),
                          E3)
    assert E4.n == 4
    validate_whole(E4)


def _nonzero_presentations():
    """The Yoneda crossed modules of the fixtures and an identity crossed
    module, each with the sequences whose tail is its M."""
    rng = random.Random(5)
    out = [yoneda_crossed_module(ses, c)
           for ses, c in samples.yoneda_fixtures(QQ, rng, count=4)]
    out.append(samples.identity_crossed(samples.heisenberg(QQ)))
    for pres in out:
        seqs = [samples.split_ses(pres.g, trivial_rep(pres.g, 1), pres.M)]
        if pres.M == trivial_rep(pres.g, 1):
            seqs.append(samples.nilpotent_ses(pres.g))
        yield pres, seqs


def test_opext_connecting_splices_nonzero_crossed_modules():
    """Splicing onto a crossed module presented over (g, M) keeps its
    crossed module and pi and sends the sequence's middle into V through
    the head embedding: an exact extension of length 3."""
    for pres, seqs in _nonzero_presentations():
        for ses in seqs:
            E3 = validate_whole(opext_connecting(ses, pres))
            assert (E3.n, E3.g, E3.M, E3.f) == \
                (3, pres.g, ses.head, ses.alpha.map)
            assert E3.mids == (ses.middle,)
            assert E3.partials == \
                (LinearMap(pres.f.matrix @ ses.beta.matrix),)
            assert E3.base is pres.base and E3.pi is pres.pi


def test_opext_connecting_base_mismatch():
    g = samples.abelian(QQ, 2)
    ses = samples.nilpotent_ses(g)
    E2 = zero_extension(g, trivial_rep(g, 2), 2)
    with pytest.raises(CheckFailure) as exc:
        opext_connecting(ses, E2)
    assert exc.value.code == "BASE_MISMATCH"


def test_extension_morphism_square_failure():
    E = _zero_ext()
    from crossedext.crossed import CrossedMorphism
    mor_ids = tuple(LinearMap.identity(QQ, m.dim) for m in E.mids)
    bad_alpha = LinearMap(Matrix.zero(QQ, E.M.dim, E.M.dim))
    from crossedext.extensions import ExtensionMorphism
    mor = ExtensionMorphism(bad_alpha, mor_ids,
                            CrossedMorphism(
                                LinearMap.identity(QQ, E.base.rep.dim),
                                LinearMap.identity(QQ, E.base.algebra.dim)))
    with pytest.raises(CheckFailure) as exc:
        check_extension_morphism(E, E, mor)
    assert exc.value.code == "SQUARE_FAIL"


# -------------------------------------------------------------- length four

def _e4():
    """The length-4 extension of test_opext_connecting_extends_length:
    0 -> K -> K (+) K -> K^2 -> K -> k -> k -> 0 over the one-dimensional
    abelian k, with two middle modules."""
    g = samples.abelian(QQ, 1)
    ses = samples.nilpotent_ses(g)
    E3 = opext_connecting(ses, zero_extension(g, ses.tail, 2))
    return opext_connecting(samples.split_ses(g, trivial_rep(g, 1), E3.M),
                            E3)


def _with(E, **parts):
    """E with some of its parts replaced."""
    return CrossedExtension(**{**vars(E), **parts})


def _retracts(E, h):
    return h is not None and h.matrix @ E.f.matrix == \
        Matrix.identity(QQ, E.M.dim)


def test_push_forward_of_a_length_four_extension():
    E = _e4()
    dbl = ModuleMorphism(E.M, E.M, Matrix.identity(QQ, 1).scale(QQ.of(2)))
    pushed, mor = push_forward(dbl, E)
    validate_whole(pushed)
    assert check_extension_morphism(E, pushed, mor) is mor
    # only the head square is pushed out: the lower mids and maps stay
    assert (pushed.mids[1:], pushed.partials[1:]) == \
        (E.mids[1:], E.partials[1:])
    # a middle map off by a factor 2 breaks the square leaving M_3
    wrong = ExtensionMorphism(mor.alpha, (mor.mids[0], LinearMap(
        Matrix.identity(QQ, 2).scale(QQ.of(2)))), mor.crossed)
    with pytest.raises(CheckFailure) as exc:
        check_extension_morphism(E, pushed, wrong)
    assert (exc.value.code, exc.value.witness) == ("SQUARE_FAIL", "M_3")


def test_baer_sum_and_split_detect_at_length_four():
    E = _e4()
    # spliced from a split sequence: its head map has a retraction
    assert _retracts(E, split_detect(E))
    total = validate_whole(baer_sum(E, E))
    assert total.n == 4 and total.M == E.M
    assert [m.dim for m in total.mids] == [3, 4]
    assert _retracts(total, split_detect(total))


def _planted_m2(E):
    # d_2 = 0: ker(d_2) is all of M_2, which im(M_3 -> M_2) is not
    return _with(E, partials=(E.partials[0], LinearMap.zero(QQ, 2, 1)))


def _planted_m1(E):
    # M_1 grows a trivial summand that d_2 misses and d_1 kills
    g = E.g
    base = zero_extension(g, direct_sum_reps(E.base.rep,
                                             trivial_rep(g, 1)), 2).base
    d2 = LinearMap(E.partials[1].matrix.vstack(Matrix.zero(QQ, 1, 2)))
    return _with(E, partials=(E.partials[0], d2), base=base)


@pytest.mark.parametrize("plant, node", [(_planted_m2, "M_2"),
                                         (_planted_m1, "M_1")])
def test_length_four_exactness_fails_at_its_node(plant, node):
    with pytest.raises(CheckFailure) as exc:
        validate_whole(plant(_e4()))
    assert (exc.value.code, exc.value.witness) == ("EXACTNESS_FAIL", node)


def test_pi_that_is_not_an_algebra_map():
    # the transposition of x and c of the Heisenberg algebra ([x, y] = c)
    # is a linear bijection but sends [x, y] = c to x, not to [c, y] = 0
    E = _zero_ext(4)
    swap = LinearMap(Matrix(QQ, [[0, 0, 1], [0, 1, 0], [1, 0, 0]], cols=3))
    with pytest.raises(CheckFailure) as exc:
        validate_whole(_with(E, pi=swap))
    assert (exc.value.code, exc.value.witness, exc.value.detail) == \
        ("EXACTNESS_FAIL", "L", "pi is not an algebra map")
