import time
from fractions import Fraction

import pytest

from crossedext.field import (FpElement, PrimeField, QQ, FieldError,
                              _is_prime, field_from_spec)


def test_rational_parse_roundtrip():
    for s in ("3/4", "-7", "0", "22/7"):
        assert QQ.to_str(QQ.parse(s)) == s


def test_rational_whole_number_has_no_denominator():
    assert QQ.to_str(Fraction(5, 1)) == "5"


def test_prime_field_inverse():
    F = PrimeField(7)
    for r in range(1, 7):
        assert F.of(r) * (F.one / F.of(r)) == F.one


def test_fp_arithmetic_wraps():
    F = PrimeField(5)
    assert F.of(3) + F.of(4) == F.of(2)
    assert F.of(2) - F.of(4) == F.of(3)
    assert -F.of(1) == F.of(4)
    assert F.of(3) / F.of(2) == F.of(4)  # 3 * 3 = 9 = 4


def test_fp_parse_mod_notation():
    F = PrimeField(11)
    assert F.parse("7 mod 11") == F.of(7)
    assert F.to_str(F.of(7)) == "7 mod 11"
    with pytest.raises(FieldError):
        F.parse("7 mod 13")


def test_mixed_moduli_rejected():
    with pytest.raises(FieldError):
        FpElement(1, 5) + FpElement(1, 7)


def test_composite_modulus_rejected():
    with pytest.raises(FieldError):
        PrimeField(6)


def test_field_from_spec():
    assert field_from_spec("q") is QQ
    assert field_from_spec("p:13") == PrimeField(13)
    with pytest.raises(FieldError):
        field_from_spec("r")


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(5000) if _is_prime(n)] == \
        [n for n in range(5000) if _trial_division(n)]


@pytest.mark.parametrize("n", [561, 3215031751, 2047, 25326001,
                               3825123056546413051])
def test_strong_pseudoprimes_rejected(n):
    # Carmichael numbers and strong pseudoprimes to several small bases
    with pytest.raises(FieldError):
        PrimeField(n)


def test_large_prime_accepted_quickly():
    t0 = time.perf_counter()
    F = field_from_spec(f"p:{2 ** 61 - 1}")
    assert time.perf_counter() - t0 < 1.0
    assert F.of(2 ** 61) == F.one


def test_uncertifiable_modulus_refused():
    with pytest.raises(FieldError):
        PrimeField(2 ** 89 - 1)  # prime, but above the Miller-Rabin bound


@pytest.mark.parametrize("spec", ["p:4", "p:x", "p:", 7])
def test_bad_field_spec_rejected(spec):
    with pytest.raises(FieldError):
        field_from_spec(spec)


def test_a_field_carries_its_modulus():
    """`p` tells Q from F_p: None for Q, the prime for F_p."""
    assert QQ.p is None
    assert PrimeField(7).p == 7
