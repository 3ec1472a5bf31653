"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every computation in this package runs over one of these fields; there is
deliberately no floating-point path anywhere (ranks and dimensions are
discontinuous in the entries, so tolerances would corrupt results).
"""
from __future__ import annotations

import sys
from fractions import Fraction


class FieldError(ValueError):
    pass


# Deterministic Miller-Rabin: with the first 13 primes as bases it is exact
# for every n below this bound (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Exact primality for p < _MR_BOUND."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class FpElement:
    """Residue in [0, p) for a prime p.  Immutable; supports field arithmetic."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return FpElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.val - o.val, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(o.val - self.val, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return FpElement(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        if o.val == 0:
            raise ZeroDivisionError("division by zero residue")
        return FpElement(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o / self

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"{self.val} mod {self.p}"


class RationalField:
    """The field of rationals; elements are fractions.Fraction values.  Its
    `p` is None, where a prime field's is its modulus."""

    name, p = "Q", None

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def parse(self, text: str):
        text = text.strip()
        try:
            # Fraction would expand an exponent past the str-digit limit
            _, e, exp = text.lower().partition("e")
            if e and 0 < sys.get_int_max_str_digits() < abs(int(exp)):
                raise ValueError("exponent too large")
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def to_str(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field with p elements, p prime."""

    def __init__(self, p: int):
        if p >= _MR_BOUND:
            raise FieldError(f"modulus {p} is too large to certify as prime")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def of(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise FieldError(f"residue mod {x.p} in F{self.p}")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, str):
            return self.parse(x)
        raise FieldError(f"cannot coerce {x!r} into F{self.p}")

    def parse(self, text: str):
        text = text.strip()
        if "mod" in text:
            r, m = text.split("mod")
            if int(m) != self.p:
                raise FieldError(f"residue {text!r} has wrong modulus for F{self.p}")
            return FpElement(int(r), self.p)
        return FpElement(int(text), self.p)

    def to_str(self, x) -> str:
        return f"{x.val} mod {self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()


def field_from_spec(spec: str):
    """Parse a field selector: "q" for rationals, "p:<prime>" for F_p."""
    if not isinstance(spec, str):
        raise FieldError(f"field spec must be a string, not {spec!r}")
    spec = spec.strip().lower()
    if spec in ("q", "qq", "rational", "rationals"):
        return QQ
    if spec.startswith("p:"):
        try:
            p = int(spec[2:])
        except ValueError:
            raise FieldError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    raise FieldError(f"unknown field spec {spec!r}")
