"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields.

Every computation in this package runs over one of these fields; there is
deliberately no floating-point path anywhere (ranks and dimensions are
discontinuous in the entries, so tolerances would corrupt results).
The prime fields live in the lazy `_fp`, whose names are served from here.
"""
from __future__ import annotations

import sys
from fractions import Fraction

from . import _forward, _fp

# the prime-field layer, a lazy module, run only by a run over F_p
__getattr__ = _forward(__name__, _fp)


class FieldError(ValueError):
    pass


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
        return _fp.PrimeField(p)
    raise FieldError(f"unknown field spec {spec!r}")
