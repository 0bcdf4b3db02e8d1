"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are unboxed Python values: arbitrary-precision ``int`` (preferred)
or ``fractions.Fraction`` for non-integral rationals, and canonical
residues ``0 <= r < p`` for F_p.  A ``Field`` object supplies arithmetic,
parsing and rendering, and guarantees canonical form (lowest terms with
positive denominator; residues reduced mod p).  Keeping scalars unboxed
keeps the sparse-operator hot paths on native int arithmetic.

Values are immutable and freely shareable.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction

_LITERAL = re.compile(r"^(-?\d+)(?:/(\d+))?$")


class FieldError(ValueError):
    """Malformed scalar literal, zero denominator, bad modulus, or field mismatch."""


# psi_13, the least strong pseudoprime to all of the prime bases 2..41 (Sorenson
# and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the prime bases 2..41, deterministic below psi_13; a larger n is refused."""
    if n >= _MILLER_RABIN_BOUND:
        raise FieldError(f"modulus too large: primality is decided only below {_MILLER_RABIN_BOUND}")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _literal(text: str, kind: str) -> tuple:
    """(numerator, denominator) of a literal "n" or "n/d"."""
    m = _LITERAL.match(text.strip())
    if not m:
        raise FieldError(f"malformed {kind} literal: {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise FieldError(f"number too long in {kind} literal {text!r}") from None
    if den == 0:
        raise FieldError(f"zero denominator in literal: {text!r}")
    return num, den


class Field:
    """Shared interface of RationalField and PrimeField."""

    kind: str

    def parse(self, text: str):
        raise NotImplementedError

    def render(self, value) -> str:
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def descriptor(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_descriptor(doc: dict) -> "Field":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise FieldError(f"bad field descriptor: {doc!r}")
        if doc["kind"] == "rational":
            return RationalField()
        if doc["kind"] == "prime":
            if "p" not in doc:
                raise FieldError("prime field descriptor needs 'p'")
            return PrimeField(doc["p"])
        raise FieldError(f"unknown field kind: {doc['kind']!r}")


class RationalField(Field):
    """The rationals.  Values are int, or Fraction in lowest terms."""

    kind = "rational"

    zero = 0
    one = 1

    # int/Fraction interop makes plain operator dispatch exact and canonical
    # (Fraction auto-reduces; int results stay int).
    add = staticmethod(operator.add)
    mul = staticmethod(operator.mul)

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero")
        return self._canon(Fraction(a) / Fraction(b))

    def inv(self, a):
        return self.div(1, a)

    @staticmethod
    def _canon(x: Fraction):
        return x.numerator if x.denominator == 1 else x

    def parse(self, text: str):
        return self._canon(Fraction(*_literal(text, "rational")))

    def render(self, value) -> str:
        return str(value)

    def from_int(self, n: int):
        return n

    def descriptor(self) -> dict:
        return {"kind": "rational"}

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class PrimeField(Field):
    """F_p for prime p.  Values are ints reduced to 0 <= r < p."""

    kind = "prime"

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"modulus is not prime: {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str):
        text = text.strip()
        # accept the rendered form "r mod p" back (round-trip)
        if " mod " in text:
            lit, mod = text.split(" mod ", 1)
            try:
                modulus = int(mod)
            except ValueError:
                raise FieldError(f"malformed modulus in prime-field literal: {text!r}") from None
            if modulus != self.p:
                raise FieldError(f"literal {text!r} is for a different modulus")
            text = lit.strip()
        num, den = _literal(text, "prime-field")
        value = num % self.p
        if den != 1:
            value = self.div(value, den % self.p)
        return value

    def render(self, value) -> str:
        return f"{value} mod {self.p}"

    def from_int(self, n: int):
        return n % self.p

    def descriptor(self) -> dict:
        return {"kind": "prime", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


RATIONALS = RationalField()


def require_same_field(a: Field, b: Field) -> None:
    if a != b:
        raise FieldError(f"field mismatch: {a!r} vs {b!r}")


def _accumulate(target: dict, source: dict, field: Field, scale=None) -> None:
    """target += scale * source for sparse key -> scalar maps, dropping entries that cancel to zero."""
    add = field.add
    mul = field.mul
    zero = field.zero
    for idx, v in source.items():
        if scale is not None:
            v = mul(scale, v)
        cur = target.get(idx)
        if cur is None:
            if v != zero:
                target[idx] = v
        else:
            s = add(cur, v)
            if s == zero:
                del target[idx]
            else:
                target[idx] = s
