"""Exact scalar arithmetic over the rationals and prime fields.

A ``FieldCtx`` fixes the base field once; ``Scalar`` wraps either an
arbitrary-precision ``Fraction`` (rationals) or a residue in ``[0, p)``
(prime field).  Arithmetic between scalars of different contexts is a hard
error, never a coercion.  All values are immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, ZeroElement

RATIONALS = "Q"
PRIME_FIELD = "Fp"

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_13, the least strong pseudoprime to every witness above
# (Sorenson-Webster 2017): is_prime is exact below it and nowhere else.
MODULUS_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test (trial division + Miller-Rabin).

    The fixed witness set is exact for every n < MODULUS_LIMIT (about
    3.3 * 10^24); FieldCtx refuses larger moduli.
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """The base field: either Q or F_p for a verified prime p."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise ValueError("rationals carry no modulus")
        elif kind == PRIME_FIELD:
            if modulus is None or modulus >= MODULUS_LIMIT or not is_prime(modulus):
                raise ValueError(
                    "prime field needs a prime modulus below %d, got %r" % (MODULUS_LIMIT, modulus)
                )
        else:
            raise ValueError("unknown field kind %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, *a):
        raise AttributeError("FieldCtx is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.kind == other.kind
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.kind, self.modulus))

    def __repr__(self):
        if self.kind == RATIONALS:
            return "QQ"
        return "GF(%d)" % self.modulus

    # -- element constructors ------------------------------------------------

    def scalar(self, value) -> "Scalar":
        """Coerce an int, Fraction, or 'a/b' string into this field."""
        if isinstance(value, Scalar):
            if value.ctx != self:
                raise FieldMismatch("scalar of %r used in %r" % (value.ctx, self))
            return value
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/", 1)
                if int(den) == 0:
                    raise ZeroElement("zero denominator in %r" % value)
                return self.scalar(Fraction(int(num), int(den)))
            value = int(value)
        if self.kind == RATIONALS:
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            if value.denominator % self.modulus == 0:
                raise ZeroElement("denominator divisible by %d" % self.modulus)
            num = value.numerator % self.modulus
            den = pow(value.denominator % self.modulus, self.modulus - 2, self.modulus)
            return Scalar(self, num * den % self.modulus)
        return Scalar(self, value % self.modulus)

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)

    def elements(self):
        """Iterate all field elements (prime fields only)."""
        if self.kind != PRIME_FIELD:
            raise ValueError("cannot enumerate the rationals")
        return (self.scalar(i) for i in range(self.modulus))


QQ = FieldCtx(RATIONALS)


def GF(p: int) -> FieldCtx:
    return FieldCtx(PRIME_FIELD, p)


class Scalar:
    """An element of a fixed FieldCtx.

    Rationals are stored as a reduced ``Fraction`` (positive denominator is
    what ``Fraction`` guarantees); prime-field elements as residues in
    ``[0, p)``.
    """

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: FieldCtx, value):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar, got %r" % (other,))
        if other.ctx != self.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))

    def __add__(self, other):
        self._check(other)
        if self.ctx.kind == RATIONALS:
            return Scalar(self.ctx, self.value + other.value)
        return Scalar(self.ctx, (self.value + other.value) % self.ctx.modulus)

    def __sub__(self, other):
        self._check(other)
        if self.ctx.kind == RATIONALS:
            return Scalar(self.ctx, self.value - other.value)
        return Scalar(self.ctx, (self.value - other.value) % self.ctx.modulus)

    def __mul__(self, other):
        self._check(other)
        if self.ctx.kind == RATIONALS:
            return Scalar(self.ctx, self.value * other.value)
        return Scalar(self.ctx, self.value * other.value % self.ctx.modulus)

    def __neg__(self):
        if self.ctx.kind == RATIONALS:
            return Scalar(self.ctx, -self.value)
        return Scalar(self.ctx, (-self.value) % self.ctx.modulus)

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        if self.ctx.kind == RATIONALS:
            return Scalar(self.ctx, 1 / self.value)
        p = self.ctx.modulus
        return Scalar(self.ctx, pow(self.value, p - 2, p))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __eq__(self, other):
        return (
            isinstance(other, Scalar)
            and self.ctx == other.ctx
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.ctx, self.value))

    def __str__(self):
        if self.ctx.kind == RATIONALS and self.value.denominator != 1:
            return "%d/%d" % (self.value.numerator, self.value.denominator)
        if self.ctx.kind == RATIONALS:
            return str(self.value.numerator)
        return str(self.value)

    def __repr__(self):
        return "Scalar(%r, %s)" % (self.ctx, self)
