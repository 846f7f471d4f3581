"""Exact scalar arithmetic over the rationals and prime fields.

A ``FieldCtx`` fixes the base field once; ``Scalar`` wraps its raw value:
over F_p a residue in ``[0, p)``, over Q the canonical form ``_canon``
defines, an ``int`` when the value is integral and a ``Fraction`` with
denominator > 1 otherwise.  Both types compare and hash alike, so the form
never shows in a result; it only spares ``Fraction`` arithmetic on the many
integral values.  ``FieldCtx.raw`` checks and unboxes a value to that raw
form, which is what ``linalg`` and ``laurent`` store and compute with.  The
raw helpers ``_norm``, ``_mul``, ``_neg`` and ``_inv`` are the one definition
of the field operations on it; ``Scalar`` calls them too, and ``_reduced``
is the one normaliser of an accumulated dict of them.  Over Q the kernels
compute on int numerators and denominators rather than through ``Fraction``
operators: ``_frac`` makes one value canonical by one gcd, and
``_numerators`` puts a batch of dicts over one common denominator.
Arithmetic between scalars of different contexts is a hard error, never a
coercion.

All values are immutable (``_Frozen``) and hashable.  The value types
declare their identity once, on ``_Value``: a ``_fields`` getter names the
fields that make a value, two values are equal when they are one object or
of one type with equal fields, and the hash is that of the fields.
``FieldCtx`` compares by kind and modulus on its own; ``LatticeChain``,
``DimensionTheory``, ``DeterminantTheory`` and ``ExtElement`` compare by
identity.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, index

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


# Arithmetic on raw values (see ``FieldCtx.raw``); ``p`` is the field's
# modulus, None over Q.


def _canon(x):
    """The canonical raw form of a rational int or Fraction: an ``int`` when
    it is integral, else a ``Fraction`` (whose denominator is then > 1)."""
    return x.numerator if x.denominator == 1 else x


def _frac(n, d):
    """The canonical raw form of ``n / d``, for ints n and d > 0, reduced by
    one gcd; a non-integral value is then built by the public ``Fraction``
    constructor, whose own gcd of the now coprime pair is cheap."""
    g = gcd(n, d)
    return n // g if g == d else Fraction(n // g, d // g)


def _norm(p, x):
    return _canon(x) if p is None else x % p


def _inv(p, x):
    if p is not None:
        return pow(x, -1, p)
    n, d = x.numerator, x.denominator
    return _frac(d, n) if n > 0 else _frac(-d, -n)


def _neg(p, x):
    return -x if p is None else -x % p


def _mul(p, x, y):
    if p is not None:
        return x * y % p
    if type(x) is int is type(y):
        return x * y
    return _frac(x.numerator * y.numerator, x.denominator * y.denominator)


def _reduced(p, acc, d=1):
    """The nonzero entries of an accumulated dict of raw values (a term dict
    or a sparse row), reduced mod ``p`` or, over Q, made canonical; over Q
    with ``d`` > 1, the values are int numerators over the denominator d."""
    if p is not None:
        return {e: r for e, c in acc.items() if (r := c % p)}
    if d == 1:
        return {e: _canon(c) for e, c in acc.items() if c}
    return {e: _frac(c, d) for e, c in acc.items() if c}


def _numerators(p, dicts):
    """``(dicts, d)``: over Q, the dicts with each raw value as an int
    numerator over ``d``, the least common denominator of them all; over F_p
    the dicts as they are, and d = 1."""
    if p is not None:
        return dicts, 1
    d = lcm(*(c.denominator for f in dicts for c in f.values()))
    if d == 1:
        return dicts, 1
    return [{e: c.numerator * (d // c.denominator) for e, c in f.items()} for f in dicts], d


class _Frozen:
    """Base of the immutable value types: a constructor sets each slot once
    through ``object.__setattr__``, and any later assignment raises."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("%s is immutable" % type(self).__name__)


class _Value(_Frozen):
    """Base of the value types that compare by value: ``_fields`` names once,
    as an ``attrgetter``, the fields that make up the identity.  Two values
    are equal when they are one object, or of one type with equal fields, and
    the hash is that of the fields' tuple; a type whose field is a dict, or
    that keeps its hash, defines its own ``__hash__`` on the same fields."""

    __slots__ = ()

    def __eq__(self, other):
        return self is other or (type(other) is type(self) and self._fields(self) == other._fields(other))

    def __hash__(self):
        return hash(self._fields(self))


class FieldCtx(_Frozen):
    """The base field: either Q or F_p for a verified prime p."""

    __slots__ = ("kind", "modulus")

    def __init__(self, kind: str, modulus: int | None = None):
        if kind == RATIONALS:
            if modulus is not None:
                raise ValueError("rationals carry no modulus")
        elif kind == PRIME_FIELD:
            try:
                p = index(modulus)
            except TypeError:  # None, a float, a str: not an integer
                p = None
            if p is None or p >= MODULUS_LIMIT or not is_prime(p):
                raise ValueError(
                    "prime field needs a prime modulus below %d, got %r" % (MODULUS_LIMIT, modulus)
                )
            modulus = p
        else:
            raise ValueError("unknown field kind %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "modulus", modulus)

    def __eq__(self, other):
        return self is other or (
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
        raw = self.raw(value)
        return value if isinstance(value, Scalar) else Scalar(self, raw)

    def raw(self, value):
        """The raw value of a Scalar of this field, an int, a Fraction or an
        'a/b' string: over Q an ``int`` if it is integral and a ``Fraction``
        otherwise (see ``_canon``), over F_p a residue in ``[0, p)``.  Any
        other type, a float included, raises ``TypeError``.
        """
        if isinstance(value, Scalar):
            if value.ctx is not self and value.ctx != self:
                raise FieldMismatch("scalar of %r used in %r" % (value.ctx, self))
            return value.value
        if isinstance(value, str):
            if "/" in value:
                num, den = value.split("/", 1)
                if int(den) == 0:
                    raise ZeroElement("zero denominator in %r" % value)
                value = Fraction(int(num), int(den))
            else:
                value = int(value)
        elif not isinstance(value, (int, Fraction)):
            raise TypeError("%r is not a Scalar, int, Fraction or str" % (value,))
        if self.kind == RATIONALS:
            return _canon(value)
        p = self.modulus
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ZeroElement("denominator divisible by %d" % p)
            return _mul(p, value.numerator, _inv(p, value.denominator))
        return value % p

    def zero(self) -> "Scalar":
        return self.scalar(0)

    def one(self) -> "Scalar":
        return self.scalar(1)


QQ = FieldCtx(RATIONALS)


def GF(p: int) -> FieldCtx:
    return FieldCtx(PRIME_FIELD, p)


class Scalar(_Value):
    """An element of a fixed FieldCtx.

    ``value`` is the raw value of ``FieldCtx.raw``: over Q an ``int`` when
    the value is integral and otherwise a reduced ``Fraction``, whose
    denominator is positive and > 1; over F_p a residue in ``[0, p)``.
    """

    __slots__ = ("ctx", "value")
    _fields = attrgetter("ctx", "value")

    def __init__(self, ctx: FieldCtx, value):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "value", value)

    def _check(self, other: "Scalar"):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar, got %r" % (other,))
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))

    def __add__(self, other):
        self._check(other)
        return Scalar(self.ctx, _norm(self.ctx.modulus, self.value + other.value))

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.ctx, _norm(self.ctx.modulus, self.value - other.value))

    def __mul__(self, other):
        self._check(other)
        return Scalar(self.ctx, _mul(self.ctx.modulus, self.value, other.value))

    def __neg__(self):
        return Scalar(self.ctx, _neg(self.ctx.modulus, self.value))

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroElement("inverse of zero")
        return Scalar(self.ctx, _inv(self.ctx.modulus, self.value))

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        n = index(n)
        if n < 0:
            return self.inverse() ** -n
        p = self.ctx.modulus
        return Scalar(self.ctx, _canon(self.value**n) if p is None else pow(self.value, n, p))

    def is_zero(self) -> bool:
        return self.value == 0

    def is_one(self) -> bool:
        return self.value == 1

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return "Scalar(%r, %s)" % (self.ctx, self)
