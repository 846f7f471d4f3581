"""Laurent polynomials, truncated Laurent series, and matrix automorphisms.

``LaurentPoly`` is exact arithmetic in k[t, 1/t].  ``TruncSeries`` carries a
unit of k((t)) as the same sparse term dict (exponent -> nonzero raw value)
plus ``top``, the first exponent whose coefficient is unknown, or None when
the series is exact, a complete Laurent polynomial.  The valuation is the
true one, as its coefficient is always nonzero.  A series costs its nonzero
terms, not its degree: ``from_poly`` shares the polynomial's dict.  Every
operation that would need coefficients from ``top`` on raises
``InsufficientPrecision`` instead of silently truncating.

Both store raw field values, as ``linalg`` does (over Q an ``int`` when
integral and a ``Fraction`` otherwise, see ``fields._canon``; over F_p a
residue in ``[0, p)``), and their arithmetic runs on them with one branch on
the field's modulus: where the F_p branch reduces ``% p``, the Q branch makes
the value canonical.  A ``LaurentMatrix`` product over Q first puts each
operand over its common denominator (``fields._numerators``), so that its
term products are int products and each result coefficient is divided once.
Caller input is checked once, through ``FieldCtx.raw``, by the
``LaurentPoly`` and ``TruncSeries`` constructors; the polynomials and series
computed here are built unchecked.  ``terms``, ``coeffs``, ``coeff`` and
``leading_coeff`` box into ``Scalar`` on the way out.

Automorphisms of k((t))^n come in two finitely presented flavours:
multiplication by a unit series (n = 1) and GL_n over k[t, 1/t] with monomial
determinant, whose inverse has the same shape: a GL automorphism keeps both
from one fraction-free elimination at construction.  ``Automorphism.image``
maps sparse raw rows on the absolute slots of ``lattice`` straight to rows
reduced modulo t^a O^n, reading each term list in ascending order only up to
the top t^a; the truncated series product and ``mul_poly_mod`` run on it too.
"""

from __future__ import annotations

import re
from math import gcd
from operator import attrgetter, index, mul

from .errors import (
    FieldMismatch,
    InsufficientPrecision,
    NonSquare,
    NotInvertibleInLaurentRing,
    RankTooLarge,
    SpaceMismatch,
    ZeroElement,
)
from .fields import FieldCtx, Scalar, _Value, _inv, _mul, _numerators, _reduced

DEFAULT_PRECISION = 16

# The largest GL rank accepted; a GL automorphism costs O(n^3) to build.
MAX_GL_RANK = 8

# Arithmetic on raw term dicts (exponent -> raw value); ``p`` is the field's
# modulus, None over Q.


def _mac(acc, f, g):
    """Add the product of the term dicts ``f`` and ``g`` into ``acc``,
    unreduced: the exact product.  A truncated product runs through
    ``Automorphism.image``, which reads each term list only up to its top."""
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def _negated(p, f):
    if p is None:
        return {e: -c for e, c in f.items()}
    return {e: p - c for e, c in f.items()}


def _check_ctx(x, y):
    if x.ctx is not y.ctx and x.ctx != y.ctx:
        raise FieldMismatch("%r vs %r" % (x.ctx, y.ctx))


class LaurentPoly(_Value):
    """Element of k[t, 1/t]; ``_terms`` maps exponent to nonzero raw value."""

    __slots__ = ("ctx", "_terms")
    _fields = attrgetter("ctx", "_terms")

    def __init__(self, ctx: FieldCtx, terms):
        clean = {}
        for e, c in dict(terms).items():
            c = ctx.raw(c)
            if c:
                clean[index(e)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _raw(cls, ctx: FieldCtx, terms) -> "LaurentPoly":
        """A polynomial on nonzero raw terms computed here; nothing is checked."""
        f = object.__new__(cls)
        object.__setattr__(f, "ctx", ctx)
        object.__setattr__(f, "_terms", terms)
        return f

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {0: 1})

    @classmethod
    def t(cls, ctx, exponent=1, coeff=1):
        return cls(ctx, {exponent: coeff})

    @property
    def terms(self):
        """Exponent -> nonzero Scalar, as a new dict."""
        return {e: Scalar(self.ctx, c) for e, c in self._terms.items()}

    def is_zero(self):
        return not self._terms

    def __add__(self, other):
        _check_ctx(self, other)
        acc = dict(self._terms)
        for e, c in other._terms.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly._raw(self.ctx, _reduced(self.ctx.modulus, acc))

    def __neg__(self):
        return LaurentPoly._raw(self.ctx, _negated(self.ctx.modulus, self._terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        _check_ctx(self, other)
        acc = {}
        _mac(acc, self._terms, other._terms)
        return LaurentPoly._raw(self.ctx, _reduced(self.ctx.modulus, acc))

    def shift(self, k: int):
        """Multiply by t^k."""
        k = index(k)
        return LaurentPoly._raw(self.ctx, {e + k: c for e, c in self._terms.items()})

    def coeff(self, e: int) -> Scalar:
        return Scalar(self.ctx, self._terms.get(index(e), 0))

    def valuation(self) -> int:
        if not self._terms:
            raise ZeroElement("valuation of 0")
        return min(self._terms)

    def leading_coeff(self) -> Scalar:
        return Scalar(self.ctx, self._terms[self.valuation()])

    def is_monomial(self):
        return len(self._terms) == 1

    def __hash__(self):
        return hash((self.ctx, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for e in sorted(self._terms):
            c = Scalar(self.ctx, self._terms[e])
            parts.append(str(c) if e == 0 else "%s*t^%d" % (c, e))
        return " + ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self


class TruncSeries(_Value):
    """Unit of k((t)) known below t^top: ``_terms`` maps exponent to nonzero
    raw value, and ``top`` is None when the series is exact."""

    __slots__ = ("ctx", "valuation", "_terms", "top")
    _fields = attrgetter("ctx", "valuation", "_terms", "top")

    def __init__(self, ctx: FieldCtx, valuation: int, coeffs, exact: bool):
        valuation, coeffs = index(valuation), [ctx.raw(c) for c in coeffs]
        if not coeffs or not coeffs[0]:
            raise ZeroElement("series leading coefficient must be nonzero")
        terms = {valuation + i: c for i, c in enumerate(coeffs) if c}
        self._fill(ctx, valuation, terms, None if exact else valuation + len(coeffs))

    def _fill(self, ctx, valuation, terms, top):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "top", top)

    @classmethod
    def _raw(cls, ctx: FieldCtx, valuation: int, terms, top) -> "TruncSeries":
        """A series on nonzero raw terms computed here, one of them at
        ``valuation`` and none from ``top`` on; nothing is checked."""
        s = object.__new__(cls)
        s._fill(ctx, valuation, terms, top)
        return s

    @classmethod
    def from_poly(cls, f: LaurentPoly) -> "TruncSeries":
        if f.is_zero():
            raise ZeroElement("series from zero polynomial")
        return cls._raw(f.ctx, f.valuation(), f._terms, None)

    @property
    def exact(self) -> bool:
        return self.top is None

    @property
    def precision(self) -> int:
        """How many coefficients are known from t^valuation up; when exact,
        those through the degree."""
        return (max(self._terms) + 1 if self.top is None else self.top) - self.valuation

    @property
    def coeffs(self):
        """The known coefficients as Scalars, from t^valuation up."""
        v, get = self.valuation, self._terms.get
        return tuple(Scalar(self.ctx, get(e, 0)) for e in range(v, v + self.precision))

    def coeff(self, e: int) -> Scalar:
        e = index(e)
        if self.top is not None and e >= self.top:
            raise InsufficientPrecision(e - self.valuation + 1, self.precision)
        return Scalar(self.ctx, self._terms.get(e, 0))

    def is_monomial(self):
        return self.top is None and len(self._terms) == 1

    def is_one(self):
        return self.is_monomial() and self._terms.get(0) == 1

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        _check_ctx(self, other)
        v = self.valuation + other.valuation
        known = [s.top - s.valuation for s in (self, other) if s.top is not None]
        if known:  # image reads self below v(self) + min(known) <= self.top: it cannot raise
            top = v + min(known)
            return TruncSeries._raw(self.ctx, v, Automorphism.mult_by(self).image([other._terms], top)[0], top)
        acc = {}
        _mac(acc, self._terms, other._terms)
        return TruncSeries._raw(self.ctx, v, _reduced(self.ctx.modulus, acc), None)

    def _inverse_precision(self, precision: int | None) -> int:
        """The precision ``inverse(precision)`` asks for: the given one, or by
        default the known one, at least DEFAULT_PRECISION when exact."""
        if precision is not None:
            return precision
        return max(DEFAULT_PRECISION, self.precision) if self.exact else self.precision

    def inverse(self, precision: int | None = None) -> "TruncSeries":
        """Multiplicative inverse, computed by the geometric recurrence over
        the nonzero terms past the leading one.  Only the multiples of the
        gcd of their offsets can be nonzero, so the recurrence steps by it:
        a dense tail takes every offset, a sparse one few.  A precision below
        1 raises ValueError."""
        known, precision = self.precision, index(self._inverse_precision(precision))
        if precision < 1:
            raise ValueError("precision must be >= 1, got %d" % precision)
        if not self.exact and precision > known:
            raise InsufficientPrecision(precision, known)
        v, p = self.valuation, self.ctx.modulus
        tail = sorted((e - v, c) for e, c in self._terms.items() if 0 < e - v < precision)
        inv0, mono = _inv(p, self._terms[v]), self.is_monomial()
        stop = 1 if mono else precision
        step = gcd(*[j for j, _ in tail]) or stop
        if step > 1:
            tail = [(j // step, c) for j, c in tail]
        out = [inv0]
        for k in range(1, (stop + step - 1) // step):
            acc = 0
            for j, c in tail:
                if j > k:
                    break
                acc += c * out[k - j]
            out.append(_mul(p, -acc, inv0))
        terms = {k - v: x for k, x in zip(range(0, stop, step), out) if x}
        return TruncSeries._raw(self.ctx, -v, terms, None if mono else stop - v)

    def mul_poly_mod(self, poly: LaurentPoly, cutoff: int) -> LaurentPoly:
        """The product (self * poly) reduced modulo t^cutoff: the image of the
        polynomial under the multiplication, which raises InsufficientPrecision
        when an unknown coefficient of the series would contribute below it."""
        if poly.is_zero():
            return poly
        _check_ctx(self, poly)
        return LaurentPoly._raw(self.ctx, Automorphism.mult_by(self).image([poly._terms], cutoff)[0])

    def __hash__(self):
        return hash((self.ctx, self.valuation, frozenset(self._terms.items()), self.top))

    def __str__(self):
        body = " + ".join("%s*t^%d" % (Scalar(self.ctx, self._terms[e]), e) for e in sorted(self._terms))
        return body if self.top is None else body + " + O(t^%d)" % self.top

    def __repr__(self):
        return "TruncSeries(%s)" % self


class LaurentMatrix(_Value):
    """Square matrix over k[t, 1/t]."""

    __slots__ = ("ctx", "n", "entries")
    _fields = attrgetter("ctx", "n", "entries")

    def __init__(self, ctx: FieldCtx, n: int, entries):
        n, entries = index(n), tuple(entries)
        if n < 0:
            raise ValueError("rank %d is negative" % n)
        if len(entries) != n * n:
            raise ValueError("need %d entries" % (n * n,))
        if not all(isinstance(e, LaurentPoly) and e.ctx == ctx for e in entries):
            raise FieldMismatch("entry outside %r" % (ctx,))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, ctx, rows):
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise NonSquare("LaurentMatrix must be square")
        return cls(ctx, n, [e for row in rows for e in row])

    @classmethod
    def identity(cls, ctx, n):
        one, zero = LaurentPoly.one(ctx), LaurentPoly.zero(ctx)
        return cls(ctx, n, [one if i == j else zero for i in range(n) for j in range(n)])

    @classmethod
    def diagonal(cls, ctx, polys):
        n = len(polys)
        zero = LaurentPoly.zero(ctx)
        return cls(ctx, n, [polys[i] if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.n + j]

    def _term_rows(self):
        """The entries' raw term dicts, row by row."""
        n = self.n
        return [[f._terms for f in self.entries[i * n : (i + 1) * n]] for i in range(n)]

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.ctx != other.ctx:
            raise FieldMismatch("matrix product across fields")
        if self.n != other.n:
            raise SpaceMismatch("rank %d vs %d" % (self.n, other.n))
        n, p = self.n, self.ctx.modulus
        x, dx = _numerators(p, [f._terms for f in self.entries])
        y, dy = _numerators(p, [f._terms for f in other.entries])
        out = []
        for i in range(0, n * n, n):
            for j in range(n):
                acc = {}
                for k in range(n):
                    _mac(acc, x[i + k], y[k * n + j])
                out.append(LaurentPoly._raw(self.ctx, _reduced(p, acc, dx * dy)))
        return LaurentMatrix(self.ctx, n, out)

    def apply(self, vec):
        """Image of a vector of n LaurentPoly coordinates, by the ring's ``*`` and ``+``."""
        n = self.n
        if len(vec) != n:
            raise SpaceMismatch("vector of %d coordinates for a rank %d matrix" % (len(vec), n))
        return [sum(map(mul, self.entries[i * n : (i + 1) * n], vec), LaurentPoly.zero(self.ctx)) for i in range(n)]

    def is_identity(self):
        return self == LaurentMatrix.identity(self.ctx, self.n)

    def min_valuation(self) -> int:
        vals = [e.valuation() for e in self.entries if not e.is_zero()]
        if not vals:
            raise ZeroElement("zero matrix")
        return min(vals)

    def __repr__(self):
        return "LaurentMatrix[%s]" % "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.n)) for i in range(self.n)
        )


def _divider(p, g):
    """acc -> acc / g, for g | acc in k[t, 1/t]: a monomial shift or long division."""
    top = max(g)
    inv = _inv(p, g[top])
    if len(g) == 1:
        return lambda acc: {e - top: x for e, c in acc.items() if (x := _mul(p, c, inv))}

    def divide(acc):
        r, q = _reduced(p, acc), {}
        while r:
            e = max(r)
            c = q[e - top] = _mul(p, r[e], inv)
            _mac(r, {e - top: -c}, g)
            r = _reduced(p, r)
        return q

    return divide


def _eliminate(ctx: FieldCtx, rows):
    """Fraction-free Gauss-Jordan elimination (Bareiss) of the leading n x n
    block M of n rows of raw term dicts, in place; returns (det M, e).  Step
    k swaps a row with a_kk != 0 into row k (none: det M = 0), then sets each
    a_ij, i != k < j, to (a_kk a_ij - a_ik a_kj) / (the previous pivot), an
    exact division (Sylvester's identity).  The last pivot e = +-det M turns
    the columns past M into e M^-1 times what they held; M's own are stale."""
    n, p, sign, d = len(rows), ctx.modulus, 1, {0: 1}
    for k in range(n):
        r = next((r for r in range(k, n) if rows[r][k]), None)
        if r is None:
            return LaurentPoly._raw(ctx, {}), {}
        rows[k], rows[r], sign = rows[r], rows[k], sign if r == k else -sign
        pivot_row, divide = rows[k], _divider(p, d)
        for row in rows:
            if row is not pivot_row:
                neg = _negated(p, row[k])
                for j in range(k + 1, len(row)):
                    if row[j] or pivot_row[j]:  # else it stays 0
                        acc = {}
                        _mac(acc, pivot_row[k], row[j])
                        _mac(acc, neg, pivot_row[j])
                        row[j] = divide(acc)
        d = pivot_row[k]
    return LaurentPoly._raw(ctx, d if sign > 0 else _negated(p, d)), d


def det_laurent(m: LaurentMatrix) -> LaurentPoly:
    """Determinant, by the elimination of m alone."""
    return _eliminate(m.ctx, m._term_rows())[0]


def _det_and_inverse(m: LaurentMatrix):
    """(det m, m^-1) by one elimination of [m | I]; det m must be a unit c*t^k."""
    n = m.n
    rows = [row + [{0: 1} if j == i else {} for j in range(n)] for i, row in enumerate(m._term_rows())]
    det, e = _eliminate(m.ctx, rows)
    if not det.is_monomial():
        raise NotInvertibleInLaurentRing("determinant %s is not c*t^k" % det)
    divide = _divider(m.ctx.modulus, e)
    return det, LaurentMatrix(m.ctx, n, [LaurentPoly._raw(m.ctx, divide(f)) for row in rows for f in row[n:]])


class Automorphism(_Value):
    """An automorphism of k((t))^n: MultBy a unit (n=1) or monomial-det GL_n.

    Rank 1 has the single representation MultBy: ``gl`` turns a 1x1 matrix
    into the multiplication by its entry, which only has to be nonzero, as
    every nonzero Laurent polynomial is a unit of k((t)).  ``inverse`` and
    ``compose`` of GL run no elimination; the hash is kept on first use.
    """

    __slots__ = ("kind", "series", "matrix", "_det", "_inverse", "_hash")
    _fields = attrgetter("kind", "series", "matrix")

    MULT = "mult"
    GL = "gl"

    def __init__(self, kind, series=None, matrix=None):
        det = inverse = None
        if kind == self.MULT:
            if series is None:
                raise ZeroElement("MultBy needs a unit series")
        elif kind == self.GL:
            if not isinstance(matrix, LaurentMatrix):
                raise TypeError("GL needs a LaurentMatrix, got %r" % (matrix,))
            if matrix.n < 1:
                raise ValueError("rank must be positive")
            if matrix.n == 1:
                raise ValueError("rank 1 is MultBy; build it with Automorphism.gl")
            if matrix.n > MAX_GL_RANK:
                raise RankTooLarge("GL rank %d exceeds the cap MAX_GL_RANK=%d" % (matrix.n, MAX_GL_RANK))
            det, inverse = _det_and_inverse(matrix)
        else:
            raise ValueError("unknown automorphism kind %r" % kind)
        self._fill(kind, series, matrix, det, inverse)

    def _fill(self, kind, series, matrix, det, inverse):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_inverse", inverse)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _gl(cls, matrix: LaurentMatrix, det: LaurentPoly, inverse: LaurentMatrix) -> "Automorphism":
        """GL by a matrix with known ``inverse`` and determinant ``det`` = c*t^k."""
        g = object.__new__(cls)
        g._fill(cls.GL, None, matrix, det, inverse)
        return g

    @classmethod
    def mult_by(cls, f) -> "Automorphism":
        if isinstance(f, LaurentPoly):
            f = TruncSeries.from_poly(f)
        return cls(cls.MULT, series=f)

    @classmethod
    def gl(cls, matrix: LaurentMatrix) -> "Automorphism":
        if matrix.n == 1:
            return cls.mult_by(matrix[0, 0])
        return cls(cls.GL, matrix=matrix)

    @classmethod
    def identity(cls, ctx: FieldCtx, rank: int) -> "Automorphism":
        return cls.gl(LaurentMatrix.identity(ctx, rank))

    @property
    def ctx(self) -> FieldCtx:
        return self.series.ctx if self.kind == self.MULT else self.matrix.ctx

    @property
    def rank(self) -> int:
        return 1 if self.kind == self.MULT else self.matrix.n

    def is_identity(self) -> bool:
        if self.kind == self.MULT:
            return self.series.is_one()
        return self.matrix.is_identity()

    def det_valuation(self) -> int:
        """t-valuation of the determinant (the winding-number oracle)."""
        if self.kind == self.MULT:
            return self.series.valuation
        return self._det.valuation()

    def valuations(self):
        """(v(g), v(g^-1)): the least t-exponents of g and of its inverse."""
        if self.kind == self.MULT:
            return self.series.valuation, -self.series.valuation
        return self.matrix.min_valuation(), self._inverse.min_valuation()

    def image(self, rows, a: int):
        """g applied to a batch of sparse raw rows, as sparse raw rows.

        A row is a ``{slot: nonzero raw value}`` row in the slot order of
        ``lattice``: slot s holds t^(s // n) e_(s % n).  Each image is
        reduced modulo t^a O^n.  A truncated series is checked once, against
        the largest need of the whole batch, so the precision that
        InsufficientPrecision names suffices for every row.

        Over Q the raw values are multiplied as they are: most rows and terms
        are ints, and putting each batch over a common denominator first
        costs more than the few ``Fraction`` products it would spare.
        """
        if self.kind == self.MULT:
            u, n = self.series, 1
            lo = min((min(row) for row in rows if row), default=None)
            if u.top is not None and lo is not None and a - lo > u.top:
                raise InsufficientPrecision(a - lo - u.valuation, u.precision)
            terms = [u._terms]
        else:
            n = self.matrix.n
            terms = [f._terms for f in self.matrix.entries]
        entries = [sorted(f.items()) for f in terms]
        p, out = self.ctx.modulus, []
        for row in rows:
            acc = {}
            for s, c in row.items():
                e, k = s // n, s % n
                for i in range(n):
                    for f, d in entries[i * n + k]:
                        if e + f >= a:
                            break
                        slot = (e + f) * n + i
                        acc[slot] = acc.get(slot, 0) + c * d
            out.append(_reduced(p, acc))
        return out

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other, acting on the same space."""
        if self.ctx != other.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))
        if self.rank != other.rank:
            raise SpaceMismatch("rank %d vs %d" % (self.rank, other.rank))
        if self.kind == self.GL:
            return Automorphism._gl(self.matrix * other.matrix, self._det * other._det, other._inverse * self._inverse)
        return Automorphism.mult_by(self.series * other.series)

    def inverse(self, precision: int | None = None) -> "Automorphism":
        if self.kind == self.GL:
            det = LaurentPoly._raw(self.ctx, _divider(self.ctx.modulus, self._det._terms)({0: 1}))
            return Automorphism._gl(self._inverse, det, self.matrix)
        return Automorphism.mult_by(self.series.inverse(precision))

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.kind, self.series, self.matrix)))
        return self._hash

    def __repr__(self):
        if self.kind == self.MULT:
            return "MultBy(%s)" % self.series
        return "GL(%r)" % self.matrix


_TERM_RE = re.compile(
    r"^(?P<coeff>[+-]?\d+(?:/\d+)?)?(?:\*?(?P<t>t)(?:\^(?P<exp>[+-]?\d+))?)?$"
)


def _split_terms(text: str):
    terms = []
    cur = ""
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "^*/+-":
            terms.append(cur)
            cur = "" if ch == "+" else "-"
        else:
            cur += ch
    if cur:
        terms.append(cur)
    return terms


def parse_laurent(ctx: FieldCtx, text: str) -> LaurentPoly:
    """Parse the CLI term grammar, e.g. "3*t^-2 + 1 + 5*t^3", "1-t", "t^2".

    term = coefficient ["*t^" exponent]; a bare "t" or "t^k" carries an
    implicit coefficient of 1; whitespace is ignored.
    """
    raw = text.replace(" ", "").replace("\t", "")
    if not raw:
        raise ValueError("empty Laurent expression")
    acc = {}
    for part in _split_terms(raw):
        sign = 1
        if part.startswith("-"):
            sign, part = -1, part[1:]
        elif part.startswith("+"):
            part = part[1:]
        m = _TERM_RE.match(part)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError("bad Laurent term %r in %r" % (part, text))
        coeff = ctx.raw(m.group("coeff")) if m.group("coeff") else 1
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        acc[exp] = acc.get(exp, 0) + sign * coeff
    return LaurentPoly._raw(ctx, _reduced(ctx.modulus, acc))


def parse_laurent_matrix(ctx: FieldCtx, text: str) -> LaurentMatrix:
    """Rows separated by ';', entries by ','."""
    rows = [
        [parse_laurent(ctx, cell) for cell in row.split(",")]
        for row in text.split(";")
        if row.strip()
    ]
    return LaurentMatrix.from_rows(ctx, rows)
