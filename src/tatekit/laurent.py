"""Laurent polynomials, truncated Laurent series, and matrix automorphisms.

``LaurentPoly`` is exact arithmetic in k[t, 1/t].  ``TruncSeries`` carries a
unit of k((t)) as (valuation, leading coefficient window): ``coeffs[0]`` is
always nonzero, so the stored valuation is the true one, and ``exact`` marks
series that are complete Laurent polynomials.  Every operation that would
need coefficients beyond the window raises ``InsufficientPrecision`` instead
of silently truncating.

Automorphisms of k((t))^n come in two finitely presented flavours:
multiplication by a unit series (n = 1) and GL_n over k[t, 1/t] with
monomial determinant, so that the inverse is again of the same shape.
"""

from __future__ import annotations

import re

from .errors import (
    FieldMismatch,
    InsufficientPrecision,
    NonSquare,
    NotInvertibleInLaurentRing,
    SpaceMismatch,
    ZeroElement,
)
from .fields import FieldCtx, Scalar

DEFAULT_PRECISION = 16


class LaurentPoly:
    """Element of k[t, 1/t]; ``terms`` maps exponent to nonzero Scalar."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: FieldCtx, terms):
        clean = {}
        for e, c in dict(terms).items():
            c = ctx.scalar(c)
            if not c.is_zero():
                clean[int(e)] = c
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, {})

    @classmethod
    def one(cls, ctx):
        return cls(ctx, {0: 1})

    @classmethod
    def t(cls, ctx, exponent=1, coeff=1):
        return cls(ctx, {exponent: coeff})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return set(self.terms) == {0} and self.terms[0].is_one()

    def _check(self, other):
        if self.ctx != other.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out[e] + c if e in out else c
        return LaurentPoly(self.ctx, out)

    def __neg__(self):
        return LaurentPoly(self.ctx, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                p = c1 * c2
                out[e] = out[e] + p if e in out else p
        return LaurentPoly(self.ctx, out)

    def shift(self, k: int):
        """Multiply by t^k."""
        return LaurentPoly(self.ctx, {e + k: c for e, c in self.terms.items()})

    def coeff(self, e: int) -> Scalar:
        return self.terms.get(e, self.ctx.zero())

    def valuation(self) -> int:
        if not self.terms:
            raise ZeroElement("valuation of 0")
        return min(self.terms)

    def degree(self) -> int:
        if not self.terms:
            raise ZeroElement("degree of 0")
        return max(self.terms)

    def leading_coeff(self) -> Scalar:
        return self.terms[self.valuation()]

    def is_monomial(self):
        return len(self.terms) == 1

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            parts.append(str(c) if e == 0 else "%s*t^%d" % (c, e))
        return " + ".join(parts)

    def __repr__(self):
        return "LaurentPoly(%s)" % self


def valuation(f) -> int:
    """Least exponent with nonzero coefficient (polynomials or series)."""
    if isinstance(f, TruncSeries):
        return f.valuation
    return f.valuation()


class TruncSeries:
    """Unit of k((t)) known through ``len(coeffs)`` leading coefficients."""

    __slots__ = ("ctx", "valuation", "coeffs", "exact")

    def __init__(self, ctx: FieldCtx, valuation: int, coeffs, exact: bool):
        coeffs = [ctx.scalar(c) for c in coeffs]
        if exact:
            while len(coeffs) > 1 and coeffs[-1].is_zero():
                coeffs.pop()
        if not coeffs or coeffs[0].is_zero():
            raise ZeroElement("series leading coefficient must be nonzero")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "valuation", int(valuation))
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, *a):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def from_poly(cls, f: LaurentPoly) -> "TruncSeries":
        if f.is_zero():
            raise ZeroElement("series from zero polynomial")
        v, d = f.valuation(), f.degree()
        return cls(f.ctx, v, [f.coeff(e) for e in range(v, d + 1)], exact=True)

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coeff(self, e: int) -> Scalar:
        i = e - self.valuation
        if i < 0:
            return self.ctx.zero()
        if i < len(self.coeffs):
            return self.coeffs[i]
        if self.exact:
            return self.ctx.zero()
        raise InsufficientPrecision(i + 1, len(self.coeffs))

    def to_poly(self) -> LaurentPoly:
        if not self.exact:
            raise InsufficientPrecision(len(self.coeffs) + 1, len(self.coeffs))
        return LaurentPoly(
            self.ctx, {self.valuation + i: c for i, c in enumerate(self.coeffs)}
        )

    def leading_coeff(self) -> Scalar:
        return self.coeffs[0]

    def is_monomial(self):
        return self.exact and len(self.coeffs) == 1

    def is_one(self):
        return self.exact and self.valuation == 0 and len(self.coeffs) == 1 and self.coeffs[0].is_one()

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        if self.ctx != other.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))
        v = self.valuation + other.valuation
        if self.exact and other.exact:
            return TruncSeries.from_poly(self.to_poly() * other.to_poly())
        known = min(
            len(s.coeffs) for s in (self, other) if not s.exact
        )
        out = []
        for k in range(known):
            acc = self.ctx.zero()
            for i in range(k + 1):
                a = self.coeffs[i] if i < len(self.coeffs) else self.ctx.zero()
                b = other.coeffs[k - i] if k - i < len(other.coeffs) else self.ctx.zero()
                acc = acc + a * b
            out.append(acc)
        return TruncSeries(self.ctx, v, out, exact=False)

    def inverse(self, precision: int | None = None) -> "TruncSeries":
        """Multiplicative inverse, computed by the geometric recurrence."""
        if precision is None:
            precision = len(self.coeffs) if not self.exact else max(
                DEFAULT_PRECISION, len(self.coeffs)
            )
        if not self.exact and precision > len(self.coeffs):
            raise InsufficientPrecision(precision, len(self.coeffs))
        u = list(self.coeffs) + [self.ctx.zero()] * max(0, precision - len(self.coeffs))
        inv0 = u[0].inverse()
        out = [inv0]
        for k in range(1, precision):
            acc = self.ctx.zero()
            for j in range(1, k + 1):
                acc = acc + u[j] * out[k - j]
            out.append(-acc * inv0)
        exact = self.is_monomial()
        if exact:
            out = out[:1]
        return TruncSeries(self.ctx, -self.valuation, out, exact=exact)

    def mul_poly_mod(self, poly: LaurentPoly, cutoff: int) -> LaurentPoly:
        """The product (self * poly) reduced modulo t^cutoff.

        Raises InsufficientPrecision when an unknown coefficient of the
        series would contribute below the cutoff.
        """
        if poly.is_zero():
            return poly
        need = max(cutoff - e - self.valuation for e in poly.terms)
        if not self.exact and need > len(self.coeffs):
            raise InsufficientPrecision(need, len(self.coeffs))
        out = {}
        for e, c in poly.terms.items():
            top = cutoff - e - self.valuation
            for i in range(min(top, len(self.coeffs))):
                if self.coeffs[i].is_zero():
                    continue
                x = e + self.valuation + i
                p = c * self.coeffs[i]
                out[x] = out[x] + p if x in out else p
        return LaurentPoly(self.ctx, out)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.ctx == other.ctx
            and self.valuation == other.valuation
            and self.coeffs == other.coeffs
            and self.exact == other.exact
        )

    def __hash__(self):
        return hash((self.ctx, self.valuation, self.coeffs, self.exact))

    def __str__(self):
        body = " + ".join(
            "%s*t^%d" % (c, self.valuation + i)
            for i, c in enumerate(self.coeffs)
            if not c.is_zero()
        )
        if not body:
            body = "0*t^%d" % self.valuation
        return body if self.exact else body + " + O(t^%d)" % (self.valuation + len(self.coeffs))

    def __repr__(self):
        return "TruncSeries(%s)" % self


def invert_series(f: LaurentPoly, precision: int = DEFAULT_PRECISION) -> TruncSeries:
    """Series inverse g of f: the ``precision`` leading coefficients of 1/f.

    g starts at exponent -v(f) and satisfies f*g = 1 + O(t^precision); it is
    exact only when f is a unit monomial.
    """
    if f.is_zero():
        raise ZeroElement("inverse of 0")
    return TruncSeries.from_poly(f).inverse(precision)


class LaurentMatrix:
    """Square matrix over k[t, 1/t]."""

    __slots__ = ("ctx", "n", "entries")

    def __init__(self, ctx: FieldCtx, n: int, entries):
        entries = tuple(entries)
        if len(entries) != n * n:
            raise ValueError("need %d entries" % (n * n,))
        for e in entries:
            if not isinstance(e, LaurentPoly) or e.ctx != ctx:
                raise FieldMismatch("entry outside %r" % (ctx,))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("LaurentMatrix is immutable")

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

    def __mul__(self, other: "LaurentMatrix") -> "LaurentMatrix":
        if self.ctx != other.ctx:
            raise FieldMismatch("matrix product across fields")
        if self.n != other.n:
            raise SpaceMismatch("rank %d vs %d" % (self.n, other.n))
        out = []
        for i in range(self.n):
            for j in range(self.n):
                acc = LaurentPoly.zero(self.ctx)
                for k in range(self.n):
                    acc = acc + self[i, k] * other[k, j]
                out.append(acc)
        return LaurentMatrix(self.ctx, self.n, out)

    def apply(self, vec):
        """Image of a vector of LaurentPoly coordinates."""
        out = []
        for i in range(self.n):
            acc = LaurentPoly.zero(self.ctx)
            for k in range(self.n):
                if vec[k].terms:
                    acc = acc + self[i, k] * vec[k]
            out.append(acc)
        return out

    def is_identity(self):
        return self == LaurentMatrix.identity(self.ctx, self.n)

    def min_valuation(self) -> int:
        vals = [e.valuation() for e in self.entries if not e.is_zero()]
        if not vals:
            raise ZeroElement("zero matrix")
        return min(vals)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentMatrix)
            and self.ctx == other.ctx
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx, self.n, self.entries))

    def __repr__(self):
        return "LaurentMatrix[%s]" % "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.n)) for i in range(self.n)
        )


def _minor(m: LaurentMatrix, drop_i: int, drop_j: int) -> LaurentMatrix:
    rows = []
    for i in range(m.n):
        if i == drop_i:
            continue
        rows.append([m[i, j] for j in range(m.n) if j != drop_j])
    return LaurentMatrix.from_rows(m.ctx, rows)


def det_laurent(m: LaurentMatrix) -> LaurentPoly:
    """Determinant by cofactor expansion (matrices here are small)."""
    if m.n == 0:
        return LaurentPoly.one(m.ctx)
    if m.n == 1:
        return m[0, 0]
    acc = LaurentPoly.zero(m.ctx)
    for j in range(m.n):
        if m[0, j].is_zero():
            continue
        cof = det_laurent(_minor(m, 0, j))
        term = m[0, j] * cof
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def adjugate(m: LaurentMatrix) -> LaurentMatrix:
    out = []
    for i in range(m.n):
        row = []
        for j in range(m.n):
            cof = det_laurent(_minor(m, j, i))
            row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(row)
    return LaurentMatrix.from_rows(m.ctx, out)


def gl_inverse(m: LaurentMatrix) -> LaurentMatrix:
    """Exact inverse; requires the determinant to be a unit c*t^k."""
    d = det_laurent(m)
    if d.is_zero() or not d.is_monomial():
        raise NotInvertibleInLaurentRing("determinant %s is not c*t^k" % d)
    e = d.valuation()
    inv_mono = LaurentPoly.t(m.ctx, -e, d.leading_coeff().inverse().value)
    adj = adjugate(m)
    return LaurentMatrix(
        m.ctx, m.n, [p * inv_mono for p in adj.entries]
    )


class Automorphism:
    """An automorphism of k((t))^n: MultBy a unit (n=1) or monomial-det GL_n.

    Rank 1 has the single representation MultBy: ``gl`` turns a 1x1 matrix
    into the multiplication by its entry, which only has to be nonzero, as
    every nonzero Laurent polynomial is a unit of k((t)).
    """

    __slots__ = ("kind", "series", "matrix", "_inverse")

    MULT = "mult"
    GL = "gl"

    def __init__(self, kind, series=None, matrix=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_inverse", None)
        if kind == self.MULT:
            if series is None or series.coeffs[0].is_zero():
                raise ZeroElement("MultBy needs a unit series")
        elif kind == self.GL:
            if matrix.n == 1:
                raise ValueError("rank 1 is MultBy; build it with Automorphism.gl")
            d = det_laurent(matrix)
            if d.is_zero() or not d.is_monomial():
                raise NotInvertibleInLaurentRing("determinant %s is not c*t^k" % d)
        else:
            raise ValueError("unknown automorphism kind %r" % kind)

    def __setattr__(self, *a):
        raise AttributeError("Automorphism is immutable")

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
        return det_laurent(self.matrix).valuation()

    def _inverse_matrix(self) -> LaurentMatrix:
        """gl_inverse of the matrix, computed on first use and kept."""
        if self._inverse is None:
            object.__setattr__(self, "_inverse", gl_inverse(self.matrix))
        return self._inverse

    def valuations(self):
        """(v(g), v(g^-1)): the least t-exponents of g and of its inverse."""
        if self.kind == self.MULT:
            return self.series.valuation, -self.series.valuation
        return self.matrix.min_valuation(), self._inverse_matrix().min_valuation()

    def image(self, vecs, cutoff: int):
        """g applied to a batch of Laurent vectors, modulo t^cutoff.

        A truncated series is checked once, against the largest need of the
        whole batch, so the precision that InsufficientPrecision names
        suffices for every vector.  Matrix images may keep terms at or above
        the cutoff; ``vec_to_row`` drops them.
        """
        if self.kind == self.GL:
            return [self.matrix.apply(vec) for vec in vecs]
        s = self.series
        exps = [e for vec in vecs for e in vec[0].terms]
        need = max((cutoff - e - s.valuation for e in exps), default=0)
        if not s.exact and need > s.precision:
            raise InsufficientPrecision(need, s.precision)
        return [(s.mul_poly_mod(vec[0], cutoff),) for vec in vecs]

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other, acting on the same space."""
        if self.ctx != other.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))
        if self.rank != other.rank:
            raise SpaceMismatch("rank %d vs %d" % (self.rank, other.rank))
        if self.kind == self.GL:
            return Automorphism.gl(self.matrix * other.matrix)
        return Automorphism.mult_by(self.series * other.series)

    def inverse(self, precision: int | None = None) -> "Automorphism":
        if self.kind == self.GL:
            return Automorphism.gl(self._inverse_matrix())
        return Automorphism.mult_by(self.series.inverse(precision))

    def __eq__(self, other):
        return (
            isinstance(other, Automorphism)
            and self.kind == other.kind
            and self.series == other.series
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.kind, self.series, self.matrix))

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
    for i, ch in enumerate(text):
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
    acc = LaurentPoly.zero(ctx)
    for part in _split_terms(raw):
        sign = 1
        if part.startswith("-"):
            sign, part = -1, part[1:]
        elif part.startswith("+"):
            part = part[1:]
        m = _TERM_RE.match(part)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError("bad Laurent term %r in %r" % (part, text))
        coeff = ctx.scalar(m.group("coeff")) if m.group("coeff") else ctx.one()
        if sign < 0:
            coeff = -coeff
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        acc = acc + LaurentPoly(ctx, {exp: coeff})
    return acc


def parse_laurent_matrix(ctx: FieldCtx, text: str) -> LaurentMatrix:
    """Rows separated by ';', entries by ','."""
    rows = [
        [parse_laurent(ctx, cell) for cell in row.split(",")]
        for row in text.split(";")
        if row.strip()
    ]
    return LaurentMatrix.from_rows(ctx, rows)
