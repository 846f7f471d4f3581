"""Deterministic dense linear algebra over an exact field.

Matrices and subspaces store raw field values row by row (a ``Fraction``
over Q, an int in ``[0, p)`` over F_p), and the kernel runs on them with one
branch per field.  Values are checked and unboxed where they enter
(``Matrix``, ``from_rows``, ``contains_vector``, ``quotient_coords``) and
boxed into ``Scalar`` where they leave; values the kernel computes itself
are not checked again.

Subspaces are stored by their reduced row echelon basis, which is a
canonical form: two subspaces are equal iff their stored bases are equal row
for row.  Quotient bases are fixed by echelon completion, so every
downstream determinant-line scalar is reproducible run to run.

Only ``Subspace.from_rows`` (a ``Subspace`` built with ``pivots=None``) runs
an elimination, through ``rref``.  Builders whose rows are already in reduced
echelon form pass their pivots and skip it, and membership and quotient
coordinates reduce a vector against the stored echelon rows instead of
solving a system.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbientMismatch, FieldMismatch, NonSquare, NotContained
from .fields import FieldCtx, Scalar

# Kernel arithmetic on raw values; ``p`` is the field's modulus, None over Q.


def _inv(p, x):
    return Fraction(1) / x if p is None else pow(x, -1, p)


def _neg(p, x):
    return -x if p is None else -x % p


def _mul(p, x, y):
    return x * y if p is None else x * y % p


def _submul(p, vec, f, row):
    """``vec - f * row``; zero entries of ``row`` leave ``vec`` as it is."""
    if p is None:
        return [v - f * r if r else v for v, r in zip(vec, row)]
    return [(v - f * r) % p if r else v for v, r in zip(vec, row)]


def _scale(p, c, row):
    if p is None:
        return [c * x for x in row]
    return [c * x % p for x in row]


def _box(ctx: FieldCtx, row):
    return [Scalar(ctx, x) for x in row]


def _unbox(ctx: FieldCtx, vec):
    return [ctx.raw(x) for x in vec]


class Matrix:
    """An immutable matrix over ``ctx``; ``_data`` holds its raw rows."""

    __slots__ = ("ctx", "rows", "cols", "_data")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        for e in entries:
            if not isinstance(e, Scalar) or e.ctx != ctx:
                raise FieldMismatch("matrix entry outside %r" % (ctx,))
        vals = [e.value for e in entries]
        self._fill(ctx, cols, [vals[i * cols : (i + 1) * cols] for i in range(rows)])

    def _fill(self, ctx, cols, data):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(data))

    @classmethod
    def _raw(cls, ctx: FieldCtx, cols: int, data) -> "Matrix":
        """A matrix on raw rows the kernel computed; nothing is checked."""
        m = object.__new__(cls)
        m._fill(ctx, cols, data)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Matrix":
        rows = [_unbox(ctx, row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls._raw(ctx, ncols, rows)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        zero, one = ctx.raw_zero, ctx.raw_one
        data = [[zero] * n for _ in range(n)]
        for i, row in enumerate(data):
            row[i] = one
        return cls._raw(ctx, n, data)

    @property
    def entries(self):
        return tuple(Scalar(self.ctx, x) for row in self._data for x in row)

    def __getitem__(self, ij):
        i, j = ij
        return Scalar(self.ctx, self._data[i][j])

    def row(self, i: int):
        return _box(self.ctx, self._data[i])

    def row_list(self):
        return [_box(self.ctx, row) for row in self._data]

    def transpose(self) -> "Matrix":
        return Matrix._raw(self.ctx, self.rows, [[row[j] for row in self._data] for j in range(self.cols)])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise FieldMismatch("matrix product across fields")
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        p, zero = self.ctx.modulus, self.ctx.raw_zero
        out = []
        for ri in self._data:
            acc = [zero] * other.cols
            for x, rk in zip(ri, other._data):
                if x:
                    acc = [a + x * b for a, b in zip(acc, rk)]
            out.append(acc if p is None else [a % p for a in acc])
        return Matrix._raw(self.ctx, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.ctx, self.rows, self.cols, tuple(map(tuple, self._data))))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.row_list())
        return "Matrix[%s]" % body


def _rref_rows(ctx: FieldCtx, rows):
    """Gauss-Jordan on raw row lists; returns (rows, pivots).

    Rows are replaced, never written in place, so the input lists survive.
    """
    p = ctx.modulus
    rows = list(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = _scale(p, _inv(p, lead), rows[r])
        prow = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _submul(p, rows[i], f, prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Matrix):
    """Reduced row echelon form of ``m`` along with its pivot columns."""
    rows, pivots = _rref_rows(m.ctx, m._data)
    return Matrix._raw(m.ctx, m.cols, rows), pivots


def det(m: Matrix) -> Scalar:
    """Determinant by fraction-preserving Gaussian elimination."""
    if m.rows != m.cols:
        raise NonSquare("det of %dx%d" % (m.rows, m.cols))
    ctx, p, n = m.ctx, m.ctx.modulus, m.rows
    rows = list(m._data)
    acc = ctx.raw_one
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return ctx.zero()
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            acc = _neg(p, acc)
        lead = rows[c][c]
        acc = _mul(p, acc, lead)
        inv = _inv(p, lead)
        for i in range(c + 1, n):
            x = rows[i][c]
            if x:
                rows[i] = _submul(p, rows[i], _mul(p, x, inv), rows[c])
    return Scalar(ctx, acc)


def _reduce(p, rows, pivots, vec):
    """``vec`` minus the raw rows of an RREF basis, each taken at its pivot.

    The remainder is zero at every pivot, and zero everywhere iff ``vec``
    lies in the span of ``rows``.
    """
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            vec = _submul(p, vec, f, row)
    return vec


class Subspace:
    """A subspace of k^ambient_dim in canonical reduced echelon form."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots=None):
        if basis.cols != ambient_dim:
            raise AmbientMismatch("basis cols %d != ambient %d" % (basis.cols, ambient_dim))
        if pivots is None:
            basis, pivots = rref(basis)
            if basis.rows != len(pivots):
                basis = Matrix._raw(basis.ctx, ambient_dim, basis._data[: len(pivots)])
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, ambient_dim: int, rows) -> "Subspace":
        if not rows:
            return cls.zero(ctx, ambient_dim)
        return cls(ambient_dim, Matrix.from_rows(ctx, rows))

    @classmethod
    def _span(cls, ctx: FieldCtx, ambient_dim: int, rows) -> "Subspace":
        """The span of raw rows the kernel computed, by one elimination."""
        if not rows:
            return cls.zero(ctx, ambient_dim)
        return cls(ambient_dim, Matrix._raw(ctx, ambient_dim, rows))

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix._raw(ctx, ambient_dim, ()), ())

    @classmethod
    def full(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ctx, ambient_dim), tuple(range(ambient_dim)))

    @property
    def ctx(self) -> FieldCtx:
        return self.basis.ctx

    @property
    def dim(self) -> int:
        return self.basis.rows

    def rows(self):
        return self.basis.row_list()

    def _remainder(self, vec):
        return _reduce(self.ctx.modulus, self.basis._data, self.pivots, vec)

    def contains_vector(self, vec) -> bool:
        return not any(self._remainder(_unbox(self.ctx, vec)))

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("%d vs %d" % (self.ambient_dim, other.ambient_dim))
        if self.ctx != other.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check(b)
    return Subspace._span(a.ctx, a.ambient_dim, a.basis._data + b.basis._data)


def _nullspace(m: Matrix):
    """Raw basis rows of {x : m x = 0}, echelon over the free columns."""
    red, pivots = rref(m)
    ctx, p = m.ctx, m.ctx.modulus
    zero, one = ctx.raw_zero, ctx.raw_one
    out = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = [zero] * m.cols
        vec[f] = one
        for row, c in zip(red._data, pivots):
            vec[c] = _neg(p, row[f])
        out.append(vec)
    return out


def nullspace(m: Matrix):
    """Basis rows of {x : m x = 0}, echelon over the free columns."""
    return [_box(m.ctx, vec) for vec in _nullspace(m)]


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    a._check(b)
    ctx, p = a.ctx, a.ctx.modulus
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(ctx, a.ambient_dim)
    stacked = Matrix._raw(ctx, a.ambient_dim, a.basis._data + b.basis._data)
    vecs = []
    for x in _nullspace(stacked.transpose()):
        vec = [ctx.raw_zero] * a.ambient_dim
        for coef, row in zip(x[: a.dim], a.basis._data):
            if coef:
                vec = _submul(p, vec, _neg(p, coef), row)
        vecs.append(vec)
    return Subspace._span(ctx, a.ambient_dim, vecs)


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """Whether every vector of b lies in a."""
    a._check(b)
    return not any(any(a._remainder(row)) for row in b.basis._data)


def _quotient_reps(sub: Subspace, sup: Subspace):
    """(rows, pivots): the raw echelon rows of sup whose pivots are not
    pivots of sub, ascending.  Raises ``NotContained`` unless sub <= sup."""
    if not subspace_contains(sup, sub):
        raise NotContained("quotient needs sub <= sup")
    sub_piv = set(sub.pivots)
    kept = [(row, c) for row, c in zip(sup.basis._data, sup.pivots) if c not in sub_piv]
    return [row for row, _ in kept], [c for _, c in kept]


def quotient_basis(sub: Subspace, sup: Subspace):
    """Canonical coset representatives for sup/sub, ascending pivot order.

    The representatives are the echelon rows of sup whose pivots are not
    pivots of sub; their classes form a basis of the quotient.
    """
    return [_box(sup.ctx, row) for row in _quotient_reps(sub, sup)[0]]


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    return len(_quotient_reps(sub, sup)[0])


def _quotient_coords(sub: Subspace, reps, lead, vecs):
    """Raw coordinates of each raw vector in ``vecs`` mod ``sub``, with
    ``reps`` the raw representatives and ``lead`` their leading columns."""
    p = sub.ctx.modulus
    out = []
    for vec in vecs:
        vec = sub._remainder(vec)
        coeffs = [vec[j] for j in lead]
        if any(_reduce(p, reps, lead, vec)):
            raise NotContained("vector outside sub + span(reps)")
        out.append(coeffs)
    return out


def quotient_coords(sub: Subspace, reps, vec):
    """Coordinates of ``vec`` mod ``sub`` w.r.t. quotient representatives.

    ``reps`` are the rows ``quotient_basis(sub, sup)`` returns, in any order:
    RREF rows of ``sup`` with leading entry 1, each zero at the leading
    columns of the others and at the pivots of ``sub``.  ``vec`` is reduced by
    ``sub``, then by ``reps`` at their leading columns; the multipliers of
    that second pass are returned.  A non-zero remainder means ``vec`` lies
    outside sub + span(reps) and raises ``NotContained``.
    """
    ctx = sub.ctx
    reps = [_unbox(ctx, row) for row in reps]
    lead = [next(j for j, x in enumerate(row) if x) for row in reps]
    return _box(ctx, _quotient_coords(sub, reps, lead, [_unbox(ctx, vec)])[0])


def all_subspaces(ctx: FieldCtx, ambient_dim: int):
    """Every subspace of k^ambient_dim (tiny prime fields only)."""
    if ctx.kind != "Fp":
        raise ValueError("enumeration needs a finite field")
    vectors = [[]]
    for _ in range(ambient_dim):
        vectors = [v + [x] for v in vectors for x in ctx.elements()]
    seen = set()
    out = []
    from itertools import combinations

    nonzero = [v for v in vectors if any(not x.is_zero() for x in v)]
    for r in range(ambient_dim + 1):
        for combo in combinations(nonzero, r):
            s = Subspace.from_rows(ctx, ambient_dim, list(combo))
            if s.dim == r and s not in seen:
                seen.add(s)
                out.append(s)
    return out
