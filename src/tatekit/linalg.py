"""Deterministic dense linear algebra over an exact field.

Matrices are immutable row-major grids of ``Scalar``.  Subspaces are stored
by their reduced row echelon basis, which is a canonical form: two subspaces
are equal iff their stored bases are equal row for row.  Quotient bases are
fixed by echelon completion, so every downstream determinant-line scalar is
reproducible run to run.

Only ``Subspace.from_rows`` (a ``Subspace`` built with ``pivots=None``) runs
an elimination, through ``rref``.  Builders whose rows are already in reduced
echelon form pass their pivots and skip it, and membership and quotient
coordinates reduce a vector against the stored echelon rows instead of
solving a system.
"""

from __future__ import annotations

from .errors import AmbientMismatch, FieldMismatch, NonSquare, NotContained
from .fields import FieldCtx, Scalar


class Matrix:
    __slots__ = ("ctx", "rows", "cols", "entries")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        for e in entries:
            if not isinstance(e, Scalar) or e.ctx != ctx:
                raise FieldMismatch("matrix entry outside %r" % (ctx,))
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Matrix":
        rows = [[ctx.scalar(x) for x in row] for row in rows]
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls(ctx, len(rows), ncols, [x for row in rows for x in row])

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        one, zero = ctx.one(), ctx.zero()
        return cls(ctx, n, n, [one if i == j else zero for i in range(n) for j in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def row_list(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ctx,
            self.cols,
            self.rows,
            [self[i, j] for j in range(self.cols) for i in range(self.rows)],
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise FieldMismatch("matrix product across fields")
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        zero = self.ctx.zero()
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    if not ri[k].is_zero():
                        acc = acc + ri[k] * other[k, j]
                out.append(acc)
        return Matrix(self.ctx, self.rows, other.cols, out)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx, self.rows, self.cols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return "Matrix[%s]" % body


def _rref_rows(ctx: FieldCtx, rows):
    """In-place style Gauss-Jordan on a list of row lists; returns pivots."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Matrix):
    """Reduced row echelon form of ``m`` along with its pivot columns."""
    rows, pivots = _rref_rows(m.ctx, m.row_list())
    return Matrix(m.ctx, m.rows, m.cols, [x for row in rows for x in row]), pivots


def det(m: Matrix) -> Scalar:
    """Determinant by fraction-preserving Gaussian elimination."""
    if m.rows != m.cols:
        raise NonSquare("det of %dx%d" % (m.rows, m.cols))
    n = m.rows
    if n == 0:
        return m.ctx.one()
    rows = m.row_list()
    sign = 1
    acc = m.ctx.one()
    for c in range(n):
        piv = None
        for i in range(c, n):
            if not rows[i][c].is_zero():
                piv = i
                break
        if piv is None:
            return m.ctx.zero()
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign = -sign
        acc = acc * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if not rows[i][c].is_zero():
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return acc if sign == 1 else -acc


def _reduce(rows, pivots, vec):
    """``vec`` minus the rows of an RREF basis, each taken at its pivot.

    The remainder is zero at every pivot, and zero everywhere iff ``vec``
    lies in the span of ``rows``.
    """
    vec = list(vec)
    for row, p in zip(rows, pivots):
        f = vec[p]
        if not f.is_zero():
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


class Subspace:
    """A subspace of k^ambient_dim in canonical reduced echelon form."""

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Matrix, pivots=None):
        if basis.cols != ambient_dim:
            raise AmbientMismatch("basis cols %d != ambient %d" % (basis.cols, ambient_dim))
        if pivots is None:
            basis, pivots = rref(basis)
            size = len(pivots) * ambient_dim
            if len(basis.entries) != size:
                basis = Matrix(basis.ctx, len(pivots), ambient_dim, basis.entries[:size])
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
    def zero(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix(ctx, 0, ambient_dim, ()), ())

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

    def contains_vector(self, vec) -> bool:
        return all(x.is_zero() for x in _reduce(self.rows(), self.pivots, vec))

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
    return Subspace.from_rows(a.ctx, a.ambient_dim, a.rows() + b.rows())


def nullspace(m: Matrix):
    """Basis rows of {x : m x = 0}, echelon over the free columns."""
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    out = []
    for f in free:
        vec = [m.ctx.zero()] * m.cols
        vec[f] = m.ctx.one()
        for r, c in enumerate(pivots):
            vec[c] = -red[r, f]
        out.append(vec)
    return out


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    a._check(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ctx, a.ambient_dim)
    stacked = Matrix.from_rows(a.ctx, a.rows() + b.rows())
    vecs = []
    for x in nullspace(stacked.transpose()):
        alpha = x[: a.dim]
        vec = [a.ctx.zero()] * a.ambient_dim
        for coef, row in zip(alpha, a.rows()):
            if not coef.is_zero():
                vec = [v + coef * r for v, r in zip(vec, row)]
        vecs.append(vec)
    return Subspace.from_rows(a.ctx, a.ambient_dim, vecs)


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """Whether every vector of b lies in a."""
    a._check(b)
    return all(a.contains_vector(row) for row in b.rows())


def quotient_basis(sub: Subspace, sup: Subspace):
    """Canonical coset representatives for sup/sub, ascending pivot order.

    The representatives are the echelon rows of sup whose pivots are not
    pivots of sub; their classes form a basis of the quotient.
    """
    sub._check(sup)
    if not subspace_contains(sup, sub):
        raise NotContained("quotient needs sub <= sup")
    sub_piv = set(sub.pivots)
    return [row for row, piv in zip(sup.rows(), sup.pivots) if piv not in sub_piv]


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    return len(quotient_basis(sub, sup))


def quotient_coords(sub: Subspace, reps, vec):
    """Coordinates of ``vec`` mod ``sub`` w.r.t. quotient representatives.

    ``reps`` are the rows ``quotient_basis(sub, sup)`` returns, in any order:
    RREF rows of ``sup`` with leading entry 1, each zero at the leading
    columns of the others and at the pivots of ``sub``.  ``vec`` is reduced by
    ``sub``, then by ``reps`` at their leading columns; the multipliers of
    that second pass are returned.  A non-zero remainder means ``vec`` lies
    outside sub + span(reps) and raises ``NotContained``.
    """
    vec = _reduce(sub.rows(), sub.pivots, vec)
    lead = [next(j for j, x in enumerate(row) if not x.is_zero()) for row in reps]
    coeffs = [vec[j] for j in lead]
    if not all(x.is_zero() for x in _reduce(reps, lead, vec)):
        raise NotContained("vector outside sub + span(reps)")
    return coeffs


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
