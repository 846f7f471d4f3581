"""Deterministic sparse linear algebra over an exact field.

Matrices and subspaces store each row as a dict ``{column: nonzero raw
value}`` (a ``Fraction`` over Q, an int in ``[0, p)`` over F_p): no zero is
stored, every key lies in ``[0, cols)``, and equality and hashing read the
sorted items.  The kernel iterates nonzeros only, with one branch per field.
Values are checked and unboxed where they enter (``Matrix``, ``from_rows``,
``contains_vector``) and leave as dense rows of ``Scalar`` (``entries``,
``m[i, j]``, ``row_list``, ``Subspace.rows``, ``quotient_basis``); values the
kernel computes itself are not checked again.

A subspace is its pivot map ``_at``: each pivot column mapped to its reduced
row echelon row, in ascending pivot order.  That is a canonical form, so two
subspaces are equal iff their maps are equal, and the pivots, the dimension,
the boxed rows and the ``basis`` matrix are all read off it.  Quotient bases
are fixed by echelon completion, so every downstream determinant-line scalar
is reproducible run to run.

Three builders run an elimination, each at most one, through ``rref``:
``Subspace.from_rows`` and ``Subspace._span`` (as ``subspace_sum`` builds its
span), and ``subspace_intersect``, whose Zassenhaus elimination leaves the
meet in echelon form and which skips it when one operand contains the other.
Builders whose rows are already in reduced echelon form fill a pivot map
directly, and membership and quotient coordinates reduce a vector against the
stored echelon rows instead of solving a system.
"""

from __future__ import annotations

from .errors import AmbientMismatch, FieldMismatch, NonSquare, NotContained
from .fields import FieldCtx, Scalar, _inv, _mul, _neg

# Row kernels on sparse raw rows; ``p`` is the field's modulus, None over Q.
# They keep ``% p`` inline: one function call per entry would dominate.


def _submul(p, vec, f, row):
    """``vec -= f * row`` in place; an entry that cancels is deleted."""
    get = vec.get
    for j, r in row.items():
        x = get(j, 0) - f * r
        if p is not None:
            x %= p
        if x:
            vec[j] = x
        else:
            del vec[j]


def _scale(p, c, row):
    if p is None:
        return {j: c * x for j, x in row.items()}
    return {j: c * x % p for j, x in row.items()}


def _box(ctx: FieldCtx, cols: int, row):
    """A sparse raw row as a dense list of ``cols`` Scalars."""
    zero = ctx.raw_zero
    return [Scalar(ctx, row.get(j, zero)) for j in range(cols)]


def _unbox(ctx: FieldCtx, vec):
    """A caller's dense vector as a sparse raw row, each entry checked."""
    out = {}
    for j, x in enumerate(vec):
        x = ctx.raw(x)
        if x:
            out[j] = x
    return out


class Matrix:
    """An immutable matrix over ``ctx``; ``_data`` holds its sparse raw rows."""

    __slots__ = ("ctx", "rows", "cols", "_data")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        for e in entries:
            if not isinstance(e, Scalar) or e.ctx != ctx:
                raise FieldMismatch("matrix entry outside %r" % (ctx,))
        data = [
            {j: e.value for j, e in enumerate(entries[i * cols : (i + 1) * cols]) if e.value}
            for i in range(rows)
        ]
        self._fill(ctx, cols, data)

    def _fill(self, ctx, cols, data):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_data", tuple(data))

    @classmethod
    def _raw(cls, ctx: FieldCtx, cols: int, data) -> "Matrix":
        """A matrix on sparse raw rows the kernel computed; nothing is checked."""
        m = object.__new__(cls)
        m._fill(ctx, cols, data)
        return m

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Matrix":
        rows = [list(row) for row in rows]
        data = [_unbox(ctx, row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != ncols:
                raise ValueError("ragged rows")
        return cls._raw(ctx, ncols, data)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        one = ctx.raw_one
        return cls._raw(ctx, n, [{i: one} for i in range(n)])

    @property
    def entries(self):
        return tuple(x for row in self.row_list() for x in row)

    def __getitem__(self, ij):
        i, j = ij
        if not -self.cols <= j < self.cols:
            raise IndexError("column %d of %d" % (j, self.cols))
        return Scalar(self.ctx, self._data[i].get(j % self.cols, self.ctx.raw_zero))

    def row_list(self):
        return [_box(self.ctx, self.cols, row) for row in self._data]

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ctx != other.ctx:
            raise FieldMismatch("matrix product across fields")
        if self.cols != other.rows:
            raise ValueError("shape mismatch %dx%d * %dx%d" % (self.rows, self.cols, other.rows, other.cols))
        p = self.ctx.modulus
        out = []
        for ri in self._data:
            acc = {}
            for k, x in ri.items():
                for j, y in other._data[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            if p is not None:
                acc = {j: v % p for j, v in acc.items()}
            out.append({j: v for j, v in acc.items() if v})
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
        return hash((self.ctx, self.rows, self.cols, tuple(tuple(sorted(row.items())) for row in self._data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.row_list())
        return "Matrix[%s]" % body


def _rref_rows(ctx: FieldCtx, rows):
    """Gauss-Jordan on sparse raw rows; returns (rows, pivots) of the nonzero
    RREF rows, ascending by pivot.

    Rows enter one at a time: each is reduced by the rows so far, normalised
    at its leading column, and that new pivot is cleared from the earlier
    rows.  Only rows holding more than their pivot can have a nonzero there,
    so only those are visited.  RREF is unique, so the result equals
    column-by-column elimination.  The input dicts are not modified.
    """
    p = ctx.modulus
    basis = {}  # pivot -> row; the rows are RREF among themselves
    wide = []  # pivots whose row holds more than its pivot
    for row in rows:
        vec = _reduce(p, basis, row)
        if not vec:
            continue
        c = min(vec)
        # A fresh dict: later pivots are cleared from the stored rows in place.
        vec = dict(vec) if vec[c] == 1 else _scale(p, _inv(p, vec[c]), vec)
        for d in wide:
            f = basis[d].get(c)
            if f:
                _submul(p, basis[d], f, vec)
        basis[c] = vec
        if len(vec) > 1:
            wide.append(c)
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def rref(m: Matrix):
    """Reduced row echelon form of ``m`` (zero rows last) and its pivot columns."""
    rows, pivots = _rref_rows(m.ctx, m._data)
    rows += [{} for _ in range(m.rows - len(rows))]
    return Matrix._raw(m.ctx, m.cols, rows), pivots


def det(m: Matrix) -> Scalar:
    """Determinant by fraction-preserving Gaussian elimination."""
    if m.rows != m.cols:
        raise NonSquare("det of %dx%d" % (m.rows, m.cols))
    ctx, p, n = m.ctx, m.ctx.modulus, m.rows
    rows = list(m._data)
    acc = ctx.raw_one
    for c in range(n):
        piv = next((i for i in range(c, n) if c in rows[i]), None)
        if piv is None:
            return ctx.zero()
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            acc = _neg(p, acc)
        prow = rows[c]
        lead = prow[c]
        acc = _mul(p, acc, lead)
        inv = _inv(p, lead)
        for i in range(c + 1, n):
            x = rows[i].get(c)
            if x:
                rows[i] = dict(rows[i])
                _submul(p, rows[i], _mul(p, x, inv), prow)
    return Scalar(ctx, acc)


def _reduce(p, at, vec):
    """``vec`` minus the rows of an RREF basis, each taken at its pivot;
    ``at`` maps each pivot to its row.

    A row is zero at the other pivots, so only the pivots ``vec`` holds are
    visited.  The remainder is zero at every pivot, and empty iff ``vec``
    lies in the span.  ``vec`` itself is not modified.
    """
    hits = [c for c in vec if c in at]
    if not hits:
        return vec
    vec = dict(vec)
    for c in hits:
        _submul(p, vec, vec[c], at[c])
    return vec


class Subspace:
    """A subspace of k^ambient_dim in canonical reduced echelon form.

    ``_at`` is its only store: it maps each pivot to its sparse raw RREF row
    and is filled in ascending pivot order.  The constructor takes such a map
    as it is and checks nothing; ``from_rows`` spans arbitrary rows."""

    __slots__ = ("ctx", "ambient_dim", "_at")

    def __init__(self, ctx: FieldCtx, ambient_dim: int, at):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_at", at)

    def __setattr__(self, *a):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, ctx: FieldCtx, ambient_dim: int, rows) -> "Subspace":
        m = Matrix.from_rows(ctx, rows)
        if m.rows and m.cols != ambient_dim:
            raise AmbientMismatch("basis cols %d != ambient %d" % (m.cols, ambient_dim))
        return cls._span(ctx, ambient_dim, m._data)

    @classmethod
    def _span(cls, ctx: FieldCtx, ambient_dim: int, rows) -> "Subspace":
        """The span of sparse raw rows, by one elimination."""
        if not rows:
            return cls.zero(ctx, ambient_dim)
        red, pivots = rref(Matrix._raw(ctx, ambient_dim, rows))
        return cls(ctx, ambient_dim, dict(zip(pivots, red._data)))

    @classmethod
    def zero(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        return cls(ctx, ambient_dim, {})

    @classmethod
    def full(cls, ctx: FieldCtx, ambient_dim: int) -> "Subspace":
        one = ctx.raw_one
        return cls(ctx, ambient_dim, {i: {i: one} for i in range(ambient_dim)})

    @property
    def pivots(self):
        return tuple(self._at)

    @property
    def dim(self) -> int:
        return len(self._at)

    @property
    def basis(self) -> Matrix:
        """The echelon rows as a matrix, built on each call."""
        return Matrix._raw(self.ctx, self.ambient_dim, self._at.values())

    def rows(self):
        return [_box(self.ctx, self.ambient_dim, row) for row in self._at.values()]

    def _remainder(self, vec):
        return _reduce(self.ctx.modulus, self._at, vec)

    def _vector(self, vec):
        """A caller's vector of k^ambient_dim, unboxed."""
        if len(vec) != self.ambient_dim:
            raise AmbientMismatch("vector of length %d in k^%d" % (len(vec), self.ambient_dim))
        return _unbox(self.ctx, vec)

    def contains_vector(self, vec) -> bool:
        return not self._remainder(self._vector(vec))

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise AmbientMismatch("%d vs %d" % (self.ambient_dim, other.ambient_dim))
        if self.ctx != other.ctx:
            raise FieldMismatch("%r vs %r" % (self.ctx, other.ctx))

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient_dim == other.ambient_dim
            and self._at == other._at
        )

    def __hash__(self):
        return hash((self.ctx, self.ambient_dim, tuple(tuple(sorted(row.items())) for row in self._at.values())))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    a._check(b)
    return Subspace._span(a.ctx, a.ambient_dim, [*a._at.values(), *b._at.values()])


def subspace_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b by one Zassenhaus elimination of [a | 0 ; b | b], b the smaller.

    The [a | 0] rows are already echelon, so eliminating with them only
    reduces the left half of each [b | b] row by ``a``.  If every left half
    reduces to zero, b <= a and the meet is b, with no elimination.
    Otherwise ``rref`` runs on those rows alone; the rows of its result whose
    left half is zero are, on their right half, exactly the RREF rows of
    a ∩ b, with their pivots shifted by the ambient dimension: nothing is
    recombined or eliminated again.
    """
    a._check(b)
    ctx, n = a.ctx, a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(ctx, n)
    if b.dim > a.dim:
        a, b = b, a
    left = [a._remainder(row) for row in b._at.values()]
    if not any(left):
        return b
    rows = [{**lo, **{c + n: x for c, x in row.items()}} for lo, row in zip(left, b._at.values())]
    red, pivots = rref(Matrix._raw(ctx, 2 * n, rows))
    meet = zip(pivots, red._data)
    return Subspace(ctx, n, {c - n: {j - n: x for j, x in row.items()} for c, row in meet if c >= n})


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """Whether every vector of b lies in a."""
    a._check(b)
    return not any(a._remainder(row) for row in b._at.values())


def _quotient_reps(sub: Subspace, sup: Subspace):
    """(rows, pivots): the raw echelon rows of sup whose pivots are not
    pivots of sub, ascending.  Raises ``NotContained`` unless sub <= sup."""
    if not subspace_contains(sup, sub):
        raise NotContained("quotient needs sub <= sup")
    lead = [c for c in sup._at if c not in sub._at]
    return [sup._at[c] for c in lead], lead


def quotient_basis(sub: Subspace, sup: Subspace):
    """Canonical coset representatives for sup/sub, ascending pivot order.

    The representatives are the echelon rows of sup whose pivots are not
    pivots of sub; their classes form a basis of the quotient.
    """
    return [_box(sup.ctx, sup.ambient_dim, row) for row in _quotient_reps(sub, sup)[0]]


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    return len(_quotient_reps(sub, sup)[0])


def _quotient_coords(sub: Subspace, reps, lead, vecs):
    """Sparse raw coordinates of each sparse raw vector in ``vecs`` mod
    ``sub``, with ``reps`` the raw representatives and ``lead`` their leading
    columns: the multipliers of ``reps`` after ``sub`` has reduced the vector.
    A non-zero remainder means the vector lies outside sub + span(reps) and
    raises ``NotContained``."""
    p = sub.ctx.modulus
    at = dict(zip(lead, reps))
    pos = {j: k for k, j in enumerate(lead)}
    out = []
    for vec in vecs:
        vec = sub._remainder(vec)
        out.append({pos[j]: x for j, x in vec.items() if j in pos})
        if _reduce(p, at, vec):
            raise NotContained("vector outside sub + span(reps)")
    return out
