"""Deterministic sparse linear algebra over an exact field.

Matrices and subspaces store each row as a dict ``{column: nonzero raw
value}`` (over Q the canonical form of ``fields._canon``, an ``int`` when
integral and a ``Fraction`` otherwise; over F_p an int in ``[0, p)``): no zero
is stored, every key lies in ``[0, cols)``, and equality and hashing read the
sorted items.  The kernel iterates nonzeros only, with one branch per field;
where the F_p branch reduces ``% p``, the Q branch makes the value canonical.
Over Q an entry that is an int on every side stays int arithmetic, and any
other is computed on numerators and denominators and reduced by one gcd in
``fields._frac``, never through ``Fraction`` operators.
Values are checked and unboxed where they enter, each by ``_unbox``
(``Matrix``, ``from_rows``, ``contains_vector``), and leave as dense rows of
``Scalar`` (``entries``, ``row_list``); values the kernel computes itself are
not checked again.

A subspace is its pivot map ``_at``: each pivot column mapped to its reduced
row echelon row, in ascending pivot order.  That is a canonical form, so two
subspaces are equal iff their maps are equal, and the pivots, the dimension
and the ``basis`` matrix are all read off it.  Quotient bases are fixed by
echelon completion, so every downstream determinant-line scalar is
reproducible run to run.

Two builders run an elimination, each at most one, through ``_rref_rows``:
``Subspace.from_rows``, the span of a caller's rows, and ``_meet``, the one
Zassenhaus elimination, behind the lattice meet, which leaves the meet in
echelon form and skips it when one operand contains the other.
Builders whose rows are already in reduced echelon form fill a pivot map
directly, and membership, quotient dimensions and quotient coordinates
reduce against the stored echelon rows instead of solving a system.

``_rref_rows`` takes its rows sparsest first, whatever order the caller
builds them in, to keep the fill-in low; the RREF of a span is unique, so the
order changes only the work, never the pivot map.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter, index

from .errors import AmbientMismatch, FieldMismatch, NonSquare, NotContained
from .fields import FieldCtx, Scalar, _Value, _frac, _inv, _mul, _neg, _reduced

# Row kernels on sparse raw rows; ``p`` is the field's modulus, None over Q.
# They keep ``% p`` and the int case inline, as one function call per entry
# would dominate.  Over Q any other entry is computed on numerators and
# denominators and made canonical by one ``_frac``: its one gcd replaces the
# two Fractions and four gcds of ``Fraction`` operators.


def _submul(p, vec, f, row):
    """``vec -= f * row`` in place; an entry that cancels is deleted."""
    get = vec.get
    if p is not None:
        for j, r in row.items():
            x = (get(j, 0) - f * r) % p
            if x:
                vec[j] = x
            else:
                del vec[j]
        return
    for j, r in row.items():
        a = get(j, 0)
        if type(a) is int is type(r) is type(f):
            x = a - f * r
        else:
            d = f.denominator * r.denominator
            x = _frac(a.numerator * d - f.numerator * r.numerator * a.denominator, d * a.denominator)
        if x:
            vec[j] = x
        else:
            del vec[j]


def _scale(p, c, row):
    if p is not None:
        return {j: c * x % p for j, x in row.items()}
    n, d = c.numerator, c.denominator
    return {j: _frac(n * x.numerator, d * x.denominator) for j, x in row.items()}


def _box(ctx: FieldCtx, cols: int, row):
    """A sparse raw row as a dense list of ``cols`` Scalars."""
    return [Scalar(ctx, row.get(j, 0)) for j in range(cols)]


def _unbox(ctx: FieldCtx, vec):
    """A caller's dense vector as a sparse raw row, each entry checked."""
    out = {}
    for j, x in enumerate(vec):
        x = ctx.raw(x)
        if x:
            out[j] = x
    return out


class Matrix(_Value):
    """An immutable matrix over ``ctx``; ``_data`` holds its sparse raw rows."""

    __slots__ = ("ctx", "rows", "cols", "_data")
    _fields = attrgetter("ctx", "rows", "cols", "_data")

    def __init__(self, ctx: FieldCtx, rows: int, cols: int, entries):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count %d != %d x %d" % (len(entries), rows, cols))
        self._fill(ctx, cols, [_unbox(ctx, entries[i * cols : (i + 1) * cols]) for i in range(rows)])

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

    @classmethod
    def from_rows(cls, ctx: FieldCtx, rows) -> "Matrix":
        rows = [list(row) for row in rows]
        data = [_unbox(ctx, row) for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        return cls._raw(ctx, ncols, data)

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "Matrix":
        return cls._raw(ctx, n, [{i: 1} for i in range(n)])

    @property
    def entries(self):
        return tuple(x for row in self.row_list() for x in row)

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
            out.append(_reduced(p, acc))
        return Matrix._raw(self.ctx, other.cols, out)

    def __hash__(self):
        return hash((self.ctx, self.rows, self.cols, tuple(tuple(sorted(row.items())) for row in self._data)))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.row_list())
        return "Matrix[%s]" % body


def _rref_rows(ctx: FieldCtx, rows):
    """Gauss-Jordan on sparse raw rows; returns the pivot map of the nonzero
    RREF rows, ascending by pivot.

    Rows enter one at a time, fewest nonzeros first (a stable sort), so that
    a dense row does not fill in every row reduced after it: each is reduced
    by the rows so far, normalised at its leading column, and that new pivot
    is cleared from the earlier rows.  Only rows holding more than their
    pivot can have a nonzero there, so only those are visited.  RREF is
    unique, so the result equals column-by-column elimination of the rows in
    any order.  The input dicts are not modified.
    """
    p = ctx.modulus
    basis = {}  # pivot -> row; the rows are RREF among themselves
    wide = []  # pivots whose row holds more than its pivot
    for row in sorted(rows, key=len):
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
    return {c: basis[c] for c in sorted(basis)}


def det(m: Matrix) -> Scalar:
    """Determinant by sparse row echelon elimination.

    Each row is reduced by the stored row at its leading column until its
    leading column is a new one, and is stored there; a row that cancels
    makes the determinant 0.  Adding multiples of rows keeps the
    determinant, so it is the product of the leading entries, signed by the
    parity of the permutation of leading columns: of its inversions, counted
    as each row meets the stored rows that lead at a later column.  A row
    whose leading column is new is not reduced, so triangular input costs
    O(nonzeros).
    """
    if m.rows != m.cols:
        raise NonSquare("det of %dx%d" % (m.rows, m.cols))
    ctx, p = m.ctx, m.ctx.modulus
    at, cols, inversions, acc = {}, [], 0, 1
    for vec in m._data:
        c = min(vec, default=None)
        if c in at:
            vec = dict(vec)
        while c in at:
            prow = at[c]
            _submul(p, vec, _mul(p, vec[c], _inv(p, prow[c])), prow)
            c = min(vec, default=None)
        if c is None:
            return ctx.zero()
        at[c] = vec
        k = bisect_right(cols, c)
        inversions += len(cols) - k
        cols.insert(k, c)
        acc = _mul(p, acc, vec[c])
    return Scalar(ctx, _neg(p, acc) if inversions % 2 else acc)


def _cut(rows, top):
    """Each row without its columns from ``top`` up."""
    return [{j: x for j, x in row.items() if j < top} for row in rows]


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


class Subspace(_Value):
    """A subspace of k^ambient_dim in canonical reduced echelon form.

    ``_at`` is its only store: it maps each pivot to its sparse raw RREF row
    and is filled in ascending pivot order.  The constructor takes such a map
    as it is and checks nothing; ``from_rows``, the one checked builder,
    spans a caller's rows and checks them and the ambient dimension."""

    __slots__ = ("ctx", "ambient_dim", "_at")
    _fields = attrgetter("ctx", "ambient_dim", "_at")

    def __init__(self, ctx: FieldCtx, ambient_dim: int, at):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_at", at)

    @classmethod
    def from_rows(cls, ctx: FieldCtx, ambient_dim: int, rows) -> "Subspace":
        ambient_dim = index(ambient_dim)
        if ambient_dim < 0:
            raise ValueError("ambient dimension %d is negative" % ambient_dim)
        m = Matrix.from_rows(ctx, rows)
        if m.rows and m.cols != ambient_dim:
            raise AmbientMismatch("basis cols %d != ambient %d" % (m.cols, ambient_dim))
        return cls(ctx, ambient_dim, _rref_rows(ctx, m._data))

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

    def __hash__(self):
        return hash((self.ctx, self.ambient_dim, tuple(tuple(sorted(row.items())) for row in self._at.values())))

    def __repr__(self):
        return "Subspace(dim %d of k^%d)" % (self.dim, self.ambient_dim)


def _meet(ctx: FieldCtx, a, b, top):
    """The pivot map of A ∩ B, A spanned by the RREF pivot map ``a`` and every
    unit from column ``top`` up, B by ``b``: one Zassenhaus elimination of
    [a | 0 ; b | b].  The [a | 0] rows are echelon, so they only reduce each
    left half, cut at ``top`` as A's units would.  If every left half reduces
    to zero, B <= A and the meet is ``b`` itself.  Otherwise the rows are
    eliminated once, each right half shifted past every left-half column; the
    rows of the result whose left half is zero are, on their right half,
    exactly the RREF rows of A ∩ B."""
    left = [_reduce(ctx.modulus, a, row) for row in _cut(b.values(), top)]
    if not any(left):
        return b
    off = top - next(iter(b))
    rows = [{**lo, **{j + off: x for j, x in row.items()}} for lo, row in zip(left, b.values())]
    at = _rref_rows(ctx, rows)
    return {c - off: {j - off: x for j, x in row.items()} for c, row in at.items() if c >= top}


def subspace_contains(a: Subspace, b: Subspace) -> bool:
    """Whether every vector of b lies in a."""
    a._check(b)
    return not any(a._remainder(row) for row in b._at.values())


def quotient_dim(sub: Subspace, sup: Subspace) -> int:
    """dim(sup/sub) for sub <= sup, as the pivots of sub are then pivots of
    sup; raises ``NotContained`` otherwise."""
    if not subspace_contains(sup, sub):
        raise NotContained("quotient needs sub <= sup")
    return sup.dim - sub.dim


def _quotient_coords(p, sub, at, vecs):
    """Sparse raw coordinates of each sparse raw vector in ``vecs`` modulo the
    span of the pivot map ``sub``: the multipliers of the representatives in
    the pivot map ``at``, in its order, after ``sub`` has reduced the vector.
    A non-zero remainder means the vector lies outside sub + span(reps) and
    raises ``NotContained``."""
    pos = {j: k for k, j in enumerate(at)}
    out = []
    for vec in vecs:
        vec = _reduce(p, sub, vec)
        out.append({pos[j]: x for j, x in vec.items() if j in pos})
        if _reduce(p, at, vec):
            raise NotContained("vector outside sub + span(reps)")
    return out
