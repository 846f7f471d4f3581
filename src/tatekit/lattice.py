"""Lattices in the Sato Grassmannian of V = k((t))^n.

A lattice is an open bounded k-subspace L with t^a O^n <= L <= t^-b O^n
(O = k[[t]]).  It is stored as the pair of tight bounds (a, b) plus the
finite-dimensional subspace W = L / t^a O^n of the window quotient
t^-b O^n / t^a O^n.  Window slots are the monomials t^e e_i ordered by
(exponent ascending, coordinate ascending), so W's echelon form is canonical
and lattice equality is literal equality of the stored data.

Bounds are re-tightened after every operation: a is the least integer with
t^a O^n <= L, and b the least with L <= t^-b O^n.  Windows are dense, so no
window may exceed ``MAX_WINDOW_DIM`` slots; a larger one raises
``WindowTooLarge`` before its rows are allocated.
"""

from __future__ import annotations

from functools import reduce

from .errors import FieldMismatch, NotContained, NotNested, SpaceMismatch, WindowTooLarge
from .fields import FieldCtx
from .laurent import Automorphism, LaurentPoly
from .linalg import Matrix, Subspace, _quotient_reps, subspace_contains, subspace_intersect, subspace_sum

MAX_WINDOW_DIM = 1024


class TateSpace:
    """The elementary Tate vector space k((t))^n."""

    __slots__ = ("ctx", "rank")

    def __init__(self, ctx: FieldCtx, rank: int):
        if rank < 1:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):
        raise AttributeError("TateSpace is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TateSpace)
            and self.ctx == other.ctx
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.ctx, self.rank))

    def __repr__(self):
        if self.rank == 1:
            return "%r((t))" % self.ctx
        return "%r((t))^%d" % (self.ctx, self.rank)


def _slot(space: TateSpace, a: int, b: int, e: int, i: int) -> int:
    return (e + b) * space.rank + i


def _window_dim(space: TateSpace, a: int, b: int) -> int:
    """Dimension of the window t^-b O^n / t^a O^n, at most MAX_WINDOW_DIM."""
    dim = space.rank * (a + b)
    if dim > MAX_WINDOW_DIM:
        raise WindowTooLarge("window dimension %d exceeds the cap MAX_WINDOW_DIM=%d" % (dim, MAX_WINDOW_DIM))
    return dim


def _echelon(ctx: FieldCtx, dim: int, rows, pivots, units=()) -> Subspace:
    """The span of raw RREF ``rows`` and of the unit rows at the later slots ``units``."""
    zero, one = ctx.raw_zero, ctx.raw_one
    rows = list(rows)
    for s in units:
        unit = [zero] * dim
        unit[s] = one
        rows.append(unit)
    return Subspace(dim, Matrix._raw(ctx, dim, rows), [*pivots, *units])


def row_to_vec(space: TateSpace, a: int, b: int, row):
    """Window coordinate row -> tuple of LaurentPoly coordinates.

    The row holds raw field values or Scalars; ``LaurentPoly`` coerces either.
    """
    polys = [dict() for _ in range(space.rank)]
    for s, c in enumerate(row):
        if not c:  # a raw zero; a zero Scalar is dropped by LaurentPoly
            continue
        e, i = divmod(s, space.rank)
        polys[i][e - b] = c
    return tuple(LaurentPoly(space.ctx, p) for p in polys)


def vec_to_row(space: TateSpace, a: int, b: int, vec):
    """LaurentPoly coordinates -> raw window row, reducing modulo t^a O^n."""
    row = [space.ctx.raw_zero] * (space.rank * (a + b))
    for i, poly in enumerate(vec):
        if poly.ctx != space.ctx:
            raise FieldMismatch("coordinate over %r in %r" % (poly.ctx, space))
        for e, c in poly.terms.items():
            if e >= a:
                continue  # inside t^a O^n, dies in the window quotient
            if e < -b:
                raise ValueError("vector outside t^-%d O^n window" % b)
            row[_slot(space, a, b, e, i)] = c.value
    return row


class Lattice:
    """An open bounded subspace of k((t))^n, in normalized window form."""

    __slots__ = ("space", "a", "b", "subspace")

    def __init__(self, space: TateSpace, a: int, b: int, subspace: Subspace):
        if a + b < 0:
            raise ValueError("window bounds a=%d, b=%d overlap" % (a, b))
        dim = _window_dim(space, a, b)
        if subspace.ambient_dim != dim:
            raise ValueError("subspace ambient %d != window dim %d" % (subspace.ambient_dim, dim))
        a, b, subspace = _normalize(space, a, b, subspace)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "subspace", subspace)

    def __setattr__(self, *a):
        raise AttributeError("Lattice is immutable")

    @classmethod
    def std(cls, space: TateSpace, shifts) -> "Lattice":
        """The lattice ⊕_i t^shifts[i] O."""
        if isinstance(shifts, int):
            shifts = [shifts] * space.rank
        shifts = list(shifts)
        if len(shifts) != space.rank:
            raise ValueError("need one shift per coordinate")
        a, b = max(shifts), -min(shifts)
        dim = _window_dim(space, a, b)
        units = [_slot(space, a, b, e, i) for e in range(-b, a) for i in range(space.rank) if e >= shifts[i]]
        return cls(space, a, b, _echelon(space.ctx, dim, [], [], units))

    @property
    def ctx(self):
        return self.space.ctx

    def window_subspace(self, a2: int, b2: int) -> Subspace:
        """This lattice as a subspace of the larger window (a2, b2)."""
        if a2 < self.a or b2 < self.b:
            raise ValueError("window must contain (%d, %d)" % (self.a, self.b))
        if a2 == self.a and b2 == self.b:
            return self.subspace
        dim2 = _window_dim(self.space, a2, b2)
        # Shifted echelon rows, then the units of the new top blocks: still RREF.
        shift = (b2 - self.b) * self.space.rank
        zero = self.ctx.raw_zero
        head, pad = [zero] * shift, [zero] * (dim2 - shift - self.subspace.ambient_dim)
        rows = [head + row + pad for row in self.subspace.basis._data]
        pivots = [p + shift for p in self.subspace.pivots]
        return _echelon(self.ctx, dim2, rows, pivots, range(_slot(self.space, a2, b2, self.a, 0), dim2))

    def basis_vectors(self):
        """Representative Laurent vectors of L modulo t^a O^n."""
        return [
            row_to_vec(self.space, self.a, self.b, row)
            for row in self.subspace.basis._data
        ]

    def contains_vector(self, vec) -> bool:
        """Membership of a Laurent polynomial vector."""
        exps = [e for poly in vec for e in poly.terms]
        lo = min(exps, default=0)
        b2 = max(self.b, -lo)
        w = self.window_subspace(self.a, b2)
        return w.contains_vector(vec_to_row(self.space, self.a, b2, vec))

    def to_json_dict(self) -> dict:
        return {
            "rank": self.space.rank,
            "a": self.a,
            "b": self.b,
            "basis": [[str(c) for c in row] for row in self.subspace.rows()],
        }

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.space == other.space
            and self.a == other.a
            and self.b == other.b
            and self.subspace == other.subspace
        )

    def __hash__(self):
        return hash((self.space, self.a, self.b, self.subspace))

    def __repr__(self):
        return "Lattice(a=%d, b=%d, dim W=%d)" % (self.a, self.b, self.subspace.dim)


def lattice_from_json(ctx: FieldCtx, data: dict) -> Lattice:
    space = TateSpace(ctx, data["rank"])
    a, b = data["a"], data["b"]
    dim = space.rank * (a + b)
    return Lattice(space, a, b, Subspace.from_rows(ctx, dim, data["basis"]))


def _normalize(space, a, b, subspace):
    """Tight bounds read off the RREF pivots of W; slicing keeps the RREF.

    b drops the leading blocks below the first pivot.  a drops the trailing
    blocks whose slots are all pivots, which in RREF is exactly the condition
    that W contains t^(a-1) O^n.
    """
    n, dim, piv = space.rank, subspace.ambient_dim, subspace.pivots
    low = piv[0] // n if piv else a + b
    run = 0
    while run < len(piv) and piv[-1 - run] == dim - 1 - run:
        run += 1
    high = run // n
    if not low and not high:
        return a, b, subspace
    keep = len(piv) - high * n
    rows = [row[low * n : dim - high * n] for row in subspace.basis._data[:keep]]
    pivots = [p - low * n for p in piv[:keep]]
    return a - high, b - low, _echelon(space.ctx, dim - (low + high) * n, rows, pivots)


def common_window(*lattices):
    """(a, b, subspaces): the smallest window holding all the lattices, which
    must share one space, and each lattice as a subspace of it."""
    space = lattices[0].space
    for L in lattices[1:]:
        if L.space != space:
            raise SpaceMismatch("%r vs %r" % (space, L.space))
    a = max(L.a for L in lattices)
    b = max(L.b for L in lattices)
    return a, b, [L.window_subspace(a, b) for L in lattices]


def leq(L: Lattice, M: Lattice) -> bool:
    """Whether L <= M in the Sato Grassmannian order."""
    _, _, (wl, wm) = common_window(L, M)
    return subspace_contains(wm, wl)


def join(L: Lattice, M: Lattice) -> Lattice:
    a, b, (wl, wm) = common_window(L, M)
    return Lattice(L.space, a, b, subspace_sum(wl, wm))


def meet(L: Lattice, M: Lattice) -> Lattice:
    a, b, (wl, wm) = common_window(L, M)
    return Lattice(L.space, a, b, subspace_intersect(wl, wm))


def join_all(lattices) -> Lattice:
    return reduce(join, lattices)


def meet_all(lattices) -> Lattice:
    return reduce(meet, lattices)


class LatticeQuotient:
    """The finite quotient M/L with its canonical ordered basis.

    Representatives are the echelon completion of L inside M, in ascending
    pivot order; they are raw window rows together with the window they live in.
    The choice is window-independent, so downstream scalars are stable.
    """

    __slots__ = ("space", "a", "b", "reps")

    def __init__(self, space, a, b, reps):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "reps", reps)

    def __setattr__(self, *a):
        raise AttributeError("LatticeQuotient is immutable")

    @property
    def dim(self) -> int:
        return len(self.reps)

    def rep_vectors(self):
        return [row_to_vec(self.space, self.a, self.b, r) for r in self.reps]


def quotient(L: Lattice, M: Lattice) -> LatticeQuotient:
    """The quotient M/L for L <= M; raises ``NotNested`` otherwise."""
    a, b, (wl, wm) = common_window(L, M)
    try:
        reps, _ = _quotient_reps(wl, wm)
    except NotContained:
        raise NotNested("quotient needs L <= M") from None
    return LatticeQuotient(L.space, a, b, reps)


def quotient_dim_lattices(L: Lattice, M: Lattice) -> int:
    return quotient(L, M).dim


def act(g: Automorphism, L: Lattice) -> Lattice:
    """The image lattice g L, renormalized."""
    space = L.space
    if g.ctx != space.ctx or g.rank != space.rank:
        raise SpaceMismatch("automorphism of rank %d on %r" % (g.rank, space))
    vg, vginv = g.valuations()
    a2, b2 = L.a - vginv, L.b - vg
    dim = _window_dim(space, a2, b2)
    vecs = L.basis_vectors()
    # t^e e_i with L.a <= e < a2 - v(g) lies in t^a O^n, outside the window
    # basis, yet its image can reach below t^a2; the range is empty for MultBy.
    n, zero = space.rank, LaurentPoly.zero(space.ctx)
    for e in range(L.a, a2 - vg):
        for i in range(n):
            vecs.append([LaurentPoly.t(space.ctx, e) if j == i else zero for j in range(n)])
    rows = [vec_to_row(space, a2, b2, img) for img in g.image(vecs, a2)]
    return Lattice(space, a2, b2, Subspace._span(space.ctx, dim, rows))


class LatticeChain:
    """A nested chain L_0 <= L_1 <= ... <= L_k."""

    __slots__ = ("space", "lattices")

    def __init__(self, space: TateSpace, lattices):
        lattices = tuple(lattices)
        for L in lattices:
            if L.space != space:
                raise SpaceMismatch("chain member on %r" % (L.space,))
        for L, M in zip(lattices, lattices[1:]):
            if not leq(L, M):
                raise NotNested("chain is not nested")
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "lattices", lattices)

    def __setattr__(self, *a):
        raise AttributeError("LatticeChain is immutable")

    def __len__(self):
        return len(self.lattices)

    def __getitem__(self, i):
        return self.lattices[i]

    def quotient_dims(self):
        return [
            quotient_dim_lattices(L, M)
            for L, M in zip(self.lattices, self.lattices[1:])
        ]


def std_lattice(space: TateSpace, shifts) -> Lattice:
    return Lattice.std(space, shifts)
