"""Lattices in the Sato Grassmannian of V = k((t))^n.

A lattice is an open bounded k-subspace L with t^a O^n <= L <= t^-b O^n
(O = k[[t]]).  It is stored as the pair of tight bounds (a, b) plus the
finite-dimensional subspace W = L / t^a O^n of the window quotient
t^-b O^n / t^a O^n.  Window slots are the monomials t^e e_i ordered by
(exponent ascending, coordinate ascending), so W's echelon form is canonical
and lattice equality is literal equality of the stored data.

Bounds are re-tightened after every operation: a is the least integer with
t^a O^n <= L, and b the least with L <= t^-b O^n.
"""

from __future__ import annotations

from .errors import NotNested, SpaceMismatch
from .fields import FieldCtx
from .laurent import Automorphism, LaurentPoly
from .linalg import Subspace, quotient_basis, subspace_contains, subspace_intersect, subspace_sum


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


def row_to_vec(space: TateSpace, a: int, b: int, row):
    """Window coordinate row -> tuple of LaurentPoly coordinates."""
    polys = [dict() for _ in range(space.rank)]
    for s, c in enumerate(row):
        if c.is_zero():
            continue
        e, i = divmod(s, space.rank)
        polys[i][e - b] = c
    return tuple(LaurentPoly(space.ctx, p) for p in polys)


def vec_to_row(space: TateSpace, a: int, b: int, vec):
    """LaurentPoly coordinates -> window row, reducing modulo t^a O^n."""
    row = [space.ctx.zero()] * (space.rank * (a + b))
    for i, poly in enumerate(vec):
        for e, c in poly.terms.items():
            if e >= a:
                continue  # inside t^a O^n, dies in the window quotient
            if e < -b:
                raise ValueError("vector outside t^-%d O^n window" % b)
            row[_slot(space, a, b, e, i)] = c
    return row


class Lattice:
    """An open bounded subspace of k((t))^n, in normalized window form."""

    __slots__ = ("space", "a", "b", "subspace")

    def __init__(self, space: TateSpace, a: int, b: int, subspace: Subspace):
        n = space.rank
        if a + b < 0:
            raise ValueError("window bounds a=%d, b=%d overlap" % (a, b))
        if subspace.ambient_dim != n * (a + b):
            raise ValueError("subspace ambient %d != window dim %d" % (subspace.ambient_dim, n * (a + b)))
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
        rows = []
        dim = space.rank * (a + b)
        for e in range(-b, a):
            for i in range(space.rank):
                if e >= shifts[i]:
                    row = [space.ctx.zero()] * dim
                    row[_slot(space, a, b, e, i)] = space.ctx.one()
                    rows.append(row)
        return cls(space, a, b, Subspace.from_rows(space.ctx, dim, rows))

    @property
    def ctx(self):
        return self.space.ctx

    def window_subspace(self, a2: int, b2: int) -> Subspace:
        """This lattice as a subspace of the larger window (a2, b2)."""
        if a2 < self.a or b2 < self.b:
            raise ValueError("window must contain (%d, %d)" % (self.a, self.b))
        n = self.space.rank
        dim2 = n * (a2 + b2)
        rows = []
        shift = (b2 - self.b) * n
        for row in self.subspace.rows():
            new = [self.ctx.zero()] * dim2
            for s, c in enumerate(row):
                new[s + shift] = c
            rows.append(new)
        for e in range(self.a, a2):
            for i in range(n):
                new = [self.ctx.zero()] * dim2
                new[_slot(self.space, a2, b2, e, i)] = self.ctx.one()
                rows.append(new)
        return Subspace.from_rows(self.ctx, dim2, rows)

    def basis_vectors(self):
        """Representative Laurent vectors of L modulo t^a O^n."""
        return [
            row_to_vec(self.space, self.a, self.b, row)
            for row in self.subspace.rows()
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
    sub = Subspace.from_rows(ctx, dim, [[ctx.scalar(c) for c in row] for row in data["basis"]])
    return Lattice(space, a, b, sub)


def _normalize(space, a, b, subspace):
    n = space.rank
    ctx = space.ctx
    # Tighten b: drop the bottom exponent block while no basis vector meets it.
    while a + b > 0:
        rows = subspace.rows()
        if any(not row[s].is_zero() for row in rows for s in range(n)):
            break
        b -= 1
        dim = n * (a + b)
        subspace = Subspace.from_rows(ctx, dim, [row[n:] for row in rows])
    # Tighten a: absorb the top exponent block while it lies inside W.
    while a + b > 0:
        dim = n * (a + b)
        units = []
        for i in range(n):
            u = [ctx.zero()] * dim
            u[_slot(space, a, b, a - 1, i)] = ctx.one()
            units.append(u)
        if not all(subspace.contains_vector(u) for u in units):
            break
        a -= 1
        keep = [
            row[: n * (a + b)]
            for row in subspace.rows()
            if any(not c.is_zero() for c in row[: n * (a + b)])
        ]
        subspace = Subspace.from_rows(ctx, n * (a + b), keep)
    return a, b, subspace


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
    out = lattices[0]
    for x in lattices[1:]:
        out = join(out, x)
    return out


def meet_all(lattices) -> Lattice:
    out = lattices[0]
    for x in lattices[1:]:
        out = meet(out, x)
    return out


class LatticeQuotient:
    """The finite quotient M/L with its canonical ordered basis.

    Representatives are the echelon completion of L inside M, in ascending
    pivot order; they are window rows together with the window they live in.
    The choice is window-independent, so downstream scalars are stable.
    """

    __slots__ = ("space", "a", "b", "sub_window", "reps")

    def __init__(self, space, a, b, sub_window: Subspace, reps):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "sub_window", sub_window)
        object.__setattr__(self, "reps", reps)

    def __setattr__(self, *a):
        raise AttributeError("LatticeQuotient is immutable")

    @property
    def dim(self) -> int:
        return len(self.reps)

    def rep_vectors(self):
        return [row_to_vec(self.space, self.a, self.b, r) for r in self.reps]


def quotient(L: Lattice, M: Lattice) -> LatticeQuotient:
    """The quotient M/L for L <= M."""
    a, b, (wl, wm) = common_window(L, M)
    if not subspace_contains(wm, wl):
        raise NotNested("quotient needs L <= M")
    return LatticeQuotient(L.space, a, b, wl, quotient_basis(wl, wm))


def quotient_dim_lattices(L: Lattice, M: Lattice) -> int:
    return quotient(L, M).dim


def act(g: Automorphism, L: Lattice) -> Lattice:
    """The image lattice g L, renormalized."""
    space = L.space
    if g.ctx != space.ctx or g.rank != space.rank:
        raise SpaceMismatch("automorphism of rank %d on %r" % (g.rank, space))
    vg, vginv = g.valuations()
    a2, b2 = L.a - vginv, L.b - vg
    vecs = L.basis_vectors()
    # t^e e_i with L.a <= e < a2 - v(g) lies in t^a O^n, outside the window
    # basis, yet its image can reach below t^a2; the range is empty for MultBy.
    n, zero = space.rank, LaurentPoly.zero(space.ctx)
    for e in range(L.a, a2 - vg):
        for i in range(n):
            vecs.append([LaurentPoly.t(space.ctx, e) if j == i else zero for j in range(n)])
    rows = [vec_to_row(space, a2, b2, img) for img in g.image(vecs, a2)]
    sub = Subspace.from_rows(space.ctx, space.rank * (a2 + b2), rows)
    return Lattice(space, a2, b2, sub)


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
