"""Lattices in the Sato Grassmannian of V = k((t))^n.

A lattice is an open bounded k-subspace L with t^a O^n <= L <= t^-b O^n
(O = k[[t]]).  It is stored as the pair of tight bounds (a, b) plus the
finite-dimensional subspace W = L / t^a O^n of the window quotient
t^-b O^n / t^a O^n.  Window slots are the monomials t^e e_i ordered by
(exponent ascending, coordinate ascending), so W's echelon form is canonical
and lattice equality is literal equality of the stored data.  Window rows are
the sparse ``{slot: nonzero raw value}`` rows of ``linalg``, held in W's
pivot map.  Embedding and normalising re-key and slice that map by a slot
offset and add unit rows, which keeps it in reduced echelon form: neither
eliminates, and no dense row is built.  ``act`` hands these rows to
``Automorphism.image`` as they are, with the source window's bottom, and
``row_to_vec`` reads them back as Laurent vectors.

Bounds are re-tightened after every operation: a is the least integer with
t^a O^n <= L, and b the least with L <= t^-b O^n.  No window may exceed
``MAX_WINDOW_DIM`` slots, a resource limit on the echelon rows a window can
hold; a larger one raises ``WindowTooLarge`` before its rows are built.

The virtual dimension ``vdim(L) = dim W - n*a`` is the dimension theory that
is 0 at O^n: dim(L/N) - dim(O^n/N) for any common sub-lattice N.  Every
lattice dimension is a difference of it, dim(M/L) = vdim(M) - vdim(L) for
L <= M, read off the stored bounds with no window and no elimination.
"""

from __future__ import annotations

from itertools import islice

from .errors import FieldMismatch, NotNested, SpaceMismatch, WindowTooLarge
from .fields import FieldCtx
from .laurent import Automorphism, LaurentPoly
from .linalg import Subspace, subspace_contains, subspace_intersect, subspace_sum

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


def _slot(space: TateSpace, b: int, e: int, i: int) -> int:
    return (e + b) * space.rank + i


def _window_dim(space: TateSpace, a: int, b: int) -> int:
    """Dimension of the window t^-b O^n / t^a O^n, at most MAX_WINDOW_DIM."""
    dim = space.rank * (a + b)
    if dim > MAX_WINDOW_DIM:
        raise WindowTooLarge("window dimension %d exceeds the cap MAX_WINDOW_DIM=%d" % (dim, MAX_WINDOW_DIM))
    return dim


def _rekey(items, off):
    """The pivot-map ``items`` with every slot moved by ``off``, as a fresh map."""
    if not off:
        return dict(items)
    return {c + off: {j + off: x for j, x in row.items()} for c, row in items}


def row_to_vec(space: TateSpace, b: int, row):
    """Sparse raw window row -> tuple of LaurentPoly coordinates."""
    n = space.rank
    polys = [{} for _ in range(n)]
    for s, c in row.items():
        polys[s % n][s // n - b] = c
    return tuple(LaurentPoly._raw(space.ctx, p) for p in polys)


def vec_to_row(space: TateSpace, a: int, b: int, vec):
    """LaurentPoly coordinates -> sparse raw window row, reducing modulo t^a O^n."""
    if len(vec) != space.rank:
        raise SpaceMismatch("vector of %d coordinates in %r" % (len(vec), space))
    row = {}
    for i, poly in enumerate(vec):
        if poly.ctx != space.ctx:
            raise FieldMismatch("coordinate over %r in %r" % (poly.ctx, space))
        for e, c in poly._terms.items():
            if e >= a:
                continue  # inside t^a O^n, dies in the window quotient
            if e < -b:
                raise ValueError("vector outside t^-%d O^n window" % b)
            row[_slot(space, b, e, i)] = c
    return row


class Lattice:
    """An open bounded subspace of k((t))^n, in normalized window form; the
    hash is kept on first use."""

    __slots__ = ("space", "a", "b", "subspace", "_hash")

    def __init__(self, space: TateSpace, a: int, b: int, subspace: Subspace):
        if a + b < 0:
            raise ValueError("window bounds a=%d, b=%d overlap" % (a, b))
        dim = _window_dim(space, a, b)
        if subspace.ctx is not space.ctx and subspace.ctx != space.ctx:
            raise FieldMismatch("subspace over %r in %r" % (subspace.ctx, space))
        if subspace.ambient_dim != dim:
            raise ValueError("subspace ambient %d != window dim %d" % (subspace.ambient_dim, dim))
        a, b, subspace = _normalize(space, a, b, subspace)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "subspace", subspace)
        object.__setattr__(self, "_hash", None)

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
        dim, one = _window_dim(space, a, b), space.ctx.raw_one
        units = [_slot(space, b, e, i) for e in range(-b, a) for i in range(space.rank) if e >= shifts[i]]
        return cls(space, a, b, Subspace(space.ctx, dim, {s: {s: one} for s in units}))

    @property
    def ctx(self):
        return self.space.ctx

    @property
    def vdim(self) -> int:
        """dim(L/N) - dim(O^n/N) for any common sub-lattice N of L and O^n."""
        return self.subspace.dim - self.space.rank * self.a

    def window_subspace(self, a2: int, b2: int) -> Subspace:
        """This lattice as a subspace of the larger window (a2, b2)."""
        if a2 < self.a or b2 < self.b:
            raise ValueError("window must contain (%d, %d)" % (self.a, self.b))
        if a2 == self.a and b2 == self.b:
            return self.subspace
        dim2, one = _window_dim(self.space, a2, b2), self.ctx.raw_one
        # Re-keyed echelon rows, then the units of the new top blocks: still RREF.
        at = _rekey(self.subspace._at.items(), (b2 - self.b) * self.space.rank)
        for s in range(_slot(self.space, b2, self.a, 0), dim2):
            at[s] = {s: one}
        return Subspace(self.ctx, dim2, at)

    def basis_vectors(self):
        """Representative Laurent vectors of L modulo t^a O^n."""
        return [row_to_vec(self.space, self.b, row) for row in self.subspace._at.values()]

    def contains_vector(self, vec) -> bool:
        """Membership of a Laurent polynomial vector."""
        exps = [e for poly in vec for e in poly._terms]
        lo = min(exps, default=0)
        b2 = max(self.b, -lo)
        w = self.window_subspace(self.a, b2)
        return not w._remainder(vec_to_row(self.space, self.a, b2, vec))

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
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.space, self.a, self.b, self.subspace)))
        return self._hash

    def __repr__(self):
        return "Lattice(a=%d, b=%d, dim W=%d)" % (self.a, self.b, self.subspace.dim)


def lattice_from_json(ctx: FieldCtx, data: dict) -> Lattice:
    """The lattice ``to_json_dict`` encoded; a missing key or a rank or bound
    that is not an int raises ValueError naming the field."""
    for key in ("rank", "a", "b", "basis"):
        if key not in data or (key != "basis" and type(data[key]) is not int):
            raise ValueError("lattice JSON field %r is missing or not an int" % key)
    space = TateSpace(ctx, data["rank"])
    a, b = data["a"], data["b"]
    return Lattice(space, a, b, Subspace.from_rows(ctx, _window_dim(space, a, b), data["basis"]))


def _normalize(space, a, b, subspace):
    """Tight bounds read off the RREF pivots of W; slicing keeps the RREF.

    b drops the leading blocks below the first pivot.  a drops the trailing
    blocks whose slots are all pivots, which in RREF is exactly the condition
    that W contains t^(a-1) O^n.  The kept rows hold no slot in either, so
    slicing drops the rows of those pivots and re-keys the rest.
    """
    n, dim, at = space.rank, subspace.ambient_dim, subspace._at
    low = next(iter(at), dim) // n
    run = 0
    for c in reversed(at):
        if c != dim - 1 - run:
            break
        run += 1
    high = run // n
    if not low and not high:
        return a, b, subspace
    kept = _rekey(islice(at.items(), len(at) - high * n), -low * n)
    return a - high, b - low, Subspace(space.ctx, dim - (low + high) * n, kept)


def _same_space(*lattices):
    """Raise ``SpaceMismatch`` unless the lattices share one space."""
    space = lattices[0].space
    for L in lattices[1:]:
        if L.space != space:
            raise SpaceMismatch("%r vs %r" % (space, L.space))


def common_window(*lattices):
    """(a, b, subspaces): the smallest window holding all the lattices, which
    must share one space, and each lattice as a subspace of it."""
    _same_space(*lattices)
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


def quotient_dim_lattices(L: Lattice, M: Lattice) -> int:
    """dim(M/L) for L <= M; raises ``NotNested`` otherwise."""
    if not leq(L, M):
        raise NotNested("quotient needs L <= M")
    return M.vdim - L.vdim


def act(g: Automorphism, L: Lattice) -> Lattice:
    """The image lattice g L, renormalized."""
    space = L.space
    if g.ctx != space.ctx or g.rank != space.rank:
        raise SpaceMismatch("automorphism of rank %d on %r" % (g.rank, space))
    vg, vginv = g.valuations()
    a2, b2 = L.a - vginv, L.b - vg
    dim = _window_dim(space, a2, b2)
    rows = list(L.subspace._at.values())
    # t^e e_i with L.a <= e < a2 - v(g) lies in t^a O^n, past the window's
    # top, yet its image can reach below t^a2; the range is empty for MultBy.
    one = space.ctx.raw_one
    rows += [{_slot(space, L.b, e, i): one} for e in range(L.a, a2 - vg) for i in range(space.rank)]
    return Lattice(space, a2, b2, Subspace._span(space.ctx, dim, g.image(rows, L.b, a2, b2)))


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


def std_lattice(space: TateSpace, shifts) -> Lattice:
    return Lattice.std(space, shifts)
