"""Lattices in the Sato Grassmannian of V = k((t))^n.

A lattice is an open bounded k-subspace L with t^a O^n <= L <= t^-b O^n
(O = k[[t]]), the bounds tight: a least with t^a O^n <= L, b least with
L <= t^-b O^n.  It is stored as a plus the reduced echelon rows of
L / t^a O^n, sparse ``{slot: nonzero raw value}`` rows in the pivot map
``_at``, keyed by absolute slot: slot e*n + i holds t^e e_i.  Slots ascend
by (exponent, coordinate), so the form is canonical and lattice equality is
equality of the stored data.  Every slot from a*n up is an implicit pivot
of L and is never written; b is read off the lowest pivot, and ``_make`` is
the one constructor that tightens a.  No operation builds a window:

* ``leq(L, M)`` is False when L.a < M.a, as L <= M would put t^(M.a-1) O^n
  in M.  Otherwise t^(L.a) O^n <= M, so L <= M iff each row of L, cut at
  slot M.a*n, reduces to 0 by M's rows: what is cut off lies in
  t^(M.a) O^n <= M.  A row of L below M's lowest pivot never reduces, so
  L.b > M.b needs no test of its own.
* ``join(L, M)`` is spanned by both row sets cut at c*n, c = min(L.a, M.a),
  over t^c O^n: that lies in the operand with the lower top, so it holds
  what is cut off.
* ``meet(L, M)``, L.a <= M.a (the operands are swapped only when M has the
  lower top), has top M.a, as t^c O^n <= L, M iff c >= L.a, M.a.  Modulo
  t^(M.a) O^n its rows are the combinations of M's rows whose cut at L.a*n
  reduces to 0 by L's rows: one Zassenhaus elimination, ``linalg._meet``,
  with its left halves cut at L.a*n.

``act`` hands the rows to ``Automorphism.image`` as they are; ``row_to_vec``
reads a row as a Laurent vector, and ``window_subspace`` embeds a lattice in
a window t^-b2 O^n / t^a2 O^n, with unit rows from slot a*n up.  A window
whose rows are built may have at most ``MAX_WINDOW_DIM`` slots, a limit on
the rows it can hold: a lattice's own, checked by ``Lattice``, ``std`` and
``act``, and the one ``detline`` spans with quotient pivots.  A larger one
raises ``WindowTooLarge`` before its rows are built.

The virtual dimension ``vdim(L) = dim(L / t^a O^n) - n*a`` is the dimension
theory that is 0 at O^n: dim(L/N) - dim(O^n/N) for any common sub-lattice N.
Every lattice dimension is a difference of it, dim(M/L) = vdim(M) - vdim(L)
for L <= M, read off the stored bounds with no window and no elimination.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter, index

from .errors import FieldMismatch, NotNested, SpaceMismatch, WindowTooLarge
from .fields import FieldCtx, _Frozen, _Value
from .laurent import Automorphism, LaurentPoly
from .linalg import Subspace, _cut, _meet, _reduce, _rref_rows

MAX_WINDOW_DIM = 1024


class TateSpace(_Value):
    """The elementary Tate vector space k((t))^n."""

    __slots__ = ("ctx", "rank")
    _fields = attrgetter("ctx", "rank")

    def __init__(self, ctx: FieldCtx, rank: int):
        rank = index(rank)
        if rank < 1:
            raise ValueError("rank must be positive")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rank", rank)

    def __repr__(self):
        if self.rank == 1:
            return "%r((t))" % self.ctx
        return "%r((t))^%d" % (self.ctx, self.rank)


def _window_dim(space: TateSpace, a: int, b: int) -> int:
    """Dimension of the window t^-b O^n / t^a O^n, at most MAX_WINDOW_DIM."""
    dim = space.rank * (a + b)
    if dim > MAX_WINDOW_DIM:
        raise WindowTooLarge("window dimension %d exceeds the cap MAX_WINDOW_DIM=%d" % (dim, MAX_WINDOW_DIM))
    return dim


def row_to_vec(space: TateSpace, row):
    """Sparse raw row -> tuple of LaurentPoly coordinates."""
    n = space.rank
    polys = [{} for _ in range(n)]
    for s, c in row.items():
        polys[s % n][s // n] = c
    return tuple(LaurentPoly._raw(space.ctx, p) for p in polys)


def vec_to_row(space: TateSpace, a: int, vec):
    """LaurentPoly coordinates -> sparse raw row, reducing modulo t^a O^n."""
    if len(vec) != space.rank:
        raise SpaceMismatch("vector of %d coordinates in %r" % (len(vec), space))
    row = {}
    for i, poly in enumerate(vec):
        if poly.ctx != space.ctx:
            raise FieldMismatch("coordinate over %r in %r" % (poly.ctx, space))
        for e, c in poly._terms.items():
            if e < a:  # a term from t^a up dies modulo t^a O^n
                row[e * space.rank + i] = c
    return row


class Lattice(_Value):
    """An open bounded subspace of k((t))^n in tight canonical form; the hash is kept on first use."""

    __slots__ = ("space", "a", "b", "_at", "_hash")
    _fields = attrgetter("space", "a", "_at")

    def __init__(self, space: TateSpace, a: int, b: int, subspace: Subspace):
        """The lattice t^a O^n + W for a subspace W of the window t^-b O^n / t^a O^n."""
        a, b = index(a), index(b)
        if a + b < 0:
            raise ValueError("window bounds a=%d, b=%d overlap" % (a, b))
        dim = _window_dim(space, a, b)
        if subspace.ctx is not space.ctx and subspace.ctx != space.ctx:
            raise FieldMismatch("subspace over %r in %r" % (subspace.ctx, space))
        if subspace.ambient_dim != dim:
            raise ValueError("subspace ambient %d != window dim %d" % (subspace.ambient_dim, dim))
        off = b * space.rank
        self._fill(space, a, {c - off: {j - off: x for j, x in row.items()} for c, row in subspace._at.items()})

    def _fill(self, space, a, at):
        """Store t^a O^n + span(at), ``at`` a pivot map on slots below a*n, with a
        tightened: the trailing blocks of pivots are dropped.  In RREF that is
        exactly when the rows span t^(a-1) O^n, and theirs are unit rows."""
        n, run = space.rank, 0
        for c in reversed(at):
            if c != a * n - 1 - run:
                break
            run += 1
        if run >= n:
            high = run // n
            at = dict(islice(at.items(), len(at) - high * n))
            a -= high
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", -(next(iter(at)) // n) if at else -a)
        object.__setattr__(self, "_at", at)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _make(cls, space: TateSpace, a: int, at) -> "Lattice":
        """t^a O^n + span(at), ``at`` a pivot map the kernel built; nothing is checked."""
        L = object.__new__(cls)
        L._fill(space, a, at)
        return L

    @classmethod
    def std(cls, space: TateSpace, shifts) -> "Lattice":
        """The lattice ⊕_i t^shifts[i] O."""
        if isinstance(shifts, int):
            shifts = [shifts] * space.rank
        shifts, n = list(shifts), space.rank
        if len(shifts) != n:
            raise ValueError("need one shift per coordinate")
        a, b = max(shifts), -min(shifts)
        _window_dim(space, a, b)
        units = [e * n + i for e in range(-b, a) for i in range(n) if e >= shifts[i]]
        return cls._make(space, a, {s: {s: 1} for s in units})

    @property
    def ctx(self):
        return self.space.ctx

    @property
    def vdim(self) -> int:
        """dim(L/N) - dim(O^n/N) for any common sub-lattice N of L and O^n."""
        return len(self._at) - self.space.rank * self.a

    def window_subspace(self, a2: int, b2: int) -> Subspace:
        """This lattice in the window (a2, b2) around (a, b): its rows on window
        slots, then the units of the slots from a*n up, which keeps the RREF."""
        if a2 < self.a or b2 < self.b:
            raise ValueError("window must contain (%d, %d)" % (self.a, self.b))
        dim, off = _window_dim(self.space, a2, b2), b2 * self.space.rank
        at = {c + off: {j + off: x for j, x in row.items()} for c, row in self._at.items()}
        for s in range(off + self.a * self.space.rank, dim):
            at[s] = {s: 1}
        return Subspace(self.ctx, dim, at)

    def basis_vectors(self):
        """Representative Laurent vectors of L modulo t^a O^n."""
        return [row_to_vec(self.space, row) for row in self._at.values()]

    def contains_vector(self, vec) -> bool:
        """Membership of a Laurent polynomial vector."""
        return not _reduce(self.ctx.modulus, self._at, vec_to_row(self.space, self.a, vec))

    def to_json_dict(self) -> dict:
        slots = range(-self.b * self.space.rank, self.a * self.space.rank)  # the window (a, b)
        return {
            "rank": self.space.rank,
            "a": self.a,
            "b": self.b,
            "basis": [[str(row.get(s, 0)) for s in slots] for row in self._at.values()],
        }

    def __hash__(self):
        if self._hash is None:
            rows = tuple(tuple(sorted(row.items())) for row in self._at.values())
            object.__setattr__(self, "_hash", hash((self.space, self.a, self.b, rows)))
        return self._hash

    def __repr__(self):
        return "Lattice(a=%d, b=%d, dim W=%d)" % (self.a, self.b, len(self._at))


def lattice_from_json(ctx: FieldCtx, data: dict) -> Lattice:
    """The lattice ``to_json_dict`` encoded; a missing key, a rank or bound
    that is not an int, or a basis that is not a list of rows raises
    ValueError naming the field."""
    for key in ("rank", "a", "b"):
        if key not in data or type(data[key]) is not int:
            raise ValueError("lattice JSON field %r is missing or not an int" % key)
    basis = data.get("basis")
    if not isinstance(basis, (list, tuple)) or not all(isinstance(row, (list, tuple)) for row in basis):
        raise ValueError("lattice JSON field 'basis' is missing or not a list of rows")
    space = TateSpace(ctx, data["rank"])
    a, b = data["a"], data["b"]
    return Lattice(space, a, b, Subspace.from_rows(ctx, _window_dim(space, a, b), basis))


def _same_space(*lattices):
    """Raise ``SpaceMismatch`` unless the lattices share one space."""
    space = lattices[0].space
    for L in lattices[1:]:
        if L.space != space:
            raise SpaceMismatch("%r vs %r" % (space, L.space))


def leq(L: Lattice, M: Lattice) -> bool:
    """Whether L <= M in the Sato Grassmannian order (rule in the module doc)."""
    _same_space(L, M)
    if L.a < M.a:
        return False
    p = L.ctx.modulus
    return not any(_reduce(p, M._at, row) for row in _cut(L._at.values(), M.a * L.space.rank))


def join(L: Lattice, M: Lattice) -> Lattice:
    _same_space(L, M)
    a = min(L.a, M.a)
    rows = _cut([*L._at.values(), *M._at.values()], a * L.space.rank)
    return Lattice._make(L.space, a, _rref_rows(L.ctx, rows))


def meet(L: Lattice, M: Lattice) -> Lattice:
    _same_space(L, M)
    if L.a > M.a:  # L has the lower top
        L, M = M, L
    return Lattice._make(L.space, M.a, _meet(L.ctx, L._at, M._at, L.a * L.space.rank))


def quotient_dim_lattices(L: Lattice, M: Lattice) -> int:
    """dim(M/L) for L <= M; raises ``NotNested`` otherwise."""
    if not leq(L, M):
        raise NotNested("quotient needs L <= M")
    return M.vdim - L.vdim


def act(g: Automorphism, L: Lattice) -> Lattice:
    """The image lattice g L, tightened."""
    space = L.space
    if g.ctx != space.ctx or g.rank != space.rank:
        raise SpaceMismatch("automorphism of rank %d on %r" % (g.rank, space))
    vg, vginv = g.valuations()
    a2, n = L.a - vginv, space.rank
    _window_dim(space, a2, L.b - vg)
    # t^e e_i with L.a <= e < a2 - v(g) lies in t^a O^n, an implicit pivot of
    # L, yet its image can reach below t^a2; the range is empty for MultBy.
    rows = [*L._at.values(), *({s: 1} for s in range(L.a * n, (a2 - vg) * n))]
    return Lattice._make(space, a2, _rref_rows(space.ctx, g.image(rows, a2)))


class LatticeChain(_Frozen):
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


def std_lattice(space: TateSpace, shifts) -> Lattice:
    return Lattice.std(space, shifts)
