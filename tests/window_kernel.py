"""The padded window kernel of the lattice layer, kept as a test reference.

Lattices once computed every binary operation in one common window
t^-b O^n / t^a O^n of their operands: each operand was re-embedded there,
with a unit row for every slot of its new top blocks, and the window
subspaces were compared, summed or met by ``linalg``.  This module is that
kernel, built only from ``Lattice.window_subspace``, ``subspace_contains``,
``linalg._rref_rows``, ``linalg._meet`` and ``_quotient_reps``, the echelon
quotient representatives that ``linalg`` once built and that the tests still
read; window slot (e + b)*n + i holds t^e e_i.  It shares the eliminations
of ``linalg`` with the lattice layer, but none of its implicit tops, cuts or
quotient pivots.
"""

from bisect import bisect_right

from tatekit import Lattice, Matrix, Subspace, det
from tatekit.detline import GRADED, UNGRADED
from tatekit.lattice import _same_space, _window_dim
from tatekit.errors import NotContained
from tatekit.linalg import _meet, _quotient_coords, _rref_rows, subspace_contains


def _quotient_reps(sub, sup):
    """(rows, pivots): the raw echelon rows of sup whose pivots are not
    pivots of sub, ascending.  Raises ``NotContained`` unless sub <= sup."""
    if not subspace_contains(sup, sub):
        raise NotContained("quotient needs sub <= sup")
    lead = [c for c in sup._at if c not in sub._at]
    return [sup._at[c] for c in lead], lead


def common_window(*lattices):
    """(a, b, subspaces): the smallest window holding all the lattices, which
    must share one space, and each lattice as a subspace of it."""
    _same_space(*lattices)
    a = max(L.a for L in lattices)
    b = max(L.b for L in lattices)
    return a, b, [L.window_subspace(a, b) for L in lattices]


def intersect(x, y):
    """x ∩ y of two window subspaces, by one Zassenhaus elimination."""
    return Subspace(x.ctx, x.ambient_dim, _meet(x.ctx, x._at, y._at, x.ambient_dim))


def shift(row, off):
    """A sparse raw row with every slot moved by ``off``."""
    return {s + off: x for s, x in row.items()}


def window_image(g, rows, b0, a, b):
    """g applied to rows of a window with bottom t^-b0, as rows of the window
    (a, b); an image with a term below t^-b raises ValueError."""
    n = g.rank
    out = [shift(row, b * n) for row in g.image([shift(row, -b0 * n) for row in rows], a)]
    if any(row and min(row) < 0 for row in out):
        raise ValueError("vector outside t^-%d O^n window" % b)
    return out


def leq(L, M):
    _, _, (wl, wm) = common_window(L, M)
    return subspace_contains(wm, wl)


def join(L, M):
    a, b, (wl, wm) = common_window(L, M)
    rows = [*wl._at.values(), *wm._at.values()]
    return Lattice(L.space, a, b, Subspace(L.ctx, wl.ambient_dim, _rref_rows(L.ctx, rows)))


def meet(L, M):
    a, b, (wl, wm) = common_window(L, M)
    return Lattice(L.space, a, b, intersect(wl, wm))


def act(g, L):
    """g L: L's window rows plus the units past its top that g maps below
    the new top, imaged into the window (L.a - v(g^-1), L.b - v(g))."""
    space, n = L.space, L.space.rank
    vg, vginv = g.valuations()
    a2, b2 = L.a - vginv, L.b - vg
    dim = _window_dim(space, a2, b2)
    rows = list(L.window_subspace(L.a, L.b)._at.values())
    rows += [{(e + L.b) * n + i: 1} for e in range(L.a, a2 - vg) for i in range(n)]
    image = window_image(g, rows, L.b, a2, b2)
    return Lattice(space, a2, b2, Subspace(space.ctx, dim, _rref_rows(space.ctx, image)))


def shuffle(M, N, F):
    """The shuffle exponent of window subspaces M <= N <= F."""
    lower = [c for c in N._at if c not in M._at]
    upper = [c for c in F._at if c not in N._at]
    return sum(len(upper) - bisect_right(upper, x) for x in lower)


def omega(F1, F2, F3, mode=UNGRADED):
    """The composition sign read off the pivots in one common window."""
    _, _, (w1, w2, w3) = common_window(F1, F2, F3)
    n12, n23, n13 = intersect(w1, w2), intersect(w2, w3), intersect(w1, w3)
    M = intersect(n12, w3)
    triples = ((n12, w2), (n23, w3), (n13, w1), (n12, w1), (n23, w2), (n13, w3))
    s = sum(shuffle(M, N, F) for N, F in triples)
    if mode == GRADED:
        s += (F2.vdim - F1.vdim) * (F3.vdim - F2.vdim)
    one = F1.ctx.one()
    return -one if s % 2 else one


def wedge_det(sub_w, sup_w, rows):
    """Determinant of the window ``rows`` against the quotient
    representatives of sup_w/sub_w, both in ascending pivot order."""
    target, lead = _quotient_reps(sub_w, sup_w)
    coords = _quotient_coords(sub_w.ctx.modulus, sub_w._at, dict(zip(lead, target)), rows)
    return det(Matrix._raw(sub_w.ctx, len(target), coords))


def translation_scalar(g, F1, F2):
    """The scalar of g_*: (F1|F2) -> (gF1|gF2), in the two common windows."""
    _, b1, (w1, w2) = common_window(F1, F2)
    a2, b2, (tw1, tw2) = common_window(act(g, F1), act(g, F2))
    wN, twN = intersect(w1, w2), intersect(tw1, tw2)
    reps2, reps1 = _quotient_reps(wN, w2)[0], _quotient_reps(wN, w1)[0]
    rows = window_image(g, reps2 + reps1, b1, a2, b2)
    return wedge_det(twN, tw2, rows[: len(reps2)]) / wedge_det(twN, tw1, rows[len(reps2) :])
