"""Echelon-preserving builders against the eliminating reference path.

``Subspace.from_rows`` runs a Gauss-Jordan elimination; window embedding,
normalisation, ``Lattice.std``, membership and quotient coordinates build
their results from rows already in reduced echelon form.  These tests check
that both paths give the same canonical data, that the echelon builders
never eliminate, and that every subspace the lattice layer builds keeps the
pivot-map invariant of ``Subspace._at``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tatekit.linalg
from tatekit import GF, QQ, Lattice, Subspace, TateSpace, act, join, meet, std_lattice
from tatekit.errors import NotContained
from tatekit.lattice import row_to_vec, vec_to_row
from tatekit.laurent import LaurentPoly
from tatekit.linalg import _box, _meet, _quotient_coords
from tatekit.verify import rand_gl, rand_lattice, rand_mult
from window_kernel import _quotient_reps

FIELDS = [GF(2), GF(3), GF(5), QQ]
PIVOT_FIELDS = [GF(2), GF(3), GF(1000003), QQ]
SETTINGS = settings(max_examples=60, deadline=None)


def _rows(draw, ctx, nrows, dim):
    ints = st.integers(-3, 3)
    return [[ctx.scalar(draw(ints)) for _ in range(dim)] for _ in range(nrows)]


@st.composite
def lattices(draw):
    """(lattice, a2, b2): a random lattice and a window containing it."""
    ctx = draw(st.sampled_from(FIELDS))
    space = TateSpace(ctx, draw(st.integers(1, 2)))
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(-a, 3))
    dim = space.rank * (a + b)
    rows = _rows(draw, ctx, draw(st.integers(0, dim)), dim)
    L = Lattice(space, a, b, Subspace.from_rows(ctx, dim, rows))
    return L, L.a + draw(st.integers(0, 2)), L.b + draw(st.integers(0, 2))


@st.composite
def nested_subspaces(draw):
    """(sub, sup, ctx): sub spanned by random combinations of sup's rows."""
    ctx = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 6))
    sup = Subspace.from_rows(ctx, dim, _rows(draw, ctx, draw(st.integers(0, dim)), dim))
    combos = _rows(draw, ctx, draw(st.integers(0, sup.dim)), sup.dim)
    sub = Subspace.from_rows(ctx, dim, [_combine(ctx, dim, c, sup.basis.row_list()) for c in combos])
    return sub, sup, ctx


def quotient_coords(sub, reps, lead, vec):
    """The boxed coordinates ``_quotient_coords`` gives a boxed ``vec``."""
    coords = _quotient_coords(sub.ctx.modulus, sub._at, dict(zip(lead, reps)), [sub._vector(vec)])
    return _box(sub.ctx, len(reps), coords[0])


def _combine(ctx, dim, coeffs, rows):
    out = [ctx.zero()] * dim
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


def _reference_window(L, a2, b2):
    """The eliminating path: L's vectors and the new units, through from_rows."""
    space, n = L.space, L.space.rank
    dim = n * (a2 + b2)
    rows = [vec_to_row(space, a2, v) for v in L.basis_vectors()]
    zero = LaurentPoly.zero(L.ctx)
    for e in range(L.a, a2):
        for i in range(n):
            unit = [LaurentPoly.t(L.ctx, e) if j == i else zero for j in range(n)]
            rows.append(vec_to_row(space, a2, unit))
    # vec_to_row rows are sparse, on absolute slots: slot s is window slot s + b2*n
    dense = [[row.get(j - b2 * n, 0) for j in range(dim)] for row in rows]
    return Subspace.from_rows(L.ctx, dim, dense)


@SETTINGS
@given(lattices())
def test_window_subspace_matches_from_rows(case):
    L, a2, b2 = case
    w = L.window_subspace(a2, b2)
    ref = _reference_window(L, a2, b2)
    assert w == ref and w.pivots == ref.pivots
    assert w == Subspace.from_rows(L.ctx, w.ambient_dim, w.basis.row_list())


@SETTINGS
@given(lattices())
def test_normalize_reembedded_lattice(case):
    L, a2, b2 = case
    M = Lattice(L.space, a2, b2, L.window_subspace(a2, b2))
    w, wm = L.window_subspace(L.a, L.b), M.window_subspace(M.a, M.b)
    assert M == L and wm.pivots == w.pivots
    ref = Subspace.from_rows(L.ctx, w.ambient_dim, w.basis.row_list())
    assert w == ref and w.pivots == ref.pivots


@SETTINGS
@given(nested_subspaces(), st.data())
def test_quotient_coords_reconstructs(case, data):
    sub, sup, ctx = case
    reps, lead = _quotient_reps(sub, sup)
    if data.draw(st.booleans()):
        reps, lead = reps[::-1], lead[::-1]  # the wedge order detline uses
    dim = sup.ambient_dim
    vec = _combine(ctx, dim, _rows(data.draw, ctx, 1, sup.dim)[0], sup.basis.row_list())
    coords = quotient_coords(sub, reps, lead, vec)
    diff = [x - y for x, y in zip(vec, _combine(ctx, dim, coords, [_box(ctx, dim, row) for row in reps]))]
    assert sub.contains_vector(diff)
    outside = _rows(data.draw, ctx, 1, dim)[0]
    if not sup.contains_vector(outside):
        with pytest.raises(NotContained):
            quotient_coords(sub, reps, lead, outside)


def test_echelon_builders_do_not_eliminate(monkeypatch):
    V = TateSpace(QQ, 2)
    L = Lattice(V, 1, 1, Subspace.from_rows(QQ, 4, [[1, 0, 2, 0], [0, 1, 0, 3]]))
    sup = Subspace.from_rows(QQ, 3, [[1, 2, 0], [0, 0, 1]])
    sub = Subspace.from_rows(QQ, 3, [[1, 2, 1]])
    vec = [QQ.scalar(x) for x in (2, 4, 5)]

    def no_elimination(*args):
        raise AssertionError("Gauss-Jordan elimination ran")

    monkeypatch.setattr(tatekit.linalg, "_rref_rows", no_elimination)
    w = L.window_subspace(3, 2)
    assert Lattice(V, 3, 2, w) == L
    S = std_lattice(V, [2, -1])
    assert S.window_subspace(S.a, S.b).dim == 3
    assert w.contains_vector(w.basis.row_list()[0]) and L.contains_vector(row_to_vec(V, list(L._at.values())[1]))
    assert [str(c) for c in quotient_coords(sub, *_quotient_reps(sub, sup), vec)] == ["3"]  # vec = 2*sub + 3*rep


def assert_pivot_map(s):
    """``_at``, a Subspace's one store: pivots strictly ascending in insertion
    order, each row 1 at its pivot (its least key) and zero at every other
    pivot, and the canonical form that ``from_rows`` rebuilds."""
    pivots = list(s._at)
    assert all(c < d for c, d in zip(pivots, pivots[1:]))
    for c, row in s._at.items():
        assert min(row) == c and row[c] == 1
        assert not any(d in row for d in pivots if d != c)
    again = Subspace.from_rows(s.ctx, s.ambient_dim, s.basis.row_list())
    assert again == s and again.pivots == s.pivots


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PIVOT_FIELDS), st.integers(1, 2), st.randoms(use_true_random=False))
def test_every_builder_keeps_the_pivot_map_invariant(ctx, rank, rng):
    space = TateSpace(ctx, rank)
    L, M = rand_lattice(space, rng, 2), rand_lattice(space, rng, 2)  # normalised by Lattice(...)
    g = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
    std = Lattice.std(space, [rng.randint(-2, 2) for _ in range(rank)])
    a, b = max(L.a, M.a) + rng.randint(0, 2), max(L.b, M.b) + rng.randint(0, 2)
    wl, wm = L.window_subspace(a, b), M.window_subspace(a, b)
    built = [L, M, std, Lattice(space, a, b, wl), act(g, L), meet(L, M), join(L, M)]
    wn = Subspace(ctx, wl.ambient_dim, _meet(ctx, wl._at, wm._at, wl.ambient_dim))
    for s in [wl, wm, wn, *(lat.window_subspace(lat.a, lat.b) for lat in built)]:
        assert_pivot_map(s)
