"""Echelon-preserving builders against the eliminating reference path.

``Subspace.from_rows`` runs a Gauss-Jordan elimination; window embedding,
normalisation, ``Lattice.std``, membership and quotient coordinates build
their results from rows already in reduced echelon form.  These tests check
that both paths give the same canonical data, and that the echelon builders
never eliminate.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tatekit.linalg
from tatekit import GF, QQ, Lattice, Subspace, TateSpace, quotient_basis, quotient_coords, std_lattice
from tatekit.errors import NotContained
from tatekit.lattice import row_to_vec, vec_to_row
from tatekit.laurent import LaurentPoly

FIELDS = [GF(2), GF(3), GF(5), QQ]
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
    sub = Subspace.from_rows(ctx, dim, [_combine(ctx, dim, c, sup.rows()) for c in combos])
    return sub, sup, ctx


def _combine(ctx, dim, coeffs, rows):
    out = [ctx.zero()] * dim
    for c, row in zip(coeffs, rows):
        out = [x + c * y for x, y in zip(out, row)]
    return out


def _reference_window(L, a2, b2):
    """The eliminating path: L's vectors and the new units, through from_rows."""
    space, n = L.space, L.space.rank
    rows = [vec_to_row(space, a2, b2, v) for v in L.basis_vectors()]
    zero = LaurentPoly.zero(L.ctx)
    for e in range(L.a, a2):
        for i in range(n):
            unit = [LaurentPoly.t(L.ctx, e) if j == i else zero for j in range(n)]
            rows.append(vec_to_row(space, a2, b2, unit))
    return Subspace.from_rows(L.ctx, n * (a2 + b2), rows)


@SETTINGS
@given(lattices())
def test_window_subspace_matches_from_rows(case):
    L, a2, b2 = case
    w = L.window_subspace(a2, b2)
    ref = _reference_window(L, a2, b2)
    assert w == ref and w.pivots == ref.pivots
    assert w == Subspace.from_rows(L.ctx, w.ambient_dim, w.rows())


@SETTINGS
@given(lattices())
def test_normalize_reembedded_lattice(case):
    L, a2, b2 = case
    M = Lattice(L.space, a2, b2, L.window_subspace(a2, b2))
    assert M == L and M.subspace.pivots == L.subspace.pivots
    ref = Subspace.from_rows(L.ctx, L.subspace.ambient_dim, L.subspace.rows())
    assert L.subspace == ref and L.subspace.pivots == ref.pivots


@SETTINGS
@given(nested_subspaces(), st.data())
def test_quotient_coords_reconstructs(case, data):
    sub, sup, ctx = case
    reps = quotient_basis(sub, sup)
    if data.draw(st.booleans()):
        reps = list(reversed(reps))  # the wedge order detline uses
    dim = sup.ambient_dim
    vec = _combine(ctx, dim, _rows(data.draw, ctx, 1, sup.dim)[0], sup.rows())
    coords = quotient_coords(sub, reps, vec)
    diff = [x - y for x, y in zip(vec, _combine(ctx, dim, coords, reps))]
    assert sub.contains_vector(diff)
    outside = _rows(data.draw, ctx, 1, dim)[0]
    if not sup.contains_vector(outside):
        with pytest.raises(NotContained):
            quotient_coords(sub, reps, outside)


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
    assert std_lattice(V, [2, -1]).subspace.dim == 3
    assert w.contains_vector(w.rows()[0]) and L.contains_vector(row_to_vec(V, L.a, L.b, L.subspace.rows()[1]))
    reps = quotient_basis(sub, sup)
    assert [str(c) for c in quotient_coords(sub, reps, vec)] == ["3"]  # vec = 2*sub + 3*rep
