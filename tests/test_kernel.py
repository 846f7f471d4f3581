"""The raw-value kernel of ``linalg`` against a boxed reference.

The reference below is the ``Scalar`` Gauss-Jordan, reduction and
determinant that ``linalg`` ran before it stored raw values; every public
operation built on the kernel must agree with it exactly, and every rational
it returns must hold the canonical raw form: an ``int`` exactly when it is
integral, a ``Fraction`` otherwise.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import GF, QQ, Matrix, Subspace, det
from tatekit.errors import FieldMismatch, NotContained
from tatekit.linalg import _box, _meet, _quotient_coords, _rref_rows, subspace_contains
from window_kernel import _quotient_reps

FIELDS = [GF(2), GF(3), GF(1000003), QQ]
SETTINGS = settings(max_examples=80, deadline=None)


# -- boxed reference ---------------------------------------------------------


def ref_rref(ctx, rows):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
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


def ref_det(ctx, rows):
    n = len(rows)
    rows = [list(r) for r in rows]
    sign, acc = 1, ctx.one()
    for c in range(n):
        piv = next((i for i in range(c, n) if not rows[i][c].is_zero()), None)
        if piv is None:
            return ctx.zero()
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


def ref_reduce(rows, pivots, vec):
    for row, p in zip(rows, pivots):
        f = vec[p]
        if not f.is_zero():
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def ref_basis(ctx, rows):
    """(echelon rows, pivots) of the span of ``rows``."""
    red, pivots = ref_rref(ctx, rows)
    return red[: len(pivots)], pivots


def ref_nullspace(ctx, rows, ncols):
    red, pivots = ref_rref(ctx, rows)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [ctx.zero()] * ncols
        vec[f] = ctx.one()
        for r, c in enumerate(pivots):
            vec[c] = -red[r][f]
        out.append(vec)
    return out


def ref_intersect(ctx, dim, rows_a, rows_b):
    if not rows_a or not rows_b:
        return [], []
    stacked = rows_a + rows_b
    vecs = []
    for x in ref_nullspace(ctx, [list(col) for col in zip(*stacked)], len(stacked)):
        vec = [ctx.zero()] * dim
        for coef, row in zip(x[: len(rows_a)], rows_a):
            if not coef.is_zero():
                vec = [v + coef * r for v, r in zip(vec, row)]
        vecs.append(vec)
    return ref_basis(ctx, vecs) if vecs else ([], [])


# -- inputs --------------------------------------------------------------------


def values(ctx):
    if ctx == QQ:
        return st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=4))
    return st.one_of(st.just(0), st.just(1), st.integers(0, ctx.modulus - 1))


@st.composite
def matrices(draw, square=False):
    """(ctx, rows): a matrix as lists of Scalars, often rank-deficient."""
    ctx = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(1, 5))
    ncols = nrows if square else draw(st.integers(1, 6))
    rows = [[ctx.scalar(draw(values(ctx))) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):  # repeat a combination of two rows
        c = ctx.scalar(draw(values(ctx)))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[1])]
    return ctx, rows


@st.composite
def subspace_pairs(draw):
    ctx, rows_a = draw(matrices())
    dim = len(rows_a[0])
    rows_b = [[ctx.scalar(draw(values(ctx))) for _ in range(dim)] for _ in range(draw(st.integers(0, 4)))]
    if rows_b and draw(st.booleans()):  # share a vector with a
        rows_b[0] = rows_a[0]
    return ctx, dim, rows_a, rows_b


def quotient_coords(sub, reps, lead, vec):
    """The boxed coordinates ``_quotient_coords`` gives a boxed ``vec``."""
    coords = _quotient_coords(sub.ctx.modulus, sub._at, dict(zip(lead, reps)), [sub._vector(vec)])
    return _box(sub.ctx, len(reps), coords[0])


def canonical(x):
    """Whether a raw rational is in canonical form: an int exactly when it is
    integral, a Fraction otherwise, never a float."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def assert_canonical(ctx, scalars):
    if ctx == QQ:
        assert all(canonical(x.value) for x in scalars)


# -- differential tests --------------------------------------------------------


@SETTINGS
@given(matrices())
def test_rref_matches_reference(case):
    ctx, rows = case
    m = Matrix.from_rows(ctx, rows)
    at = _rref_rows(ctx, m._data)
    red = Matrix._raw(ctx, m.cols, at.values())
    ref_rows, ref_pivots = ref_rref(ctx, rows)
    assert red.row_list() == ref_rows[: len(ref_pivots)] and list(at) == ref_pivots
    assert_canonical(ctx, red.entries)
    sub = Subspace.from_rows(ctx, len(rows[0]), rows)
    assert sub.basis.row_list() == ref_rows[: len(ref_pivots)] and list(sub.pivots) == ref_pivots


@SETTINGS
@given(matrices(square=True))
def test_det_matches_reference(case):
    ctx, rows = case
    value = det(Matrix.from_rows(ctx, rows))
    assert value == ref_det(ctx, rows)
    assert_canonical(ctx, [value])


@SETTINGS
@given(subspace_pairs())
def test_sum_and_intersection_match_reference(case):
    ctx, dim, rows_a, rows_b = case
    a, b = Subspace.from_rows(ctx, dim, rows_a), Subspace.from_rows(ctx, dim, rows_b)
    total = Subspace(ctx, dim, _rref_rows(ctx, [*a._at.values(), *b._at.values()]))
    assert (total.basis.row_list(), list(total.pivots)) == ref_basis(ctx, rows_a + rows_b)
    meet = Subspace(ctx, dim, _meet(ctx, a._at, b._at, dim))
    ref_a, ref_b = ref_basis(ctx, rows_a)[0], ref_basis(ctx, rows_b)[0] if rows_b else []
    assert (meet.basis.row_list(), list(meet.pivots)) == ref_intersect(ctx, dim, ref_a, ref_b)
    assert_canonical(ctx, [x for s in (total, meet) for row in s.basis.row_list() for x in row])


@SETTINGS
@given(subspace_pairs())
def test_membership_and_quotient_coords_match_reference(case):
    ctx, dim, rows_a, rows_b = case
    sup = Subspace.from_rows(ctx, dim, rows_a + rows_b)
    sub = Subspace.from_rows(ctx, dim, rows_b)
    sup_rows, sup_piv = ref_basis(ctx, rows_a + rows_b)
    sub_rows, sub_piv = ref_basis(ctx, rows_b) if rows_b else ([], [])
    for vec in rows_a + rows_b:
        assert sub.contains_vector(vec) == all(x.is_zero() for x in ref_reduce(sub_rows, sub_piv, vec))
    assert subspace_contains(sup, sub) and subspace_contains(sub, sup) == (sub.dim == sup.dim)
    raw = _quotient_reps(sub, sup)[0]
    reps = [_box(ctx, dim, row) for row in raw]
    assert reps == [row for row, c in zip(sup_rows, sup_piv) if c not in sub_piv]
    lead = [next(j for j, x in enumerate(row) if not x.is_zero()) for row in reps]
    for vec in rows_a:
        coords = quotient_coords(sub, raw, lead, vec)
        rest = ref_reduce(sub_rows, sub_piv, vec)
        assert coords == [rest[j] for j in lead]
        assert all(x.is_zero() for x in ref_reduce(reps, lead, rest))
        assert_canonical(ctx, coords)
    assert_canonical(ctx, [x for row in reps for x in row])


def test_values_over_q_stay_fractions():
    """Over Q every raw value is canonical: an int exactly when it is
    integral, a Fraction otherwise."""
    m = Matrix.from_rows(QQ, [[2, 1], [1, 1]])
    red = Matrix._raw(QQ, 2, _rref_rows(QQ, m._data).values())
    assert [type(x.value) for x in m.entries + red.entries] == [int] * 8
    assert [type(x.value) for x in (m * m).entries] == [int] * 4
    assert det(m) == QQ.one() and type(det(m).value) is int
    assert QQ.raw(Fraction(6, 3)) == 2 and type(QQ.raw(Fraction(6, 3))) is int and type(QQ.raw(3)) is int
    assert QQ.raw("1/2") == Fraction(1, 2) and type(QQ.raw("1/2")) is Fraction
    assert [type(x) for x in _rref_rows(QQ, Matrix.from_rows(QQ, [[2, 1]])._data)[0].values()] == [int, Fraction]
    a, b = Matrix.from_rows(QQ, [["1/2", "1/2"], [0, 3]]), Matrix.from_rows(QQ, [[1, 0], [1, 2]])
    assert [x.value for x in (a * b).entries] == [1, 1, 3, 6]
    assert all(canonical(x.value) for x in (a * b).entries + (det(a), det(a).inverse()))
    h = QQ.scalar("1/2")
    assert [type(x.value) for x in (h + h, h * QQ.scalar(2), h**0, h.inverse(), h * h)] == [int] * 4 + [Fraction]


def test_foreign_field_vectors_are_rejected():
    F5, F7 = GF(5), GF(7)
    sub = Subspace.from_rows(F5, 2, [[1, 0]])
    sup = Subspace.from_rows(F5, 2, [[1, 0], [0, 1]])
    reps, lead = _quotient_reps(sub, sup)
    for bad in ([F7.scalar(1), F7.scalar(0)], [QQ.scalar(1), F5.scalar(0)]):
        with pytest.raises(FieldMismatch):
            sub.contains_vector(bad)
        with pytest.raises(FieldMismatch):
            quotient_coords(sub, reps, lead, bad)
        with pytest.raises(FieldMismatch):
            Subspace.from_rows(F5, 2, [bad])
        with pytest.raises(FieldMismatch):
            Matrix.from_rows(F5, [bad])
    with pytest.raises(FieldMismatch):
        Matrix(F5, 1, 2, [F5.scalar(1), F7.scalar(1)])
    with pytest.raises(NotContained):
        quotient_coords(sub, [], [], [F5.scalar(0), F5.scalar(1)])


@pytest.mark.parametrize("ctx", [QQ, GF(5), GF(1000003)], ids=repr)
def test_matrix_unboxes_as_from_rows(ctx):
    """``Matrix`` takes Scalars, ints, Fractions and "a/b" strings as
    ``Matrix.from_rows`` does; a wrong entry count and a float are refused."""
    rows = [[ctx.scalar(3), 0, "1/2"], [Fraction(-2, 3), ctx.scalar("5/4"), 7]]
    flat = [x for row in rows for x in row]
    m = Matrix(ctx, 2, 3, flat)
    assert m == Matrix.from_rows(ctx, rows) and m.row_list() == [[ctx.scalar(x) for x in row] for row in rows]
    assert Matrix(ctx, 3, 2, flat) == Matrix.from_rows(ctx, [flat[:2], flat[2:4], flat[4:]])
    with pytest.raises(ValueError, match="entry count 6 != 2 x 2"):
        Matrix(ctx, 2, 2, flat)
    with pytest.raises(TypeError):
        Matrix(ctx, 1, 2, [1, 0.5])


def test_matrix_shape_is_a_nonnegative_int():
    """A negative count is refused, although its entry count matches, and so
    is a float count, although no entry has to be read for it."""
    with pytest.raises(ValueError, match="negative"):
        Matrix(QQ, -1, -2, [1, 0])
    with pytest.raises(TypeError):
        Matrix(QQ, 0, 2.5, [])
    assert Matrix(QQ, 0, 3, []).cols == 3
