"""The sparse-row kernel of ``linalg`` against the dense raw kernel it replaced.

The reference below is the raw-value Gauss-Jordan, reduction and Zassenhaus
meet that ``linalg`` ran on dense row lists before its rows became
``{column: nonzero raw value}`` dicts.  Inputs are window-shaped, as the
lattice layer builds them: mostly unit rows, a few sparse rows, some repeated
or combined.  Every result must equal the reference, and every stored row
must keep the invariants: no stored zero, keys in ``[0, cols)``, every
rational in canonical form (an ``int`` exactly when it is integral, a
``Fraction`` otherwise), and equality and hashing independent of the
order the keys were inserted in.  The Q kernels themselves are also checked
against plain ``Fraction`` arithmetic (``q_kernel``).
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import q_kernel
import tatekit.linalg as linalg
from tatekit import (
    GF,
    QQ,
    Automorphism,
    LaurentMatrix,
    LaurentPoly,
    Matrix,
    Scalar,
    Subspace,
    TateSpace,
    act,
    det,
    index0,
)
from tatekit.fields import _inv, _mul, _neg
from tatekit.linalg import subspace_contains
from tatekit.verify import rand_gl, rand_lattice, rand_mult

FIELDS = [GF(2), GF(3), GF(1000003), QQ]
SETTINGS = settings(max_examples=120, deadline=None)


# -- dense raw reference -------------------------------------------------------


def _dense_submul(p, vec, f, row):
    if p is None:
        return [v - f * r if r else v for v, r in zip(vec, row)]
    return [(v - f * r) % p if r else v for v, r in zip(vec, row)]


def ref_dense_rref_rows(ctx, rows):
    """Column-by-column Gauss-Jordan on dense raw rows; (rows, pivots)."""
    p = ctx.modulus
    rows = list(rows)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        if lead != 1:
            inv = _inv(p, lead)
            rows[r] = [inv * x for x in rows[r]] if p is None else [inv * x % p for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = _dense_submul(p, rows[i], f, prow)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def ref_dense_reduce(p, rows, pivots, vec):
    for row, c in zip(rows, pivots):
        f = vec[c]
        if f:
            vec = _dense_submul(p, vec, f, row)
    return vec


def ref_dense_basis(ctx, rows):
    red, pivots = ref_dense_rref_rows(ctx, rows)
    return red[: len(pivots)], pivots


def ref_dense_intersect(ctx, n, rows_a, piv_a, rows_b):
    """The Zassenhaus meet of two dense RREF bases, eliminated in full."""
    if not rows_a or not rows_b:
        return [], []
    p = ctx.modulus
    rows = [ref_dense_reduce(p, rows_a, piv_a, row) + row for row in rows_b]
    red, pivots = ref_dense_rref_rows(ctx, rows)
    k = next((i for i, c in enumerate(pivots) if c >= n), len(pivots))
    return [row[n:] for row in red[k : len(pivots)]], [c - n for c in pivots[k:]]


def ref_pivot_det(ctx, rows):
    """The column-pivoting determinant on sparse raw rows that ``det`` ran
    before its row echelon elimination: for each column, the first row at or
    below it holding that column is swapped up and clears the rows below."""
    p, n = ctx.modulus, len(rows)
    rows = list(rows)
    acc = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if c in rows[i]), None)
        if piv is None:
            return 0
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
                linalg._submul(p, rows[i], _mul(p, x, inv), prow)
    return acc


# -- inputs --------------------------------------------------------------------


def values(ctx):
    if ctx == QQ:
        return st.fractions(-3, 3, max_denominator=4).filter(bool)
    return st.integers(1, ctx.modulus - 1)


@st.composite
def window_rows(draw, ctx, dim):
    """Dense raw rows of k^dim: mostly unit rows, a few sparse ones."""
    rows = []
    for _ in range(draw(st.integers(0, dim + 2))):
        row = [0] * dim
        kind = draw(st.integers(0, 9))
        if kind < 6:  # a unit row
            row[draw(st.integers(0, dim - 1))] = 1
        elif kind < 9:  # a sparse row
            for _ in range(draw(st.integers(1, 3))):
                row[draw(st.integers(0, dim - 1))] = ctx.raw(draw(values(ctx)))
        elif rows:  # a combination of two earlier rows
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = ctx.raw(draw(values(ctx)))
            row = [ctx.raw(u + c * v) for u, v in zip(x, y)]
        rows.append(row)
    return rows


@st.composite
def cases(draw, count=1):
    ctx = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 16))
    return ctx, dim, [draw(window_rows(ctx, dim)) for _ in range(count)]


@st.composite
def square_cases(draw):
    """(ctx, rows): square sparse raw rows, general, triangular, permuted
    triangular or singular."""
    ctx = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["general", "upper", "lower", "permuted", "singular"]))
    rows = []
    for i in range(n):
        if kind == "general":
            cols = range(n) if draw(st.booleans()) else draw(st.sets(st.integers(0, n - 1), max_size=3))
        else:
            cols = range(i, n) if kind != "lower" else range(i + 1)
        rows.append({j: ctx.raw(draw(values(ctx))) for j in cols if j == i or draw(st.booleans())})
    if kind == "permuted":
        rows = draw(st.permutations(rows))
    if kind == "singular" and n > 1:  # a row x - c*y of two others, 0 if x = y and c = 1
        i = draw(st.integers(0, n - 1))
        others = rows[:i] + rows[i + 1 :]
        x, y = draw(st.sampled_from(others)), draw(st.sampled_from(others))
        rows[i] = dict(x)
        linalg._submul(ctx.modulus, rows[i], ctx.raw(draw(values(ctx))), y)
    return ctx, rows


def sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def dense(dim, row):
    return [row.get(j, 0) for j in range(dim)]


def assert_invariants(m):
    """No stored zero, keys in [0, cols), raw values of the field, and a
    hash and equality that ignore key insertion order."""
    ctx = m.ctx
    for row in m._data:
        assert type(row) is dict
        for j, x in row.items():
            assert 0 <= j < m.cols and x
            if ctx == QQ:
                assert type(x) is (int if x.denominator == 1 else Fraction)
            else:
                assert type(x) is int and 0 < x < ctx.modulus
    shuffled = Matrix._raw(ctx, m.cols, [dict(reversed(row.items())) for row in m._data])
    assert shuffled == m and hash(shuffled) == hash(m)


def boxed(ctx, rows):
    return [[ctx.scalar(x) for x in row] for row in rows]


# -- differential tests --------------------------------------------------------


@SETTINGS
@given(cases())
def test_rref_matches_dense_reference(case):
    ctx, dim, (rows,) = case
    if not rows:
        return
    m = Matrix.from_rows(ctx, boxed(ctx, rows))
    assert_invariants(m)
    at = linalg._rref_rows(ctx, m._data)
    red = Matrix._raw(ctx, m.cols, at.values())
    ref_rows, ref_pivots = ref_dense_rref_rows(ctx, rows)
    assert list(at) == ref_pivots
    assert [dense(dim, row) for row in red._data] == ref_rows[: len(ref_pivots)]
    assert_invariants(red)
    got = linalg._rref_rows(ctx, [sparse(row) for row in rows])
    got_rows, got_pivots = list(got.values()), list(got)
    assert got_pivots == ref_pivots and got_rows == [sparse(row) for row in ref_rows[: len(ref_pivots)]]


def _order_case(ctx, rng):
    """Dense raw rows of k^dim in a seeded mix: zero, unit, sparse and dense
    rows, duplicates and combinations of earlier rows; over Q the values
    include proper Fractions."""

    def value():
        if ctx == QQ:
            return ctx.raw(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 4)))
        return rng.randint(1, ctx.modulus - 1)

    dim = rng.randint(1, 12)
    rows = []
    for _ in range(rng.randint(0, dim + 4)):
        kind = rng.randrange(6)
        row = [0] * dim
        if kind == 1:  # a unit row
            row[rng.randrange(dim)] = 1
        elif kind == 2:  # a sparse row
            for j in rng.sample(range(dim), min(dim, rng.randint(1, 3))):
                row[j] = value()
        elif kind == 3:  # a dense row
            row = [value() for _ in range(dim)]
        elif kind == 4 and rows:  # a duplicate
            row = list(rng.choice(rows))
        elif kind == 5 and rows:  # a combination of two earlier rows
            x, y, c = rng.choice(rows), rng.choice(rows), value()
            row = [ctx.raw(u + c * v) for u, v in zip(x, y)]
        rows.append(row)  # kind 0, or 4 and 5 with no earlier row: a zero row
    return dim, rows


@pytest.mark.parametrize("ctx", [QQ, GF(3), GF(1000003)], ids=str)
def test_rref_is_independent_of_the_row_order(ctx):
    """``_rref_rows`` eliminates the sparsest rows first; RREF is unique, so
    the given order, the reversed order and a shuffle give the same pivot map
    as the column-by-column reference, and no input dict is modified."""
    rng = random.Random(1957)
    for _ in range(150):
        dim, rows = _order_case(ctx, rng)
        ref_rows, ref_pivots = ref_dense_rref_rows(ctx, rows)
        want = {c: sparse(row) for c, row in zip(ref_pivots, ref_rows)}
        given_rows = [sparse(row) for row in rows]
        shuffled = list(given_rows)
        rng.shuffle(shuffled)
        for order in (given_rows, given_rows[::-1], shuffled):
            before = [dict(row) for row in order]
            got = linalg._rref_rows(ctx, order)
            assert order == before and [list(row) for row in order] == [list(row) for row in before]
            assert list(got) == ref_pivots and got == want
            assert_invariants(Matrix._raw(ctx, dim, got.values()))


def test_rank_8_gl_index_eliminates_sparse_rows_first(monkeypatch):
    """The CI step's rank-8 L * U over Q: ``index0`` eliminates its image rows
    with at most 3,500 row operations (5,893 when the rows enter in the order
    ``act`` builds them).  Counted, not timed."""
    rng, n = random.Random(8), 8

    def entry(i, j, lower):
        if i == j:
            return LaurentPoly.one(QQ) if lower else LaurentPoly.t(QQ, i % 3)
        if (i > j) == lower:
            return LaurentPoly.t(QQ, rng.randint(-2, 2), rng.randint(1, 9))
        return LaurentPoly.zero(QQ)

    L, U = (LaurentMatrix.from_rows(QQ, [[entry(i, j, low) for j in range(n)] for i in range(n)]) for low in (True, False))
    g = Automorphism.gl(L * U)
    real, calls = linalg._submul, []
    monkeypatch.setattr(linalg, "_submul", lambda *args: calls.append(1) or real(*args))
    assert index0(g) == 7
    assert len(calls) <= 3500


@settings(max_examples=200, deadline=None)
@given(square_cases())
def test_det_matches_pivot_reference(case):
    ctx, rows = case
    n = len(rows)
    value = det(Matrix._raw(ctx, n, rows))
    assert value == Scalar(ctx, ref_pivot_det(ctx, rows))
    assert det(Matrix.from_rows(ctx, boxed(ctx, [dense(n, row) for row in rows]))) == value
    if ctx == QQ:
        assert type(value.value) is (int if value.value.denominator == 1 else Fraction)


@SETTINGS
@given(cases(count=2))
def test_meet_sum_and_membership_match_dense_reference(case):
    ctx, dim, (rows_a, rows_b) = case
    p = ctx.modulus
    a = Subspace.from_rows(ctx, dim, boxed(ctx, rows_a))
    b = Subspace.from_rows(ctx, dim, boxed(ctx, rows_b))
    ref_a, piv_a = ref_dense_basis(ctx, rows_a)
    ref_b, piv_b = ref_dense_basis(ctx, rows_b)
    for s, ref in ((a, ref_a), (b, ref_b)):
        assert [dense(dim, row) for row in s.basis._data] == ref
        assert_invariants(s.basis)
    for x, y, ref_x, piv_x, ref_y in ((a, b, ref_a, piv_a, ref_b), (b, a, ref_b, piv_b, ref_a)):
        meet = Subspace(ctx, dim, linalg._meet(ctx, x._at, y._at, dim))
        want_rows, want_piv = ref_dense_intersect(ctx, dim, ref_x, piv_x, ref_y)
        assert [dense(dim, row) for row in meet.basis._data] == want_rows
        assert list(meet.pivots) == want_piv
        assert_invariants(meet.basis)
        for row in ref_y:
            rest = ref_dense_reduce(p, ref_x, piv_x, row)
            assert dense(dim, x._remainder(sparse(row))) == rest
        assert subspace_contains(x, y) == all(not any(ref_dense_reduce(p, ref_x, piv_x, r)) for r in ref_y)
    total = Subspace(ctx, dim, linalg._rref_rows(ctx, [*a._at.values(), *b._at.values()]))
    assert [dense(dim, row) for row in total.basis._data] == ref_dense_basis(ctx, rows_a + rows_b)[0]
    assert_invariants(total.basis)


@SETTINGS
@given(cases(count=2))
def test_nested_meet_runs_no_elimination(case):
    ctx, dim, (rows_a, rows_b) = case
    big = Subspace.from_rows(ctx, dim, boxed(ctx, rows_a + rows_b))
    small = Subspace.from_rows(ctx, dim, boxed(ctx, rows_b))
    real, calls = linalg._rref_rows, []
    linalg._rref_rows = lambda ctx, rows: calls.append(len(rows)) or real(ctx, rows)
    try:
        meet = Subspace(ctx, dim, linalg._meet(ctx, big._at, small._at, dim))
    finally:
        linalg._rref_rows = real
    assert calls == []
    assert meet == small and meet.pivots == small.pivots


def test_window_lattices_keep_invariants():
    rng = random.Random(71)
    for ctx in FIELDS:
        for rank in (1, 2, 3):
            space = TateSpace(ctx, rank)
            for _ in range(6):
                L = rand_lattice(space, rng, 2)
                g = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
                gL = act(g, L)
                for s in (L.window_subspace(L.a, L.b), L.window_subspace(L.a + 2, L.b + 1), gL.window_subspace(gL.a, gL.b)):
                    assert_invariants(s.basis)
                    assert s == Subspace.from_rows(ctx, s.ambient_dim, s.basis.row_list())


@pytest.mark.parametrize("seed", range(4))
def test_q_kernels_match_the_fraction_reference(seed):
    """Every Q kernel that computes on numerators and denominators equals
    plain ``Fraction`` arithmetic, stores canonical values only and leaves its
    inputs alone (``q_kernel``, also runnable without pytest)."""
    q_kernel.run(cases=60, seed=seed)
