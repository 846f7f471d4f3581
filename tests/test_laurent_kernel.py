"""The raw-value kernel of ``laurent`` against a boxed reference.

The reference below is the ``Scalar`` arithmetic that ``LaurentPoly``,
``TruncSeries`` and ``LaurentMatrix`` ran before they stored raw values,
written on dicts (exponent -> Scalar) and coefficient lists; every operation
must agree with it exactly, and every rational it returns must hold the
canonical raw form: an ``int`` exactly when it is integral, a ``Fraction``
otherwise.  ``Automorphism.image`` is checked against the round trip it
replaced: ``row_to_vec``, the reference product, ``vec_to_row`` (both
sides are sparse ``{slot: value}`` rows).
"""

import random
import time
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import GF, QQ, Automorphism, LaurentMatrix, LaurentPoly, TateSpace, TruncSeries, det_laurent
from tatekit.errors import InsufficientPrecision, NotInvertibleInLaurentRing
from tatekit.lattice import row_to_vec, vec_to_row
from tatekit.laurent import _det_and_inverse

FIELDS = [GF(2), GF(3), GF(1000003), QQ]
SETTINGS = settings(max_examples=80, deadline=None)


# -- boxed reference ---------------------------------------------------------


def ref_clean(f):
    return {e: c for e, c in f.items() if not c.is_zero()}


def ref_add(f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out[e] + c if e in out else c
    return ref_clean(out)


def ref_neg(f):
    return {e: -c for e, c in f.items()}


def ref_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e, p = e1 + e2, c1 * c2
            out[e] = out[e] + p if e in out else p
    return ref_clean(out)


def ref_from_poly(ctx, f):
    """A polynomial as a reference series (valuation, coefficients, exact)."""
    v, d = min(f), max(f)
    return v, [f.get(e, ctx.zero()) for e in range(v, d + 1)], True


def ref_to_poly(s):
    v, coeffs, _ = s
    return ref_clean({v + i: c for i, c in enumerate(coeffs)})


def ref_series_mul(ctx, s, t):
    if s[2] and t[2]:
        return ref_from_poly(ctx, ref_mul(ref_to_poly(s), ref_to_poly(t)))
    known = min(len(x[1]) for x in (s, t) if not x[2])
    a, b = s[1], t[1]
    out = []
    for k in range(known):
        acc = ctx.zero()
        for i in range(k + 1):
            x = a[i] if i < len(a) else ctx.zero()
            y = b[k - i] if k - i < len(b) else ctx.zero()
            acc = acc + x * y
        out.append(acc)
    return s[0] + t[0], out, False


def ref_inverse(ctx, s, precision):
    """The reference inverse, or the InsufficientPrecision need."""
    v, coeffs, exact = s
    if not exact and precision > len(coeffs):
        return precision
    u = list(coeffs) + [ctx.zero()] * max(0, precision - len(coeffs))
    inv0 = u[0].inverse()
    out = [inv0]
    for k in range(1, precision):
        acc = ctx.zero()
        for j in range(1, k + 1):
            acc = acc + u[j] * out[k - j]
        out.append(-acc * inv0)
    monomial = exact and len(coeffs) == 1
    return -v, out[:1] if monomial else out, monomial


def ref_mul_poly_mod(s, f, cutoff):
    """The reference ``s * f mod t^cutoff``, or the InsufficientPrecision need."""
    v, coeffs, exact = s
    need = max(cutoff - e - v for e in f)
    if not exact and need > len(coeffs):
        return need
    out = {}
    for e, c in f.items():
        for i in range(min(cutoff - e - v, len(coeffs))):
            if not coeffs[i].is_zero():
                x, p = e + v + i, c * coeffs[i]
                out[x] = out[x] + p if x in out else p
    return ref_clean(out)


def ref_det(ctx, rows):
    """Cofactor expansion along the first row of a matrix of term dicts."""
    if not rows:
        return {0: ctx.one()}
    if len(rows) == 1:
        return rows[0][0]
    acc = {}
    for j, f in enumerate(rows[0]):
        if f:
            term = ref_mul(f, ref_det(ctx, [r[:j] + r[j + 1 :] for r in rows[1:]]))
            acc = ref_add(acc, term if j % 2 == 0 else ref_neg(term))
    return acc


def ref_matmul(A, B):
    n = len(A)
    out = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i][j] = ref_add(out[i][j], ref_mul(A[i][k], B[k][j]))
    return out


def ref_gl_inverse(ctx, rows):
    """Adjugate over the unit determinant, or None when it is not c*t^k."""
    d = ref_det(ctx, rows)
    if len(d) != 1:
        return None
    ((e, c),) = d.items()
    mono, n = {-e: c.inverse()}, len(rows)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = ref_det(ctx, [r[:i] + r[i + 1 :] for k, r in enumerate(rows) if k != j])
            out[i][j] = ref_mul(cof if (i + j) % 2 == 0 else ref_neg(cof), mono)
    return out


def ref_apply(rows, vec):
    out = []
    for row in rows:
        acc = {}
        for f, x in zip(row, vec):
            acc = ref_add(acc, ref_mul(f, x))
        out.append(acc)
    return out


# -- inputs --------------------------------------------------------------------


@cache  # one strategy object per field: hypothesis validates each one it meets
def values(ctx):
    if ctx == QQ:
        return st.one_of(st.just(0), st.fractions(-3, 3, max_denominator=4))
    return st.one_of(st.just(0), st.just(1), st.just(ctx.modulus - 1), st.integers(0, ctx.modulus - 1))


@cache
def nonzero(ctx):
    """The nonzero ``values``, drawn without a filter that rejects whole draws."""
    if ctx == QQ:
        return st.fractions(-3, 3, max_denominator=4).filter(bool)
    return st.one_of(st.just(1), st.just(ctx.modulus - 1), st.integers(1, ctx.modulus - 1))


@cache
def term_dicts(ctx, max_size=4):
    """Raw inputs with zero coefficients among them, which must be dropped."""
    return st.dictionaries(st.integers(-4, 4), values(ctx), max_size=max_size)


def boxed(ctx, terms):
    return ref_clean({e: ctx.scalar(c) for e, c in terms.items()})


@st.composite
def series(draw, ctx):
    """(TruncSeries, reference triple)."""
    v = draw(st.integers(-3, 3))
    coeffs = [draw(nonzero(ctx))] + draw(st.lists(values(ctx), max_size=5))
    exact = draw(st.booleans())
    s = TruncSeries(ctx, v, coeffs, exact)
    ref = [ctx.scalar(c) for c in coeffs]
    while exact and len(ref) > 1 and ref[-1].is_zero():
        ref.pop()
    return s, (v, ref, exact)


@st.composite
def unit_matrices(draw, ctx, n):
    """Reference rows L * D * U: unitriangular L, U and a monomial diagonal D."""
    one = {0: ctx.one()}

    def tri(lower):
        return [
            [one if i == j else boxed(ctx, draw(term_dicts(ctx, 2))) if (i > j) == lower else {} for j in range(n)]
            for i in range(n)
        ]

    diag = [[{draw(st.integers(-2, 2)): ctx.scalar(draw(nonzero(ctx)))} if i == j else {} for j in range(n)] for i in range(n)]
    return ref_matmul(ref_matmul(tri(True), diag), tri(False))


def full_lu(ctx, n, rng):
    """Reference rows L * U: unitriangular L and U whose every off-diagonal
    entry is c*t^e, c nonzero and e in [-2, 2]."""
    one = {0: ctx.one()}

    def entry():
        return {rng.randint(-2, 2): ctx.scalar(rng.randint(1, 9))}

    def tri(lower):
        return [[one if i == j else entry() if (i > j) == lower else {} for j in range(n)] for i in range(n)]

    return ref_matmul(tri(True), tri(False))


def laurent_matrix(ctx, rows):
    return LaurentMatrix.from_rows(ctx, [[LaurentPoly(ctx, f) for f in row] for row in rows])


def canonical(x):
    """Whether a raw rational is in canonical form: an int exactly when it is
    integral, a Fraction otherwise, never a float."""
    return type(x) is (int if x.denominator == 1 else Fraction)


def assert_canonical(ctx, scalars):
    if ctx == QQ:
        assert all(canonical(x.value) for x in scalars)


def assert_raw_canonical(ctx, rows):
    if ctx == QQ:
        assert all(canonical(x) for row in rows for x in row)


# -- differential tests --------------------------------------------------------


@SETTINGS
@given(st.data())
def test_poly_ring_ops_match_reference(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    raw_f, raw_g = data.draw(term_dicts(ctx)), data.draw(term_dicts(ctx))
    k = data.draw(st.integers(-3, 3))
    f, g = LaurentPoly(ctx, raw_f), LaurentPoly(ctx, raw_g)
    rf, rg = boxed(ctx, raw_f), boxed(ctx, raw_g)
    assert f.terms == rf
    cases = [
        (f + g, ref_add(rf, rg)),
        (f - g, ref_add(rf, ref_neg(rg))),
        (-f, ref_neg(rf)),
        (f * g, ref_mul(rf, rg)),
        (f.shift(k), {e + k: c for e, c in rf.items()}),
    ]
    for got, want in cases:
        assert got.terms == want and got == LaurentPoly(ctx, want)
        assert_canonical(ctx, got.terms.values())
    assert str(f * g) == str(LaurentPoly(ctx, ref_mul(rf, rg)))


@SETTINGS
@given(st.data())
def test_series_ops_match_reference(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    s, rs = data.draw(series(ctx))
    t, rt = data.draw(series(ctx))
    assert (s.valuation, list(s.coeffs), s.exact) == rs
    prod = s * t
    assert (prod.valuation, list(prod.coeffs), prod.exact) == ref_series_mul(ctx, rs, rt)
    assert_canonical(ctx, prod.coeffs)

    precision = data.draw(st.integers(1, 8))
    want = ref_inverse(ctx, rs, precision)
    if isinstance(want, int):
        with pytest.raises(InsufficientPrecision) as err:
            s.inverse(precision)
        assert err.value.required == want
    else:
        inv = s.inverse(precision)
        assert (inv.valuation, list(inv.coeffs), inv.exact) == want
        assert_canonical(ctx, inv.coeffs)

    raw_f = data.draw(term_dicts(ctx).filter(lambda d: any(d.values())))
    f, cutoff = LaurentPoly(ctx, raw_f), data.draw(st.integers(-4, 8))
    want = ref_mul_poly_mod(rs, boxed(ctx, raw_f), cutoff)
    if isinstance(want, int):
        with pytest.raises(InsufficientPrecision) as err:
            s.mul_poly_mod(f, cutoff)
        assert (err.value.required, err.value.available) == (want, len(rs[1]))
    else:
        got = s.mul_poly_mod(f, cutoff)
        assert got.terms == want
        assert_canonical(ctx, got.terms.values())


def _check_matrix_ops(data, n):
    """det_laurent, the product, apply and the GL inverse of rank n against
    the cofactor reference, on random matrices and on row-permuted L * D * U
    units, whose permutation makes the elimination swap rows."""
    ctx = data.draw(st.sampled_from(FIELDS))
    size = 3 if n < 5 else 2  # keeps rank 6 within hypothesis's data budget

    def rows():
        return [[boxed(ctx, data.draw(term_dicts(ctx, size))) for _ in range(n)] for _ in range(n)]

    A, B = rows(), rows()
    m = laurent_matrix(ctx, A)
    assert det_laurent(m).terms == ref_det(ctx, A)
    assert [f.terms for f in (m * laurent_matrix(ctx, B)).entries] == [f for row in ref_matmul(A, B) for f in row]
    vec = [LaurentPoly(ctx, data.draw(term_dicts(ctx))) for _ in range(n)]
    assert [f.terms for f in m.apply(vec)] == ref_apply(A, [f.terms for f in vec])
    want = ref_gl_inverse(ctx, A)
    if want is None:
        with pytest.raises(NotInvertibleInLaurentRing):
            kernel_inverse(m)
    else:
        assert [f.terms for f in kernel_inverse(m).entries] == [f for row in want for f in row]

    U = data.draw(unit_matrices(ctx, n))
    U = [U[i] for i in data.draw(st.permutations(range(n)))]
    u = laurent_matrix(ctx, U)
    inv = kernel_inverse(u)
    assert [f.terms for f in inv.entries] == [f for row in ref_gl_inverse(ctx, U) for f in row]
    assert det_laurent(u).terms == ref_det(ctx, U)
    assert_canonical(ctx, [c for f in inv.entries + (det_laurent(u),) for c in f.terms.values()])


@SETTINGS
@given(st.data())
def test_matrix_ops_match_reference(data):
    _check_matrix_ops(data, data.draw(st.integers(1, 4)))


@settings(max_examples=25, deadline=None)  # the cofactor reference is factorial in the rank
@given(st.data())
def test_matrix_ops_match_reference_at_ranks_5_and_6(data):
    _check_matrix_ops(data, data.draw(st.integers(5, 6)))


@pytest.mark.parametrize("ctx", [QQ, GF(1000003)], ids=str)
def test_rank_8_gl_inverse_takes_polynomial_time(ctx):
    """A rank-8 full L * U is built, inverted and composed with its inverse
    within 1 s; the cofactor path it replaced took seconds for the inverse."""
    A = full_lu(ctx, 8, random.Random(8))
    m = laurent_matrix(ctx, A)
    start = time.perf_counter()
    g = Automorphism.gl(m)
    assert g.compose(g.inverse()).is_identity()
    assert time.perf_counter() - start < 1.0
    if ctx == QQ:  # one reference determinant: its cofactor expansion takes seconds
        assert det_laurent(m).terms == ref_det(ctx, A) and g.det_valuation() == 0


def kernel_inverse(m):
    """m^-1 as a GL automorphism computes it; rank 1 included, where the
    automorphism is MultBy and keeps no matrix."""
    return _det_and_inverse(m)[1]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("ctx", [QQ, GF(3), GF(1000003)], ids=str)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_computed_matrices_equal_the_checked_constructor(ctx, n, data):
    """The product and the GL inverse are built unchecked: each equals, and
    hashes like, its entries passed through the checked ``LaurentMatrix``,
    and each entry its terms passed through the checked ``LaurentPoly``."""
    a = laurent_matrix(ctx, [[boxed(ctx, data.draw(term_dicts(ctx, 3))) for _ in range(n)] for _ in range(n)])
    u = laurent_matrix(ctx, data.draw(unit_matrices(ctx, n)))
    for m in (a * u, u * a, kernel_inverse(u)):
        checked = LaurentMatrix(ctx, n, m.entries)
        assert type(m.entries) is tuple and m == checked and hash(m) == hash(checked)
        for f in m.entries:
            g = LaurentPoly(ctx, f._terms)
            assert f == g and hash(f) == hash(g)


@st.composite
def windows(draw, rank):
    """(a, b, dimension) of a source window t^-b O^n / t^a O^n."""
    b = draw(st.integers(-2, 3))
    a = draw(st.integers(-b, 3))
    dim = rank * (a + b)
    return a, b, dim


def _image_case(data, ctx, rank, low):
    """Sparse raw source rows on absolute slots, their window and a target
    window; ``low`` is v(g).  A row may hold slots up to two blocks past the
    source window's top, as the rows that ``act`` adds for GL do."""
    a1, b1, dim = data.draw(windows(rank))
    width = dim + rank * data.draw(st.integers(0, 2))
    rows = [
        {j - b1 * rank: x for j in range(width) if (x := ctx.raw(data.draw(values(ctx))))}
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    b2 = b1 - low + data.draw(st.integers(-2, 1))  # b1 - low always holds every image
    a2 = data.draw(st.integers(-b2, -b2 + 10))
    return rows, (a1, b1), (a2, b2)


def _check_image(g, space, rows, a2, ref_images):
    """``g.image`` on the sparse source rows against ``vec_to_row`` of ``ref_images``."""
    want = [vec_to_row(space, a2, [LaurentPoly(space.ctx, f) for f in img]) for img in ref_images]
    got = g.image(rows, a2)
    assert got == want
    assert_raw_canonical(space.ctx, [row.values() for row in got])


@SETTINGS
@given(st.data())
def test_gl_image_matches_round_trip(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(2, 3))
    space = TateSpace(ctx, n)
    U = data.draw(unit_matrices(ctx, n))
    g = Automorphism.gl(laurent_matrix(ctx, U))
    rows, src, dst = _image_case(data, ctx, n, g.valuations()[0])
    images = [ref_apply(U, [f.terms for f in row_to_vec(space, row)]) for row in rows]
    _check_image(g, space, rows, dst[0], images)


@SETTINGS
@given(st.data())
def test_mult_image_matches_round_trip(data):
    ctx = data.draw(st.sampled_from(FIELDS))
    space = TateSpace(ctx, 1)
    s, rs = data.draw(series(ctx))
    g = Automorphism.mult_by(s)
    rows, src, dst = _image_case(data, ctx, 1, s.valuation)
    vecs = [row_to_vec(space, row)[0].terms for row in rows]
    # One precision check for the batch: the largest need of any vector.
    need = max((dst[0] - e - s.valuation for f in vecs for e in f), default=0)
    if not s.exact and need > s.precision:
        with pytest.raises(InsufficientPrecision) as err:
            g.image(rows, dst[0])
        assert err.value.required == need
        return
    images = [[ref_mul_poly_mod(rs, f, dst[0]) if f else {}] for f in vecs]
    _check_image(g, space, rows, dst[0], images)


def test_fractions_that_cancel_are_stored_as_ints():
    """Every producer over Q makes an integral result an int, even when it
    is a sum or product of Fractions: polynomial and series arithmetic, the
    series inverse, the GL inverse and ``image``."""
    h = Fraction(1, 2)
    f = LaurentPoly(QQ, {0: h, 1: h})  # (1 + t) / 2
    series = TruncSeries(QQ, 0, [h, -h, h], False)
    halves = [LaurentPoly(QQ, {0: h}), LaurentPoly(QQ, {0: h})]
    g = Automorphism.gl(LaurentMatrix.from_rows(QQ, [halves, [LaurentPoly.zero(QQ), LaurentPoly.one(QQ)]]))

    def by_slot(row):
        return [row[s] for s in sorted(row)]

    raws = [
        list((f * LaurentPoly(QQ, {0: 2}))._terms.values()),
        list((f + f)._terms.values()),
        [c.value for c in (series * TruncSeries(QQ, 0, [2, 4, 6], False)).coeffs],
        [c.value for c in series.inverse().coeffs],  # 2 / (1 - t + t^2) = 2 + 2t + 0t^2 + O(t^3)
        [c.value for c in TruncSeries.from_poly(f).inverse(3).coeffs],
        by_slot(Automorphism.mult_by(f).image([{-1: 1, 0: 1}], 2)[0]),  # t^-1, 1 -> t^-1, 1, t
        by_slot(g.image([{0: 1, 1: 1}], 1)[0]),  # e_0 + e_1
        *[list(e._terms.values()) for e in g.inverse().matrix.entries],
    ]
    assert raws == [[1, 1], [1, 1], [1, 1, 2], [2, 2, 0], [2, -2, 2], [h, 1, h], [1, 1], [2], [-1], [], [1]]
    assert_raw_canonical(QQ, raws)
