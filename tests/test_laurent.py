import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import (
    GF,
    QQ,
    Automorphism,
    LaurentMatrix,
    LaurentPoly,
    TruncSeries,
    det_laurent,
    parse_laurent,
    parse_laurent_matrix,
)
from tatekit.errors import (
    FieldMismatch,
    InsufficientPrecision,
    NotInvertibleInLaurentRing,
    SpaceMismatch,
    TateKitError,
    ZeroElement,
)
from tatekit.laurent import _TERM_RE, _split_terms


def P(text, ctx=QQ):
    return parse_laurent(ctx, text)


def test_ring_ops():
    assert P("1+t") * P("1-t") == P("1-t^2")
    assert P("t^-1") * P("t") == P("1")
    F5 = GF(5)
    assert P("1+2*t", F5) + P("3*t^-2", F5) == P("3*t^-2+1+2*t", F5)


def test_valuation():
    assert P("t").valuation() == 1
    assert P("3*t^-2 + t^5").valuation() == -2
    assert P("1-t").valuation() == 0
    with pytest.raises(ZeroElement):
        LaurentPoly.zero(QQ).valuation()


def test_laurent_poly_rejects_a_non_integer_exponent():
    with pytest.raises(TypeError):
        LaurentPoly(QQ, {2.5: 1})
    assert LaurentPoly(QQ, {True: 1}) == P("t")


def test_trunc_series_rejects_a_non_integer_valuation():
    with pytest.raises(TypeError):
        TruncSeries(QQ, 1.9, [1, 2], True)
    assert TruncSeries(QQ, True, [1, 2], True) == TruncSeries.from_poly(P("t+2*t^2"))


def test_coeff_takes_only_an_integer_exponent():
    f = P("2 + 3*t")
    series = [TruncSeries.from_poly(f), TruncSeries(QQ, 0, [2, 3], False)]
    for g in (f, *series):
        for bad in (0.5, 1.0, Fraction(1), "1", None):
            with pytest.raises(TypeError):
                g.coeff(bad)
        assert g.coeff(True) == QQ.scalar(3) and g.coeff(0) == QQ.scalar(2)


def test_laurent_poly_shift_rejects_a_non_integer_exponent():
    with pytest.raises(TypeError):
        LaurentPoly.t(QQ, 2).shift(0.4)
    assert LaurentPoly.t(QQ, 2).shift(True) == P("t^3")


def test_invert_series_geometric():
    g = TruncSeries.from_poly(P("1-t")).inverse(4)
    assert g.valuation == 0 and not g.exact
    assert [str(c) for c in g.coeffs] == ["1", "1", "1", "1"]


def test_invert_series_monomial_exact():
    g = TruncSeries.from_poly(P("t^2")).inverse(1)
    assert g.exact and g.valuation == -2 and str(g.coeffs[0]) == "1"


def test_invert_series_rational():
    g = TruncSeries.from_poly(P("2+t")).inverse(2)
    assert [str(c) for c in g.coeffs] == ["1/2", "-1/4"]
    assert g.valuation == 0 and not g.exact


def test_invert_series_product_is_one():
    rng = random.Random(3)
    for trial in range(100):
        ctx = QQ if trial % 2 else GF(5)
        v = rng.randint(-5, 5)
        terms = {v: 1 if ctx.kind == "Q" else rng.randrange(1, 5)}
        for e in range(v + 1, v + rng.randint(1, 4)):
            terms[e] = rng.randint(-2, 2)
        f = LaurentPoly(ctx, terms)
        N = rng.randint(1, 8)
        g = TruncSeries.from_poly(f).inverse(N)
        prod = TruncSeries.from_poly(f) * g
        # f*g = 1 + O(t^N): leading coefficient one, the rest of the window zero
        assert prod.valuation == 0 and prod.coeffs[0].is_one()
        assert all(c.is_zero() for c in prod.coeffs[1:N])


def ref_inverse(s, precision=None):
    """(terms, top) of the inverse by the dense recurrence, one step per offset."""
    from tatekit.fields import _inv, _mul
    from tatekit.laurent import DEFAULT_PRECISION

    if precision is None:
        precision = s.precision if not s.exact else max(DEFAULT_PRECISION, s.precision)
    v, p = s.valuation, s.ctx.modulus
    tail = sorted((e - v, c) for e, c in s._terms.items() if 0 < e - v < precision)
    inv0, mono = _inv(p, s._terms[v]), s.is_monomial()
    out = [inv0]
    for k in range(1, 1 if mono else precision):
        acc = sum(c * out[k - j] for j, c in tail if j <= k)
        out.append(_mul(p, -acc, inv0))
    return {k - v: x for k, x in enumerate(out) if x}, None if mono else len(out) - v


def test_inverse_steps_by_the_gcd_of_the_tail():
    rng = random.Random(13)
    for trial in range(300):
        ctx = QQ if trial % 2 else GF(7)
        step = rng.choice([1, 2, 3, 5, 12])
        v = rng.randint(-4, 4)
        coeffs = [0] * (step * rng.randint(0, 6) + 1)
        coeffs[0] = rng.randint(1, 6)
        for k in range(step, len(coeffs), step):
            coeffs[k] = rng.choice([0, 0, 1, -2, 3])
        if rng.random() < 0.3:
            coeffs.extend([0] * rng.randint(0, 3))
        s = TruncSeries(ctx, v, coeffs, exact=rng.random() < 0.5)
        precision = rng.choice([None, 0, 1, rng.randint(1, s.precision)] if not s.exact else [None, 0, rng.randint(1, 40)])
        if precision == 0:
            with pytest.raises(ValueError):
                s.inverse(precision)
            continue
        got = s.inverse(precision)
        assert (got._terms, got.top) == ref_inverse(s, precision)
    start = time.perf_counter()
    g = Automorphism.mult_by(P("t^1000000+1")).inverse()
    assert time.perf_counter() - start < 0.1
    assert (g.series._terms, g.series.top) == ({0: 1, 1000000: -1}, 1000001)


def test_truncseries_precision_guard():
    g = TruncSeries.from_poly(P("1-t")).inverse(3)
    with pytest.raises(InsufficientPrecision):
        g.coeff(3)
    with pytest.raises(InsufficientPrecision):
        g.inverse(5)
    assert str(g.coeff(2)) == "1"


def test_inverse_refuses_a_precision_below_1():
    f = TruncSeries.from_poly(P("1+t"))
    for precision in (0, -3):
        with pytest.raises(ValueError):
            f.inverse(precision)
    with pytest.raises(TypeError):
        f.inverse(2.0)
    assert str(f.inverse(1)) == "1*t^0 + O(t^1)"


def test_det_and_inverse_diagonal():
    m = parse_laurent_matrix(QQ, "t,0;0,t^2")
    assert det_laurent(m) == P("t^3")
    assert Automorphism.gl(m).inverse().matrix == parse_laurent_matrix(QQ, "t^-1,0;0,t^-2")


def test_det_and_inverse_unipotent():
    m = parse_laurent_matrix(QQ, "1,1;0,1")
    assert det_laurent(m) == P("1")
    assert Automorphism.gl(m).inverse().matrix == parse_laurent_matrix(QQ, "1,-1;0,1")


def test_det_and_inverse_mixed():
    m = parse_laurent_matrix(QQ, "1,t;t^-1,2")
    assert det_laurent(m) == P("1")
    assert Automorphism.gl(m).inverse().matrix == parse_laurent_matrix(QQ, "2,-t;-1*t^-1,1")


def test_det_and_inverse_with_a_row_swap():
    m = parse_laurent_matrix(QQ, "0,t;2,1")
    assert det_laurent(m) == P("-2*t")
    assert Automorphism.gl(m).inverse().matrix == parse_laurent_matrix(QQ, "-1/2*t^-1,1/2;t^-1,0")


def test_not_invertible():
    with pytest.raises(NotInvertibleInLaurentRing):
        Automorphism.gl(parse_laurent_matrix(QQ, "1+t,0;0,1"))
    with pytest.raises(NotInvertibleInLaurentRing, match="determinant 0 is not"):
        Automorphism.gl(parse_laurent_matrix(QQ, "1,t;t^-1,1"))


def test_gl_inverse_two_sided_and_det_multiplicative():
    rng = random.Random(9)
    F5 = GF(5)
    from tatekit.verify import rand_gl

    for _ in range(25):
        g = rand_gl(F5, 2, rng)
        h = rand_gl(F5, 2, rng)
        gi = g.inverse().matrix
        assert g.matrix * gi == LaurentMatrix.identity(F5, 2)
        assert gi * g.matrix == LaurentMatrix.identity(F5, 2)
        assert det_laurent(g.matrix * h.matrix) == det_laurent(g.matrix) * det_laurent(h.matrix)


def test_valuation_multiplicative():
    rng = random.Random(2)
    for trial in range(100):
        ctx = GF(5) if trial % 2 else QQ
        from tatekit.verify import rand_unit_poly

        f = rand_unit_poly(ctx, rng, -5, 5)
        g = rand_unit_poly(ctx, rng, -5, 5)
        assert (f * g).valuation() == f.valuation() + g.valuation()


def test_parser_grammar():
    assert P("3*t^-2 + 1 + 5*t^3") == LaurentPoly(QQ, {-2: 3, 0: 1, 3: 5})
    assert P("t") == LaurentPoly(QQ, {1: 1})
    assert P("t^2") == LaurentPoly(QQ, {2: 1})
    assert P("-t") == LaurentPoly(QQ, {1: -1})
    assert P("1-t") == LaurentPoly(QQ, {0: 1, 1: -1})
    assert P("1/2*t^-1") == LaurentPoly(QQ, {-1: QQ.scalar("1/2")})
    assert P(" 1 + 2*t ") == LaurentPoly(QQ, {0: 1, 1: 2})
    with pytest.raises(ValueError):
        P("t^^2")
    with pytest.raises(ValueError):
        P("")


def ref_parse(ctx, text):
    """The per-term ``LaurentPoly`` sum that ``parse_laurent`` was before it
    added every term into one dict: the reference for its values and errors."""
    raw = text.replace(" ", "").replace("\t", "")
    if not raw:
        raise ValueError("empty Laurent expression")
    acc = LaurentPoly.zero(ctx)
    for part in _split_terms(raw):
        sign = 1
        if part.startswith("-"):
            sign, part = -1, part[1:]
        elif part.startswith("+"):
            part = part[1:]
        m = _TERM_RE.match(part)
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError("bad Laurent term %r in %r" % (part, text))
        coeff = ctx.scalar(m.group("coeff")) if m.group("coeff") else ctx.one()
        if sign < 0:
            coeff = -coeff
        if m.group("t"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        acc = acc + LaurentPoly(ctx, {exp: coeff})
    return acc


@st.composite
def laurent_texts(draw):
    """Term strings with repeated exponents, terms that cancel, fractions
    (over F_p some with a denominator divisible by p) and now and then a
    malformed term."""
    terms = []
    for _ in range(draw(st.integers(1, 8))):
        coeff = draw(st.sampled_from(["", "0", "1", "2", "3", "7", "1/2", "2/3", "5/7", "3/5", "4/2"]))
        exp = draw(st.integers(-3, 3))
        body = draw(st.sampled_from(["%s*t^%d", "%st^%d", "%s"]))
        term = body % (coeff, exp) if "t" in body else coeff
        if not term:
            term = "t"
        terms.append(draw(st.sampled_from(["", "-"])) + term)
        if draw(st.integers(0, 3)) == 0:  # the same term with the other sign
            terms.append(term if terms[-1].startswith("-") else "-" + term)
        if draw(st.integers(0, 19)) == 0:
            terms.append(draw(st.sampled_from(["t^^2", "3**t", "x", "1/", "t^", "2*"])))
    text = terms[0]
    for term in terms[1:]:
        text += draw(st.sampled_from([" + ", "+"])) + term if not term.startswith("-") else term
    return text


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, TateKitError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]), laurent_texts())
def test_parse_matches_the_per_term_sum(ctx, text):
    assert outcome(parse_laurent, ctx, text) == outcome(ref_parse, ctx, text)


def test_parse_is_linear_in_the_terms():
    text = " + ".join("%d/%d*t^%d" % (i % 7 - 3, i % 4 + 1, i % 5000 - 2500) for i in range(10000))
    want = {}
    for i in range(10000):
        e = i % 5000 - 2500
        want[e] = want.get(e, 0) + Fraction(i % 7 - 3, i % 4 + 1)
    start = time.perf_counter()
    f = parse_laurent(QQ, text)
    assert time.perf_counter() - start < 1.0
    assert f == LaurentPoly(QQ, want)


def test_str_parses_back():
    rng = random.Random(4)
    from tatekit.verify import rand_unit_poly

    for _ in range(30):
        f = rand_unit_poly(QQ, rng, -4, 4)
        assert parse_laurent(QQ, str(f)) == f


def test_compose_and_identity():
    t = Automorphism.mult_by(P("t"))
    tinv = Automorphism.mult_by(P("t^-1"))
    assert t.compose(tinv).is_identity()
    gl1 = Automorphism.gl(parse_laurent_matrix(QQ, "t"))
    assert gl1 == t and gl1.compose(tinv).is_identity()  # rank 1 is always MultBy
    with pytest.raises(ValueError):
        Automorphism(Automorphism.GL, matrix=parse_laurent_matrix(QQ, "t"))
    assert Automorphism.identity(QQ, 2).is_identity()
    u = Automorphism.mult_by(P("1-t"))
    ui = u.inverse(6)
    prod = u.compose(ui)
    assert prod.series.valuation == 0 and prod.series.coeffs[0].is_one()


def test_gl_needs_a_laurent_matrix():
    for matrix in (None, parse_laurent_matrix(QQ, "t,0;0,1").entries):
        with pytest.raises(TypeError, match="GL needs a LaurentMatrix"):
            Automorphism(Automorphism.GL, matrix=matrix)


def test_gl_refuses_rank_0():
    with pytest.raises(ValueError, match="rank must be positive"):
        Automorphism.gl(parse_laurent_matrix(QQ, ";"))


def test_automorphism_keeps_its_determinant(monkeypatch):
    import tatekit.laurent as laurent

    calls = []
    real = laurent._eliminate
    monkeypatch.setattr(laurent, "_eliminate", lambda ctx, rows: calls.append(rows) or real(ctx, rows))
    m = parse_laurent_matrix(QQ, "t,1+t;0,t")
    g = Automorphism.gl(m)
    assert g.det_valuation() == 2
    gi = g.inverse()
    assert len(calls) == 1  # the constructor's elimination only
    assert gi.det_valuation() == -2 and g.compose(g).det_valuation() == 4
    assert g.valuations() == (0, -2) and gi.compose(g).inverse().is_identity() and len(calls) == 1
    monkeypatch.undo()
    fresh = Automorphism.gl(m).inverse().matrix
    assert gi.matrix == fresh and gi == Automorphism.gl(fresh)
    assert g.compose(gi).is_identity() and g.compose(g) == Automorphism.gl(m * m)


def test_automorphism_hash_is_computed_once(monkeypatch):
    calls = []
    real = LaurentMatrix.__hash__
    monkeypatch.setattr(LaurentMatrix, "__hash__", lambda m: calls.append(m) or real(m))
    m = parse_laurent_matrix(QQ, "t,1+t;0,t")
    g = Automorphism.gl(m)
    assert hash(g) == hash(g) and len(calls) == 1
    assert hash(Automorphism.gl(parse_laurent_matrix(QQ, "t,1+t;0,t"))) == hash(g)


def test_laurent_matrix_rank_is_a_nonnegative_int():
    one, zero = LaurentPoly.one(QQ), LaurentPoly.zero(QQ)
    with pytest.raises(TypeError):
        LaurentMatrix(QQ, 2.0, [one, zero, zero, one])
    with pytest.raises(ValueError, match="negative"):
        LaurentMatrix(QQ, -1, [one])
    assert LaurentMatrix(QQ, 0, []).n == 0  # refused later, by GL: "rank must be positive"


def test_apply_checks_the_vector():
    one, m = LaurentPoly.one(QQ), LaurentMatrix.identity(QQ, 3)
    assert m.apply([one, P("t"), P("2-t^-1")]) == [one, P("t"), P("2-t^-1")]
    for vec in ([one], [one] * 4):
        with pytest.raises(SpaceMismatch, match="%d coordinates for a rank 3" % len(vec)):
            m.apply(vec)
    with pytest.raises(FieldMismatch):
        m.apply([one, one, LaurentPoly.zero(GF(5))])
