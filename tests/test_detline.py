import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import (
    GF,
    QQ,
    Automorphism,
    DeterminantTheory,
    DimensionTheory,
    ExtElement,
    Lattice,
    Subspace,
    TateSpace,
    TruncSeries,
    cocycle_check,
    commutator,
    det_theory_coherence,
    ext_inv,
    ext_mul,
    join,
    omega,
    parse_laurent,
    parse_laurent_matrix,
    rel_det,
    std_lattice,
    tame_symbol,
)
from tatekit.detline import (
    GRADED,
    MAX_FORMULA_BITS,
    UNGRADED,
    _mul_z,
    _quotient_pivots,
    _shuffle,
    closed_commutator_formula,
    cocycle_sigma,
    translation_scalar,
)
from tatekit.errors import (
    FieldMismatch,
    FormulaTooLarge,
    InsufficientPrecision,
    ModeMismatch,
    NotMultiplicationAutomorphism,
    NotNested,
    SpaceMismatch,
)
from tatekit.lattice import act, leq, meet, quotient_dim_lattices
from tatekit.linalg import Matrix, _quotient_coords, _quotient_reps, det, quotient_dim
from tatekit.verify import rand_gl, rand_lattice, rand_mult, rand_unit_poly, suite_detline
from window_kernel import common_window, intersect, window_image

V = TateSpace(QQ, 1)
O = std_lattice(V, [0])
tO = std_lattice(V, [1])
tm1 = std_lattice(V, [-1])
tm2 = std_lattice(V, [-2])


def mult(text, ctx=QQ):
    return Automorphism.mult_by(parse_laurent(ctx, text))


# -- reference: omega by explicit determinants ------------------------------
#
# This is how omega was computed before it read the sign off the pivots: six
# concatenation scalars, each the determinant of the concatenated echelon
# representatives in the canonical descending basis of the outer quotient.


def ref_desc_reps(sub_w, sup_w):
    return _quotient_reps(sub_w, sup_w)[0][::-1]


def ref_wedge_det(sub_w, sup_w, rows):
    """Determinant of ``rows`` in the canonical descending basis of sup_w/sub_w."""
    target, lead = _quotient_reps(sub_w, sup_w)
    assert len(rows) == len(target)
    coords = _quotient_coords(sub_w.ctx.modulus, sub_w._at, dict(zip(lead[::-1], target[::-1])), rows)
    return det(Matrix._raw(sub_w.ctx, len(target), coords))


def ref_delta(M, N, F):
    """Scalar of det(N/M) (x) det(F/N) -> det(F/M) for nested M <= N <= F."""
    _, _, (wM, wN, wF) = common_window(M, N, F)
    return ref_wedge_det(wM, wF, ref_desc_reps(wM, wN) + ref_desc_reps(wN, wF))


def ref_grade(F1, F2):
    """dim(F2/N) - dim(F1/N) over N = meet(F1, F2), as counted before
    ``vdim``: quotient representatives in one common window."""
    _, _, (wN, w1, w2) = common_window(meet(F1, F2), F1, F2)
    return quotient_dim(wN, w2) - quotient_dim(wN, w1)


def ref_omega(F1, F2, F3, mode=UNGRADED, base=None):
    if base is not None and not all(leq(base, F) for F in (F1, F2, F3)):
        raise NotNested("base must be a common sub-lattice")
    n12, n23, n13 = meet(F1, F2), meet(F2, F3), meet(F1, F3)
    M = base if base is not None else meet(n12, F3)
    num = ref_delta(M, n12, F2) * ref_delta(M, n23, F3) * ref_delta(M, n13, F1)
    den = ref_delta(M, n12, F1) * ref_delta(M, n23, F2) * ref_delta(M, n13, F3)
    value = num / den
    if mode == GRADED and ref_grade(F1, F2) % 2 and ref_grade(F2, F3) % 2:
        value = -value
    return value


DIFF_FIELDS = [GF(2), GF(3), GF(1000003), QQ]
DIFF_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def spaces_and_lattices(draw, count):
    """A Tate space and ``count`` of its lattices, each spanned in one window
    by a subset of a shared pool of sparse vectors, so that meets and pivot
    interleavings are seldom trivial."""
    space = TateSpace(draw(st.sampled_from(DIFF_FIELDS)), draw(st.integers(1, 3)))
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(2 - a, 4 - a))
    dim = space.rank * (a + b)
    entry = st.sampled_from([0, 0, 1, -1, 2])
    pool = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=2, max_size=dim))
    out = []
    for _ in range(count):
        keep = draw(st.lists(st.booleans(), min_size=len(pool), max_size=len(pool)))
        rows = [v for v, k in zip(pool, keep) if k]
        out.append(Lattice(space, a, b, Subspace.from_rows(space.ctx, dim, rows)))
    return space, out


@DIFF_SETTINGS
@given(spaces_and_lattices(3))
def test_shuffle_parity_matches_the_determinant(case):
    """On nested M <= N <= F the pivot shuffle parity is the concatenation
    determinant, and that determinant is +-1."""
    space, (X, Y, Z) = case
    M, N, F = meet(X, Y), X, join(X, Z)
    one = space.ctx.one()
    s = _shuffle(_quotient_pivots(M, N), _quotient_pivots(N, F))
    assert ref_delta(M, N, F) == (-one if s % 2 else one)


@DIFF_SETTINGS
@given(spaces_and_lattices(4), st.sampled_from([UNGRADED, GRADED]), st.booleans())
def test_omega_matches_the_determinant_reference(case, mode, with_base):
    space, (F1, F2, F3, X) = case
    base = meet(meet(meet(F1, F2), F3), X) if with_base else None
    assert omega(F1, F2, F3, mode) == ref_omega(F1, F2, F3, mode, base)


@DIFF_SETTINGS
@given(spaces_and_lattices(2), st.integers(-3, 3))
def test_grades_match_the_window_count(case, value):
    _, (F1, F2) = case
    assert rel_det(F1, F2).grade == ref_grade(F1, F2)
    assert DimensionTheory(F1, value).eval(F2) == value + ref_grade(F1, F2)


def test_dimension_theory_values_are_integers():
    """K_0 is the integers: a non-integer base value or shift is refused
    rather than stored, and an integer base value shifts by integers."""
    for bad in (0.5, Fraction(1, 2), "1", None):
        with pytest.raises(TypeError):
            DimensionTheory(O, bad)
        with pytest.raises(TypeError):
            DimensionTheory(O).shifted(bad)
    D = DimensionTheory(O, 2).shifted(-3)
    assert D.value_at_base == -1 and type(D.value_at_base) is int
    assert D.eval(std_lattice(V, [1])) == -2


def test_grades_make_no_window(monkeypatch):
    """rel_det and DimensionTheory.eval read the grade off vdim: no meet
    call, and so no window cap on a wide pair."""
    rng = random.Random(107)
    pairs = []
    for trial in range(10):
        space = TateSpace(GF(5) if trial % 2 else QQ, 1 + trial % 3)
        pairs.append((rand_lattice(space, rng, 3), rand_lattice(space, rng, 3)))
    calls = _count_omega_calls(monkeypatch)
    for F1, F2 in pairs:
        rel_det(F1, F2)
        DimensionTheory(F1, 2).eval(F2)
    assert dict(calls) == {}
    far, near = std_lattice(V, [600]), std_lattice(V, [-600])
    assert rel_det(far, near).grade == 1200 and DimensionTheory(far).eval(near) == 1200
    assert quotient_dim_lattices(far, near) == 1200
    with pytest.raises(SpaceMismatch):
        rel_det(O, std_lattice(TateSpace(GF(5), 1), 0))
    with pytest.raises(SpaceMismatch):
        DimensionTheory(O).eval(std_lattice(TateSpace(QQ, 2), 0))


def test_rel_det_nested():
    line = rel_det(O, tm2)
    assert line.grade == 2
    assert rel_det(O, O).grade == 0
    assert rel_det(tm1, O).grade == -1


def test_omega_nested_monomial_is_one():
    assert str(omega(O, tm1, tm2)) == "1"
    assert str(omega(O, O, O)) == "1"
    assert str(omega(tO, O, tm2)) == "1"


def test_omega_nonmonomial_matches_hand_oracle():
    # F1 = tO, F2 = span{1 + t^-1} + tO, F3 = t^-1 O, window basis (t^-1, 1).
    F2 = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))
    got = omega(tO, F2, tm1)

    # Independent derivation: the one F2/tO representative is t^-1 + 1 =
    # (1, 1); the echelon completion of F2 inside t^-1 O is 1 = (0, 1); the
    # canonical basis of t^-1 O / tO in wedge (descending) order is
    # (1, t^-1) = [(0, 1), (1, 0)].  Expressing the concatenation in that
    # basis and taking the 2x2 determinant:
    target = [(0, 1), (1, 0)]
    concat = [(1, 1), (0, 1)]
    rows = []
    for v in concat:
        # coords in the unit-vector-like basis `target` by direct solve
        c1 = Fraction(v[1] * target[1][0] - v[0] * target[1][1],
                      target[0][1] * target[1][0] - target[0][0] * target[1][1])
        c2 = Fraction(v[0] * target[0][1] - v[1] * target[0][0],
                      target[0][1] * target[1][0] - target[0][0] * target[1][1])
        rows.append((c1, c2))
    oracle = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    assert oracle == Fraction(-1)
    assert got == QQ.scalar(oracle)


def test_omega_base_independence():
    rng = random.Random(71)
    for trial in range(20):
        ctx = GF(5) if trial % 2 else QQ
        space = TateSpace(ctx, 1)
        Fs = [rand_lattice(space, rng, 3) for _ in range(3)]
        deep = std_lattice(space, [5])
        for mode in (UNGRADED, GRADED):
            assert omega(*Fs, mode=mode) == ref_omega(*Fs, mode=mode, base=deep)


# Calls omega may make, by the name detline holds them under.
OMEGA_COUNTED = (
    "meet",
    "_quotient_pivots",
    "_quotient_rows",
    "_quotient_coords",
    "det",
)


def _count_omega_calls(monkeypatch):
    """Count the OMEGA_COUNTED calls and Lattice constructions."""
    import tatekit.detline as detline

    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in OMEGA_COUNTED:
        monkeypatch.setattr(detline, name, counted(name, getattr(detline, name)))
    monkeypatch.setattr(Lattice, "__init__", counted("Lattice", Lattice.__init__))
    return calls


def test_graded_omega_sign_reuses_the_meets(monkeypatch):
    """The Koszul sign matches the rel_det grades, and graded mode makes no
    call beyond ungraded mode: it reads the grades off the window subspaces
    omega already holds."""
    rng = random.Random(79)
    Fss = []
    for trial in range(20):
        space = TateSpace(GF(3) if trial % 2 else QQ, 1 + trial % 3 // 2)
        Fss.append([rand_lattice(space, rng, 3) for _ in range(3)])
    calls = _count_omega_calls(monkeypatch)
    signs = set()
    for Fs in Fss:
        calls.clear()
        plain = omega(*Fs, mode=UNGRADED)
        ungraded_calls = dict(calls)
        calls.clear()
        graded = omega(*Fs, mode=GRADED)
        assert dict(calls) == ungraded_calls
        odd = rel_det(Fs[0], Fs[1]).grade % 2 == 1 and rel_det(Fs[1], Fs[2]).grade % 2 == 1
        assert graded == (-plain if odd else plain)
        signs.add(odd)
    assert signs == {True, False}


def test_omega_meets_once_and_checks_only_a_given_base(monkeypatch):
    """omega meets each pair once: four meet calls (three pairwise, then the
    triple meet from one of them).  It lists twelve quotient pivot sets, N/M
    and F/N for each of its six concatenations, runs no Lattice constructor
    and makes no quotient or determinant call; its value is the reference's
    over a deeper base."""
    rng = random.Random(83)
    cases = []
    for trial in range(10):
        space = TateSpace(GF(5) if trial % 2 else QQ, 1 + trial % 3)
        cases.append(([rand_lattice(space, rng, 3) for _ in range(3)], std_lattice(space, 5)))
    calls = _count_omega_calls(monkeypatch)
    for Fs, deep in cases:
        for mode in (UNGRADED, GRADED):
            calls.clear()
            value = omega(*Fs, mode=mode)
            assert dict(calls) == {"meet": 4, "_quotient_pivots": 12}
            assert value == ref_omega(*Fs, mode=mode, base=deep)
            assert value in (Fs[0].ctx.one(), -Fs[0].ctx.one())


def test_cocycle_examples():
    tm3 = std_lattice(V, [-3])
    assert cocycle_check(O, tm1, tm2, tm3)
    assert cocycle_check(O, O, O, O)


def test_cocycle_randomized_both_modes():
    rng = random.Random(73)
    for trial in range(40):
        ctx = GF(5) if trial % 2 else QQ
        space = TateSpace(ctx, 1)
        quad = [rand_lattice(space, rng, 3) for _ in range(4)]
        assert cocycle_check(*quad, mode=UNGRADED)
        assert cocycle_check(*quad, mode=GRADED)


def test_dim_theory():
    D = DimensionTheory(O, 0)
    assert D.eval(O) == 0
    for n in range(-3, 4):
        assert D.eval(std_lattice(V, [n])) == -n
    assert D.shifted(5).eval(tm2) == 7
    rng = random.Random(79)
    space = TateSpace(GF(5), 1)
    base = rand_lattice(space, rng, 2)
    D2 = DimensionTheory(base, 3)
    for _ in range(30):
        L = rand_lattice(space, rng, 2)
        M = join(L, rand_lattice(space, rng, 2))
        assert D2.eval(M) - D2.eval(L) == quotient_dim_lattices(L, M)


def test_dim_theories_differ_by_constant():
    rng = random.Random(83)
    space = TateSpace(GF(5), 1)
    D1 = DimensionTheory(rand_lattice(space, rng, 2), 1)
    D2 = DimensionTheory(rand_lattice(space, rng, 2), -4)
    diffs = set()
    for _ in range(20):
        L = rand_lattice(space, rng, 3)
        diffs.add(D1.eval(L) - D2.eval(L))
    assert len(diffs) == 1


def test_det_theory():
    theory = DeterminantTheory(O)
    assert theory.eval(O).grade == 0
    assert theory.eval(tm2).grade == 2
    # the two paths around the coherence square at O <= t^-1 O <= t^-2 O
    s1 = omega(O, tm1, tm2, UNGRADED) * omega(O, O, tm1, UNGRADED)
    s2 = omega(O, O, tm2, UNGRADED) * omega(O, tm1, tm2, UNGRADED)
    assert str(s1) == "1" and str(s2) == "1"
    assert det_theory_coherence(theory, O, tm1, tm2, GRADED)
    with pytest.raises(NotNested):
        det_theory_coherence(theory, tm1, O, tm2)


def test_det_theory_coherence_randomized():
    rng = random.Random(89)
    space = TateSpace(GF(3), 1)
    for _ in range(20):
        theory = DeterminantTheory(rand_lattice(space, rng, 2))
        A = rand_lattice(space, rng, 2)
        B = join(A, rand_lattice(space, rng, 2))
        C = join(B, rand_lattice(space, rng, 2))
        assert det_theory_coherence(theory, A, B, C, GRADED)
        assert det_theory_coherence(theory, A, B, C, UNGRADED)
        for mode in (GRADED, UNGRADED):
            assert det_theory_coherence(theory, A, B, C, mode) == cocycle_check(theory.base, A, B, C, mode)


def test_translation_scalar_scaling():
    # multiplication by the constant c rescales the basis of O / tO by c
    c = mult("3")
    assert str(translation_scalar(c, tO, O)) == "3"
    assert str(translation_scalar(c, O, tO)) == "1/3"
    assert str(translation_scalar(mult("t"), O, tm1)) == "1"


# -- reference: the translation scalar in the canonical descending basis ----
#
# This is how translation_scalar was computed before it took both sides in
# ascending pivot order: source and target representatives in the canonical
# descending wedge order.


def ref_translation_scalar(g, F1, F2):
    _, b1, (w1, w2) = common_window(F1, F2)
    a2, b2, (tw1, tw2) = common_window(act(g, F1), act(g, F2))
    wN, twN = intersect(w1, w2), intersect(tw1, tw2)
    reps2, reps1 = ref_desc_reps(wN, w2), ref_desc_reps(wN, w1)
    rows = window_image(g, reps2 + reps1, b1, a2, b2)
    return ref_wedge_det(twN, tw2, rows[: len(reps2)]) / ref_wedge_det(twN, tw1, rows[len(reps2) :])


@DIFF_SETTINGS
@given(spaces_and_lattices(2), st.integers(0, 2**32 - 1))
def test_translation_scalar_matches_the_descending_reference(case, seed):
    space, (F1, F2) = case
    rng = random.Random(seed)
    if space.rank == 1 and rng.random() < 0.5:
        g = rand_mult(space.ctx, rng, -3, 3)
    else:
        g = rand_gl(space.ctx, space.rank, rng)
    assert translation_scalar(g, F1, F2) == ref_translation_scalar(g, F1, F2)


def test_commutator_composes_twice_and_translates_triangularly(monkeypatch):
    """The word's last product is never composed, each of its five cocycles
    acts three times (the translation reuses the translates), and in
    ascending order every rank-1 translation matrix is upper triangular:
    det eliminates nothing."""
    import tatekit.detline as detline

    calls, acts, sizes = [], [], []
    compose, act = Automorphism.compose, detline.act

    def counted(self, other):
        calls.append(1)
        return compose(self, other)

    def counted_act(g, L):
        acts.append(1)
        return act(g, L)

    def triangular_det(m):
        for i, row in enumerate(m._data):
            assert min(row) == i, "row %d starts at column %d" % (i, min(row))
        sizes.append(m.rows)
        return det(m)

    monkeypatch.setattr(Automorphism, "compose", counted)
    monkeypatch.setattr(detline, "det", triangular_det)
    monkeypatch.setattr(detline, "act", counted_act)
    cases = [
        (QQ, "2*t^9+t^12", "3*t^2-t^5", 15),
        (QQ, "t^-7+5*t^-4", "1-t+2*t^3", 12),
        (GF(1000003), "4*t^11-t^13", "7*t^-3+t", 18),
        (GF(3), "t^5+2*t^6", "2*t^-2", 10),
    ]
    for ctx, f, g, precision in cases:
        fp, gp = parse_laurent(ctx, f), parse_laurent(ctx, g)
        fa, ga = Automorphism.mult_by(fp), Automorphism.mult_by(gp)
        for mode, want in ((UNGRADED, closed_commutator_formula(fp, gp)), (GRADED, tame_symbol(fp, gp))):
            calls.clear()
            acts.clear()
            assert commutator(fa, ga, mode, precision) == want
            assert len(calls) == 2 and len(acts) == 15
    assert max(sizes) >= 9
    # The detline suite's extension products are rank-1 translations too.
    assert {c["status"] for c in suite_detline(cases=4, seed=7)} == {"pass"}


def _uncapped_commutator(f, g, mode, precision):
    """The reference word: both units inverted at ``precision`` itself."""
    x, y = ExtElement.lift(f, mode), ExtElement.lift(g, mode)
    value = _mul_z(ext_mul(ext_mul(x, y), ext_inv(x, precision)), ext_inv(y, precision))
    if mode == GRADED and f.det_valuation() % 2 and g.det_valuation() % 2:
        value = -value
    return value


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InsufficientPrecision as exc:
        return type(exc), exc.required, str(exc)


def _random_unit(ctx, rng, truncated):
    """A unit of valuation -8..8: exact, or truncated after 1..12 known coefficients."""
    poly = rand_unit_poly(ctx, rng, -8, 8)
    if not truncated:
        return Automorphism.mult_by(poly)
    v = poly.valuation()
    known = [poly.coeff(v + i) for i in range(rng.randint(1, 12))]
    return Automorphism.mult_by(TruncSeries(ctx, v, known, exact=False))


def test_commutator_caps_its_inverses_and_matches_the_uncapped_word():
    """Inverting to min(P, |v(f)| + |v(g)| + 1) coefficients changes no value
    and no InsufficientPrecision: type, required precision and message."""
    rng = random.Random(109)
    seen, raised = Counter(), Counter()
    for trial in range(2400):
        ctx = (QQ, GF(3), GF(1000003))[trial % 3]
        mode = (UNGRADED, GRADED)[trial // 3 % 2]
        truncated = trial // 6 % 2 == 1
        f, g = _random_unit(ctx, rng, truncated), _random_unit(ctx, rng, truncated)
        depth = abs(f.det_valuation()) + abs(g.det_valuation()) + 1
        precision = rng.choice([None, *range(1, depth + 1), 16, 1024])
        got = _outcome(commutator, f, g, mode, precision)
        assert got == _outcome(_uncapped_commutator, f, g, mode, precision), (f, g, mode, precision)
        if precision is None or precision > depth:
            seen[precision, truncated] += 1
        else:
            seen["below" if precision < depth else "depth", truncated] += 1
        raised[truncated] += isinstance(got, tuple)
    assert len(seen) == 10 and min(seen.values()) >= 20
    assert raised[False] > 0 and raised[True] > 0


def test_commutator_inverts_each_unit_once_at_the_capped_precision(monkeypatch):
    """Two series inverses per word: at min(P, N), N = |v(f)| + |v(g)| + 1, or
    at P for a truncated unit that does not know P coefficients."""
    inverses, inverse = [], TruncSeries.inverse

    def counted(self, precision=None):
        inverses.append(precision)
        return inverse(self, precision)

    monkeypatch.setattr(TruncSeries, "inverse", counted)

    def trunc(ctx, v, coeffs):
        return Automorphism.mult_by(TruncSeries(ctx, v, coeffs, exact=False))

    t10, t3 = trunc(QQ, 2, [1] * 10), trunc(QQ, -1, [2, 1, 1])
    cases = [
        (mult("2*t^9+t^12"), mult("3*t^2-t^5"), 15, [12, 12], None),
        (mult("t^-7+5*t^-4"), mult("1-t+2*t^3"), None, [8, 8], None),
        (mult("4*t^11-t^13", GF(1000003)), mult("7*t^-3+t", GF(1000003)), 1024, [15, 15], None),
        (mult("t^5+2*t^6", GF(3)), mult("2*t^-2", GF(3)), 4, [4, 4], None),
        (mult("1-t"), mult("t^30"), None, [16, 16], 30),
        (t10, t3, None, [4, 3], None),
        (t10, t3, 6, [4, 6], 6),
    ]
    for f, g, precision, want, required in cases:
        for mode in (UNGRADED, GRADED):
            inverses.clear()
            if required is None:
                commutator(f, g, mode, precision)
            else:
                with pytest.raises(InsufficientPrecision) as exc:
                    commutator(f, g, mode, precision)
                assert exc.value.required == required
            assert inverses == want


def test_ext_unit_and_mul():
    t = mult("t")
    x = ExtElement.lift(t)
    e = ExtElement.lift(Automorphism.identity(QQ, 1))
    assert ext_mul(e, x).z == x.z and ext_mul(x, e).z == x.z
    prod = ext_mul(x, x)
    assert prod.g.series.valuation == 2 and str(prod.z) == "1"
    xg = ExtElement.lift(t, GRADED)
    assert str(ext_mul(xg, xg).z) == "-1"
    with pytest.raises(ModeMismatch):
        ext_mul(x, xg)


def test_ext_inverse():
    rng = random.Random(97)
    for _ in range(10):
        f = rand_mult(GF(5), rng, -2, 2)
        x = ExtElement.lift(f, UNGRADED)
        roundtrip = ext_mul(x, ext_inv(x))
        assert str(roundtrip.z) == "1"
        both = ext_mul(ext_inv(x), x)
        assert str(both.z) == "1"


def test_ext_associativity():
    rng = random.Random(101)
    for case in range(15):
        mode = UNGRADED if case % 2 else GRADED
        x, y, z = (ExtElement.lift(rand_mult(GF(5), rng, -2, 2), mode) for _ in range(3))
        lhs = ext_mul(ext_mul(x, y), z)
        rhs = ext_mul(x, ext_mul(y, z))
        assert lhs.z == rhs.z


def test_ext_mul_of_lifts_on_different_spaces():
    x = ExtElement.lift(mult("t"))
    with pytest.raises(SpaceMismatch):
        ext_mul(x, ExtElement.lift(Automorphism.gl(parse_laurent_matrix(QQ, "t,0;0,1"))))
    with pytest.raises(FieldMismatch):
        ext_mul(x, ExtElement.lift(mult("t", GF(5))))


def test_commutator_of_units_over_different_fields():
    with pytest.raises(FieldMismatch):
        commutator(mult("t"), mult("t", GF(5)))


def test_commutator_refuses_a_precision_below_1():
    for f in ("1+t", "t"):
        with pytest.raises(ValueError, match="precision must be >= 1"):
            commutator(mult(f), mult("1-t"), precision=0)
    assert commutator(mult("1+t"), mult("t"), precision=1) == QQ.one()


def test_commutator_examples():
    assert str(commutator(mult("t"), mult("2"), UNGRADED)) == "1/2"
    assert str(commutator(mult("t"), mult("t"), UNGRADED)) == "1"
    assert str(commutator(mult("t"), mult("t"), GRADED)) == "-1"
    F5 = GF(5)
    assert commutator(mult("t", F5), mult("1-t", F5), UNGRADED) == F5.one()
    with pytest.raises(NotMultiplicationAutomorphism):
        g = Automorphism.gl(parse_laurent_matrix(QQ, "t,0;0,1"))
        commutator(g, g)


def test_commutator_matches_closed_formula():
    rng = random.Random(103)
    for trial in range(30):
        ctx = GF(5) if trial % 2 else QQ
        f = rand_unit_poly(ctx, rng, -3, 3)
        g = rand_unit_poly(ctx, rng, -3, 3)
        fa, ga = Automorphism.mult_by(f), Automorphism.mult_by(g)
        cu = commutator(fa, ga, UNGRADED)
        cg = commutator(fa, ga, GRADED)
        assert cu == closed_commutator_formula(f, g)
        assert cg == tame_symbol(f, g)
        sign = -ctx.one() if (f.valuation() % 2 and g.valuation() % 2) else ctx.one()
        assert cg / cu == sign


@pytest.mark.parametrize("ctx", [QQ, GF(5), GF(1000003)], ids=["Q", "GF5", "GF1000003"])
@pytest.mark.parametrize("mode", [UNGRADED, GRADED])
def test_commutator_is_the_cocycle_antisymmetrised(ctx, mode):
    """Lifts of commuting units commute up to sigma(f,g)/sigma(g,f), which ties
    sigma's normalisation to the extension's multiplication and inverse."""
    rng = random.Random("%s %s" % (ctx, mode))
    for _ in range(200):
        f, g = (Automorphism.mult_by(rand_unit_poly(ctx, rng, -6, 6)) for _ in range(2))
        p, q = f.det_valuation(), g.det_valuation()
        want = cocycle_sigma(f, g, mode) / cocycle_sigma(g, f, mode)
        if mode == GRADED and p % 2 and q % 2:
            want = -want
        assert commutator(f, g, mode, precision=abs(p) + abs(q) + 1) == want, (f, g)


def test_tame_symbol_examples():
    assert str(tame_symbol(parse_laurent(QQ, "t"), parse_laurent(QQ, "t"))) == "-1"
    assert str(tame_symbol(parse_laurent(QQ, "5"), parse_laurent(QQ, "7"))) == "1"
    assert str(tame_symbol(parse_laurent(QQ, "t"), parse_laurent(QQ, "1-t"))) == "1"


def test_closed_formula_size_limit():
    """Over Q, |v(g)|*h(a) + |v(f)|*h(b) may reach MAX_FORMULA_BITS and not
    pass it, h(c) being the bit lengths of numerator and denominator."""
    t = parse_laurent(QQ, "t")
    k = MAX_FORMULA_BITS // 2 - 1  # h(1) = 2: the bound is 2k + 2
    assert str(tame_symbol(t, parse_laurent(QQ, "t^%d" % k))) == "-1"
    for f, g in (("t", "t^%d" % (k + 1)), ("t^%d" % (k + 1), "t"), ("3/2*t", "t^%d" % (MAX_FORMULA_BITS // 4))):
        with pytest.raises(FormulaTooLarge, match="MAX_FORMULA_BITS=%d" % MAX_FORMULA_BITS):
            closed_commutator_formula(parse_laurent(QQ, f), parse_laurent(QQ, g))
    F5 = GF(5)
    assert str(tame_symbol(parse_laurent(F5, "t"), parse_laurent(F5, "t^%d" % (10 * k)))) == "1"


def test_tame_symbol_bimultiplicative():
    rng = random.Random(107)
    F5 = GF(5)
    for _ in range(25):
        f1 = rand_unit_poly(F5, rng, -2, 2)
        f2 = rand_unit_poly(F5, rng, -2, 2)
        g = rand_unit_poly(F5, rng, -2, 2)
        assert tame_symbol(f1 * f2, g) == tame_symbol(f1, g) * tame_symbol(f2, g)
        assert tame_symbol(g, f1 * f2) == tame_symbol(g, f1) * tame_symbol(g, f2)
