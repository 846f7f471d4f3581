from fractions import Fraction

import pytest

from tatekit import GF, QQ, is_prime
from tatekit.errors import FieldMismatch, ZeroElement


def test_primality():
    assert is_prime(2) and is_prime(5) and is_prime(97) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(91) and not is_prime(561)
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to 2..37
    assert not is_prime(318665857834031151167461)

def test_field_ctx_validation():
    with pytest.raises(ValueError):
        GF(6)
    # psi_13 is a strong pseudoprime to every witness 2..41
    with pytest.raises(ValueError):
        GF(3317044064679887385961981)
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert QQ != GF(5)


def test_prime_field_rejects_a_non_integer_modulus():
    for modulus in (7.0, 5.5, None, True):
        with pytest.raises(ValueError, match="prime field needs a prime modulus"):
            GF(modulus)


def test_zero_denominator_is_typed():
    with pytest.raises(ZeroElement):
        QQ.scalar("1/0")
    with pytest.raises(ZeroElement):
        GF(5).scalar("1/5")


def test_rational_arithmetic():
    a = QQ.scalar("1/2")
    b = QQ.scalar("1/3")
    assert str(a + b) == "5/6"
    assert str(a * b) == "1/6"
    assert str(a - b) == "1/6"
    assert str(a / b) == "3/2"
    assert (a - a).is_zero()
    assert str(QQ.scalar(-4) / QQ.scalar(2)) == "-2"


def test_prime_field_arithmetic():
    F5 = GF(5)
    a, b = F5.scalar(3), F5.scalar(4)
    assert (a + b).value == 2
    assert (a * b).value == 2
    assert (a - b).value == 4
    assert a.inverse().value == 2
    assert str(F5.scalar("1/2")) == "3"
    assert (a ** 4).value == 1


def test_mixed_fields_rejected():
    with pytest.raises(FieldMismatch):
        QQ.scalar(1) + GF(5).scalar(1)
    with pytest.raises(FieldMismatch):
        GF(5).scalar(1) * GF(7).scalar(1)


def test_zero_inverse_rejected():
    with pytest.raises(ZeroElement):
        QQ.zero().inverse()


def test_scalar_canonical_and_hashable():
    assert QQ.scalar("2/4") == QQ.scalar("1/2")
    assert hash(QQ.scalar("2/4")) == hash(QQ.scalar("1/2"))
    assert len({GF(5).scalar(7), GF(5).scalar(2)}) == 1


def test_field_ctx_identity_fast_path(monkeypatch):
    from tatekit.fields import FieldCtx

    a, b = GF(5), GF(5)
    assert a is not b and a == b and hash(a) == hash(b)
    assert (a.scalar(2) + b.scalar(4)).value == 1  # separately built, still one field
    with pytest.raises(FieldMismatch):
        a.scalar(1) - GF(7).scalar(1)
    calls = []
    original = FieldCtx.__eq__

    def counting_eq(self, other):
        calls.append(other)
        return original(self, other)

    monkeypatch.setattr(FieldCtx, "__eq__", counting_eq)
    x, y = a.scalar(3), a.scalar(4)
    assert [r.value for r in (x + y, x - y, x * y, x / y)] == [2, 4, 2, 2]
    assert calls == []  # one context object: no structural compare
    assert a == a and a == b
    assert calls == [a, b]


def test_pow_matches_repeated_multiplication():
    for ctx in (QQ, GF(2), GF(1000003)):
        for x in (ctx.scalar(0), ctx.scalar(1), ctx.scalar(-1), ctx.scalar("3/7"), ctx.scalar(5)):
            acc = ctx.one()
            for n in range(8):
                # The raw form is canonical: an int exactly when integral.
                v = (x**n).value
                assert x**n == acc and type(v) is (int if v.denominator == 1 else Fraction)
                if not x.is_zero():
                    assert x**-n == acc.inverse()
                acc = acc * x
    for ctx in (QQ, GF(2), GF(1000003)):
        assert ctx.zero() ** 0 == ctx.one()
        with pytest.raises(ZeroElement):
            ctx.zero() ** -1


def test_pow_takes_only_an_integer_exponent():
    for ctx in (QQ, GF(5)):
        x = ctx.scalar(4)
        for bad in (0.5, 2.0, Fraction(1, 2), Fraction(2), "2", None):
            with pytest.raises(TypeError):
                x**bad
        assert x**True == x


def test_raw_accepts_only_exact_values():
    from decimal import Decimal

    for ctx in (QQ, GF(5)):
        assert ctx.raw(3) == ctx.raw("3") == ctx.raw(ctx.scalar(3))
        assert ctx.raw(Fraction(1, 2)) == ctx.raw("1/2")
        for bad in (0.5, 0.1, 2.0, Decimal("0.5"), 1j, None, [1]):
            with pytest.raises(TypeError):
                ctx.raw(bad)
            with pytest.raises(TypeError):
                ctx.scalar(bad)


def _values():
    """One instance of each immutable value type, built from the public API."""
    from tatekit import (
        Automorphism,
        DeterminantTheory,
        DimensionTheory,
        ExtElement,
        GradedLine,
        LatticeChain,
        LaurentMatrix,
        Matrix,
        Subspace,
        TateSpace,
        TruncSeries,
        parse_laurent,
        std_lattice,
    )

    f = parse_laurent(QQ, "1+t")
    V = TateSpace(QQ, 1)
    O = std_lattice(V, 0)
    return [
        QQ,
        QQ.one(),
        Matrix.identity(QQ, 2),
        Subspace.full(QQ, 2),
        f,
        TruncSeries.from_poly(f),
        LaurentMatrix.identity(QQ, 2),
        Automorphism.mult_by(f),
        V,
        O,
        LatticeChain(V, [O]),
        GradedLine(0, "tag"),
        DimensionTheory(O),
        DeterminantTheory(O),
        ExtElement.lift(Automorphism.mult_by(f)),
    ]


@pytest.mark.parametrize("x", _values(), ids=lambda x: type(x).__name__)
def test_value_types_refuse_assignment(x):
    name = type(x).__name__
    slot = type(x).__slots__[0]
    before = getattr(x, slot)
    for attr in (slot, "extra"):
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(x, attr, None)
    assert getattr(x, slot) is before and not hasattr(x, "extra")


_BY_IDENTITY = ("LatticeChain", "DimensionTheory", "DeterminantTheory", "ExtElement")


def _twins():
    """For each type of ``_values()`` that compares by value, an equal value
    built another way, by type name."""
    from tatekit import (
        Automorphism,
        GradedLine,
        LaurentMatrix,
        LaurentPoly,
        Matrix,
        Subspace,
        TateSpace,
        TruncSeries,
        join,
        std_lattice,
    )
    from tatekit.fields import RATIONALS, FieldCtx

    Q = FieldCtx(RATIONALS)
    one, zero, t = LaurentPoly.one(QQ), LaurentPoly.zero(QQ), LaurentPoly.t(QQ)
    V = TateSpace(Q, 1)
    return {
        "FieldCtx": Q,
        "Scalar": QQ.scalar(3) / QQ.scalar("3"),
        "Matrix": Matrix.from_rows(QQ, [[1, 0], [0, 1]]),
        "Subspace": Subspace.from_rows(QQ, 2, [[0, 1], [1, 1]]),
        "LaurentPoly": one + t,
        "TruncSeries": TruncSeries(QQ, 0, [1, 1], exact=True),
        "LaurentMatrix": LaurentMatrix.from_rows(QQ, [[one, zero], [zero, one]]),
        "Automorphism": Automorphism.gl(LaurentMatrix.from_rows(QQ, [[one + t]])),
        "TateSpace": V,
        "Lattice": join(std_lattice(V, 1), std_lattice(V, 0)),
        "GradedLine": GradedLine(0, "".join(["t", "ag"])),
    }


@pytest.mark.parametrize("x", _values(), ids=lambda x: type(x).__name__)
def test_value_types_compare_by_their_fields(x):
    name = type(x).__name__
    assert x == x and not x != x and hash(x) == hash(x)
    if name in _BY_IDENTITY:
        (again,) = [y for y in _values() if type(y) is type(x)]
        assert again is not x and again != x and x != again
        return
    twin = _twins()[name]
    assert twin is not x and type(twin) is type(x)
    assert twin == x and x == twin and not twin != x and hash(twin) == hash(x)
    assert len({x, twin}) == 1


def test_equal_fields_of_another_type_differ():
    from tatekit import LaurentPoly, TateSpace, TruncSeries, parse_laurent

    one, line = QQ.one(), TateSpace(QQ, 1)
    assert one._fields(one) == line._fields(line) and one != line and line != one
    f = parse_laurent(QQ, "1+t")
    s = TruncSeries.from_poly(f)
    assert s.exact and s._terms == f._terms and s != f and f != s
    assert f != LaurentPoly._fields(f) and LaurentPoly._fields(f) != f
