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
