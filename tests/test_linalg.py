import random
from itertools import combinations

import pytest

from tatekit import GF, QQ, Matrix, Subspace, det
from tatekit.errors import AmbientMismatch, NonSquare, NotContained
from tatekit.linalg import _box, _meet, _quotient_coords, _rref_rows, quotient_dim, subspace_contains
from window_kernel import _quotient_reps


def rref(m):
    """The nonzero reduced echelon rows of ``m`` as a matrix, and their pivots."""
    at = _rref_rows(m.ctx, m._data)
    return Matrix._raw(m.ctx, m.cols, at.values()), list(at)


def span(a, b):
    return Subspace(a.ctx, a.ambient_dim, _rref_rows(a.ctx, [*a._at.values(), *b._at.values()]))


def whole(ctx, d):
    """k^d, spanned by the identity rows."""
    return Subspace.from_rows(ctx, d, [[int(i == j) for j in range(d)] for i in range(d)])


def meet(a, b):
    return Subspace(a.ctx, a.ambient_dim, _meet(a.ctx, a._at, b._at, a.ambient_dim))


def test_rref_identity():
    m = Matrix.identity(QQ, 2)
    r, piv = rref(m)
    assert r == m and piv == [0, 1]


def test_rref_permutation():
    m = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    r, piv = rref(m)
    assert r == Matrix.identity(QQ, 2) and piv == [0, 1]


def test_rref_dependent_rows_f5():
    F5 = GF(5)
    m = Matrix.from_rows(F5, [[1, 2], [2, 4]])
    r, piv = rref(m)
    assert r == Matrix.from_rows(F5, [[1, 2]])
    assert piv == [0]


def test_det_examples():
    assert str(det(Matrix.identity(QQ, 3))) == "1"
    assert str(det(Matrix.from_rows(QQ, [[0, 1], [1, 0]]))) == "-1"
    assert str(det(Matrix.from_rows(QQ, [[2, 1], [1, 1]]))) == "1"
    with pytest.raises(NonSquare):
        det(Matrix.from_rows(QQ, [[1, 2, 3]]))


def test_rref_idempotent_and_det_multiplicative_f5():
    rng = random.Random(11)
    F5 = GF(5)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = Matrix.from_rows(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        b = Matrix.from_rows(F5, [[rng.randrange(5) for _ in range(n)] for _ in range(n)])
        r, piv = rref(a)
        r2, piv2 = rref(r)
        assert r == r2 and piv == piv2
        assert det(a * b) == det(a) * det(b)
        if len(piv) < n:
            assert det(a).is_zero()


def test_subspace_sum_disjoint_pivots():
    s1 = Subspace.from_rows(QQ, 3, [[1, 0, 0]])
    s2 = Subspace.from_rows(QQ, 3, [[0, 1, 0]])
    assert span(s1, s2) == Subspace.from_rows(QQ, 3, [[1, 0, 0], [0, 1, 0]])


def test_subspace_intersect_runs_one_elimination(monkeypatch):
    import tatekit.linalg as linalg

    a = Subspace.from_rows(QQ, 4, [[1, 2, 0, 0], [0, 0, 1, 1], [0, 1, 0, 5]])
    b = Subspace.from_rows(QQ, 4, [[1, 2, 1, 1], [0, 3, 0, 15], [1, 0, 0, 0]])
    calls = []
    real = linalg._rref_rows

    def counted(ctx, rows):
        calls.append(1 + max(j for row in rows for j in row))  # the columns the rows span
        return real(ctx, rows)

    monkeypatch.setattr(linalg, "_rref_rows", counted)
    got = meet(a, b)
    assert calls == [8]  # one elimination, of the 2n-column Zassenhaus matrix
    want = [[1, 2, 1, 1], [0, 1, 0, 5]]
    assert got.dim == 2 and all(got.contains_vector(v) and a.contains_vector(v) for v in want)
    assert got == Subspace.from_rows(QQ, 4, want) and got.pivots == (0, 1)


def test_subspace_intersect_f2():
    F2 = GF(2)
    a = Subspace.from_rows(F2, 2, [[1, 1]])
    b = Subspace.from_rows(F2, 2, [[1, 0]])
    assert meet(a, b).dim == 0


def test_contains_top():
    F3 = GF(3)
    top = whole(F3, 3)
    sub = Subspace.from_rows(F3, 3, [[1, 2, 0], [0, 0, 1]])
    assert subspace_contains(top, sub)
    assert not subspace_contains(sub, top)


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        subspace_contains(whole(QQ, 2), whole(QQ, 3))


def test_from_rows_rejects_a_non_integer_ambient_dim():
    with pytest.raises(TypeError):
        Subspace.from_rows(QQ, 2.0, [[1, 0]])
    assert Subspace.from_rows(QQ, True, [[1]]) == Subspace.from_rows(QQ, 1, [[1]])


def test_from_rows_rejects_a_negative_ambient_dim():
    with pytest.raises(ValueError):
        Subspace.from_rows(QQ, -1, [])
    assert Subspace.from_rows(QQ, 0, []).dim == 0


def test_from_rows_checks_the_ambient_dim_of_the_zero_and_full_spans():
    for rows in ([], [[1, 0], [0, 1]]):
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(TypeError):
                Subspace.from_rows(QQ, bad, rows)
        for bad in (-1, -2):
            with pytest.raises(ValueError):
                Subspace.from_rows(QQ, bad, rows)
    assert Subspace.from_rows(QQ, 0, []).dim == 0
    zero = Subspace.from_rows(QQ, True, [])
    assert zero.ambient_dim == 1 and type(zero.ambient_dim) is int
    assert Subspace.from_rows(QQ, True, [[1]]) == Subspace.from_rows(QQ, 1, [[1]])


def all_subspaces(ctx, ambient_dim):
    """Every subspace of k^ambient_dim (tiny prime fields only)."""
    elements, vectors = [ctx.scalar(i) for i in range(ctx.modulus)], [[]]
    for _ in range(ambient_dim):
        vectors = [v + [x] for v in vectors for x in elements]
    seen = set()
    out = []
    nonzero = [v for v in vectors if any(not x.is_zero() for x in v)]
    for r in range(ambient_dim + 1):
        for combo in combinations(nonzero, r):
            s = Subspace.from_rows(ctx, ambient_dim, list(combo))
            if s.dim == r and s not in seen:
                seen.add(s)
                out.append(s)
    return out


def test_subspace_lattice_laws_by_enumeration_f2_cubed():
    F2 = GF(2)
    spaces = all_subspaces(F2, 3)
    assert len(spaces) == 1 + 7 + 7 + 1  # Gaussian binomials [3 choose k]_2
    for a in spaces:
        assert span(a, a) == a
        assert meet(a, a) == a
        for b in spaces:
            assert span(a, b) == span(b, a)
            assert meet(a, b) == meet(b, a)
            assert span(a, meet(a, b)) == a
            assert meet(a, span(a, b)) == a
            for c in spaces[:4]:
                assert span(span(a, b), c) == span(a, span(b, c))
                assert meet(meet(a, b), c) == meet(a, meet(b, c))


def test_quotient_dim_examples():
    sub = Subspace.from_rows(QQ, 3, [[1, 0, 0]])
    sup = Subspace.from_rows(QQ, 3, [[1, 0, 0], [1, 1, 0]])
    assert quotient_dim(sub, sub) == 0
    assert quotient_dim(Subspace.from_rows(QQ, 3, []), whole(QQ, 3)) == 3
    assert quotient_dim(sub, sup) == 1
    with pytest.raises(NotContained):
        quotient_dim(sup, sub)


def test_quotient_dim_chain_additive():
    rng = random.Random(5)
    F3 = GF(3)
    for _ in range(30):
        d = 5
        rows_a = [[rng.randrange(3) for _ in range(d)] for _ in range(rng.randint(0, 2))]
        rows_b = rows_a + [[rng.randrange(3) for _ in range(d)] for _ in range(rng.randint(0, 2))]
        rows_c = rows_b + [[rng.randrange(3) for _ in range(d)] for _ in range(rng.randint(0, 2))]
        A = Subspace.from_rows(F3, d, rows_a)
        B = Subspace.from_rows(F3, d, rows_b)
        C = Subspace.from_rows(F3, d, rows_c)
        assert quotient_dim(A, C) == quotient_dim(A, B) + quotient_dim(B, C)


def test_canonical_form_uniqueness():
    F5 = GF(5)
    a = Subspace.from_rows(F5, 3, [[1, 2, 3], [0, 1, 4]])
    b = Subspace.from_rows(F5, 3, [[1, 3, 2], [0, 2, 3]])  # row-equivalent generators
    assert subspace_contains(a, b) and subspace_contains(b, a)
    assert a == b and hash(a) == hash(b)
    assert a.basis.entries == b.basis.entries


def quotient_coords(sub, reps, lead, vec):
    """The boxed coordinates ``_quotient_coords`` gives a boxed ``vec``."""
    coords = _quotient_coords(sub.ctx.modulus, sub._at, dict(zip(lead, reps)), [sub._vector(vec)])
    return _box(sub.ctx, len(reps), coords[0])


def test_quotient_coords_roundtrip():
    F5 = GF(5)
    sub = Subspace.from_rows(F5, 4, [[1, 1, 0, 0]])
    sup = Subspace.from_rows(F5, 4, [[1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    reps, lead = _quotient_reps(sub, sup)
    assert len(reps) == 2
    vec = [F5.scalar(x) for x in (1, 1, 2, 3)]
    coords = quotient_coords(sub, reps, lead, vec)
    assert [c.value for c in coords] == [2, 3]
    with pytest.raises(NotContained):  # outside sub + span(reps)
        quotient_coords(sub, reps[:1], lead[:1], vec)
    e1 = Subspace.from_rows(QQ, 3, [[1, 0, 0]])
    reps, lead = _quotient_reps(e1, whole(QQ, 3))
    assert [str(c) for c in quotient_coords(e1, reps, lead, [0, 1, 1])] == ["1", "1"]


def test_wrong_length_vectors_are_ambient_mismatches():
    sub = Subspace.from_rows(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    assert sub.contains_vector([1, 2, 0]) and not sub.contains_vector([1, 2, 3])
    for vec in ([1, 2], [], [1, 2, 0, 0]):
        with pytest.raises(AmbientMismatch):
            sub.contains_vector(vec)
    F5 = GF(5)
    sub = Subspace.from_rows(F5, 3, [[1, 1, 0]])
    sup = whole(F5, 3)
    reps, lead = _quotient_reps(sub, sup)
    assert [c.value for c in quotient_coords(sub, reps, lead, [1, 1, 2])] == [0, 2]
    with pytest.raises(AmbientMismatch):
        quotient_coords(sub, reps, lead, [1, 1, 2, 4])  # the 4th entry was dropped before
    with pytest.raises(AmbientMismatch):
        quotient_coords(sub, reps, lead, [1, 1])
