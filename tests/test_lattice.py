import random

import pytest

from tatekit import (
    GF,
    QQ,
    Automorphism,
    Lattice,
    LatticeChain,
    Subspace,
    TateSpace,
    act,
    join,
    lattice_from_json,
    leq,
    meet,
    parse_laurent,
    parse_laurent_matrix,
    quotient,
    std_lattice,
)
from tatekit.errors import InsufficientPrecision, NotNested, SpaceMismatch
from tatekit.laurent import invert_series
from tatekit.verify import rand_gl, rand_lattice, rand_mult

V = TateSpace(QQ, 1)
O = std_lattice(V, [0])


def test_std_lattice_bounds():
    assert (O.a, O.b) == (0, 0)
    t3 = std_lattice(V, [3])
    assert (t3.a, t3.b) == (3, -3)
    V2 = TateSpace(QQ, 2)
    mixed = std_lattice(V2, [1, -1])
    assert (mixed.a, mixed.b) == (1, 1)
    assert mixed.subspace.dim == 2  # slots t^-1 e_2 and 1 e_2... of 4 window slots


def test_leq():
    assert leq(O, O)
    assert leq(std_lattice(V, [1]), O)
    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))  # span{t^-1 + 1} + tO
    assert not leq(O, Lp) and not leq(Lp, O)
    with pytest.raises(SpaceMismatch):
        leq(O, std_lattice(TateSpace(GF(5), 1), [0]))


def test_join_meet_nested():
    tm2 = std_lattice(V, [-2])
    assert join(O, tm2) == tm2
    assert meet(O, tm2) == O


def test_join_meet_nonmonomial():
    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))
    assert join(O, Lp) == std_lattice(V, [-1])
    assert meet(O, Lp) == std_lattice(V, [1])


def test_quotient():
    tm2 = std_lattice(V, [-2])
    q = quotient(O, tm2)
    assert q.dim == 2
    reps = [str(v[0]) for v in q.rep_vectors()]
    assert reps == ["1*t^-2", "1*t^-1"]
    assert quotient(O, O).dim == 0
    V2 = TateSpace(QQ, 2)
    assert quotient(std_lattice(V2, [1, 1]), std_lattice(V2, [0, 0])).dim == 2
    with pytest.raises(NotNested):
        quotient(std_lattice(V, [-1]), O)


def test_act_mult():
    t = Automorphism.mult_by(parse_laurent(QQ, "t"))
    assert act(t, O) == std_lattice(V, [1])
    e = Automorphism.identity(QQ, 1)
    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))
    assert act(e, Lp) == Lp


def test_act_gl_diag():
    V2 = TateSpace(QQ, 2)
    g = Automorphism.gl(parse_laurent_matrix(QQ, "t,0;0,t^-1"))
    assert act(g, std_lattice(V2, [0, 0])) == std_lattice(V2, [1, -1])


def test_act_precision_guard():
    f = Automorphism.mult_by(invert_series(parse_laurent(QQ, "1-t"), 1))
    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))  # window a+b = 2
    with pytest.raises(InsufficientPrecision) as err:
        act(f, Lp)
    assert err.value.required == 2
    enough = Automorphism.mult_by(invert_series(parse_laurent(QQ, "1-t"), 4))
    assert act(enough, Lp) == act(enough, Lp)  # deterministic
    assert act(enough, O) == O


def test_lattice_poset_randomized():
    rng = random.Random(17)
    ctx = GF(3)
    for _ in range(40):
        rank = rng.choice([1, 2])
        space = TateSpace(ctx, rank)
        L, M = rand_lattice(space, rng, 3), rand_lattice(space, rng, 3)
        assert leq(meet(L, M), L) and leq(L, join(L, M))
        assert join(L, M) == join(M, L)
        assert meet(L, meet(L, M)) == meet(L, M)
        g = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
        assert leq(L, M) == leq(act(g, L), act(g, M))
        assert act(g, join(L, M)) == join(act(g, L), act(g, M))
        h = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
        assert act(g, act(h, L)) == act(g.compose(h), L)


def test_normalization_idempotent():
    rng = random.Random(23)
    space = TateSpace(GF(3), 2)
    for _ in range(20):
        L = rand_lattice(space, rng, 2)
        again = Lattice(space, L.a + 2, L.b + 1, L.window_subspace(L.a + 2, L.b + 1))
        assert again == L


def test_quotient_basis_window_independent():
    L = std_lattice(V, [1])
    M = std_lattice(V, [-1])
    q1 = quotient(L, M)
    # recompute inside a strictly larger window
    big_sub = M.window_subspace(3, 3)
    small_sub = L.window_subspace(3, 3)
    from tatekit.linalg import quotient_basis

    reps = quotient_basis(small_sub, big_sub)
    from tatekit.lattice import row_to_vec

    vecs = [str(row_to_vec(V, 3, 3, r)[0]) for r in reps]
    assert vecs == [str(v[0]) for v in q1.rep_vectors()]


def test_lattice_chain():
    chain = LatticeChain(V, [std_lattice(V, [1]), O, std_lattice(V, [-2])])
    assert chain.quotient_dims() == [1, 2]
    with pytest.raises(NotNested):
        LatticeChain(V, [O, std_lattice(V, [1])])


def test_json_roundtrip():
    rng = random.Random(31)
    space = TateSpace(GF(5), 2)
    for _ in range(10):
        L = rand_lattice(space, rng, 2)
        assert lattice_from_json(GF(5), L.to_json_dict()) == L
    d = O.to_json_dict()
    assert d == {"rank": 1, "a": 0, "b": 0, "basis": []}


def test_quotient_checks_containment_once(monkeypatch):
    import tatekit.linalg

    V2 = TateSpace(QQ, 2)
    L = Lattice(V2, 1, 1, Subspace.from_rows(QQ, 4, [[1, 0, 2, 0], [0, 1, 0, 3]]))
    M = std_lattice(V2, [-2, -2])
    rows_of_l = L.window_subspace(1, 2).dim
    calls = []
    reduce_rows = tatekit.linalg._reduce

    def counting_reduce(*args):
        calls.append(args)
        return reduce_rows(*args)

    monkeypatch.setattr(tatekit.linalg, "_reduce", counting_reduce)
    assert quotient(L, M).dim == 4
    assert len(calls) == rows_of_l == 2  # one reduction per row of L's window basis


def test_quotient_of_non_nested_pair_is_not_nested():
    from tatekit.errors import NotContained

    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))
    for L, M in ((O, std_lattice(V, [1])), (Lp, O), (O, Lp)):
        with pytest.raises(NotNested) as info:
            quotient(L, M)
        assert not isinstance(info.value, NotContained)
