import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import (
    GF,
    QQ,
    Automorphism,
    Lattice,
    LatticeChain,
    Subspace,
    TateSpace,
    TruncSeries,
    act,
    join,
    lattice_from_json,
    leq,
    meet,
    parse_laurent,
    parse_laurent_matrix,
    quotient_dim_lattices,
    std_lattice,
)
from tatekit.errors import FieldMismatch, InsufficientPrecision, NotContained, NotNested, SpaceMismatch
from tatekit.lattice import row_to_vec
from tatekit.linalg import quotient_dim
from tatekit.verify import rand_gl, rand_lattice, rand_mult
from window_kernel import _quotient_reps, common_window, shift

V = TateSpace(QQ, 1)
O = std_lattice(V, [0])


def test_tate_space_rejects_a_non_integer_rank():
    with pytest.raises(TypeError):
        TateSpace(QQ, 2.5)
    with pytest.raises(ValueError):
        TateSpace(QQ, 0)
    assert TateSpace(QQ, True) == V


def ref_quotient_dim(L, M):
    """dim(M/L) as counted before ``vdim``: the quotient representatives of
    L in M in their common window; NotNested unless L <= M."""
    _, _, (wl, wm) = common_window(L, M)
    try:
        return quotient_dim(wl, wm)
    except NotContained:
        raise NotNested("quotient needs L <= M") from None


def quotient_reps(L, M):
    """The canonical representatives of M/L as Laurent vectors."""
    a, b, (wl, wm) = common_window(L, M)
    return [row_to_vec(L.space, shift(row, -b * L.space.rank)) for row in _quotient_reps(wl, wm)[0]]


def test_std_lattice_bounds():
    assert (O.a, O.b) == (0, 0)
    t3 = std_lattice(V, [3])
    assert (t3.a, t3.b) == (3, -3)
    V2 = TateSpace(QQ, 2)
    mixed = std_lattice(V2, [1, -1])
    assert (mixed.a, mixed.b) == (1, 1)
    assert mixed.window_subspace(mixed.a, mixed.b).dim == 2  # slots t^-1 e_2 and 1 e_2... of 4 window slots


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
    assert quotient_dim_lattices(O, tm2) == 2
    reps = [str(v[0]) for v in quotient_reps(O, tm2)]
    assert reps == ["1*t^-2", "1*t^-1"]
    assert quotient_dim_lattices(O, O) == 0
    V2 = TateSpace(QQ, 2)
    assert quotient_dim_lattices(std_lattice(V2, [1, 1]), std_lattice(V2, [0, 0])) == 2
    with pytest.raises(NotNested):
        quotient_dim_lattices(std_lattice(V, [-1]), O)


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
    f = Automorphism.mult_by(TruncSeries.from_poly(parse_laurent(QQ, "1-t")).inverse(1))
    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))  # window a+b = 2
    with pytest.raises(InsufficientPrecision) as err:
        act(f, Lp)
    assert err.value.required == 2
    enough = Automorphism.mult_by(TruncSeries.from_poly(parse_laurent(QQ, "1-t")).inverse(4))
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
    # recompute inside a strictly larger window
    big_sub = M.window_subspace(3, 3)
    small_sub = L.window_subspace(3, 3)
    reps = _quotient_reps(small_sub, big_sub)[0]
    vecs = [str(row_to_vec(V, shift(r, -3))[0]) for r in reps]
    assert vecs == [str(v[0]) for v in quotient_reps(L, M)]


def quotient_dims(chain):
    """dim(L_(i+1)/L_i) for each step; the chain is nested by construction."""
    return [M.vdim - L.vdim for L, M in zip(chain.lattices, chain.lattices[1:])]


def test_lattice_chain():
    chain = LatticeChain(V, [std_lattice(V, [1]), O, std_lattice(V, [-2])])
    assert quotient_dims(chain) == [1, 2]
    with pytest.raises(NotNested):
        LatticeChain(V, [O, std_lattice(V, [1])])


def test_json_roundtrip():
    rng = random.Random(31)
    for ctx, rank in ((GF(5), 2), (QQ, 1), (GF(3), 3)):
        space = TateSpace(ctx, rank)
        for _ in range(10):
            L = rand_lattice(space, rng, 2)
            assert lattice_from_json(ctx, L.to_json_dict()) == L
            window = L.window_subspace(L.a, L.b)  # the dense rows the JSON writes
            assert L.to_json_dict()["basis"] == [[str(c) for c in row] for row in window.basis.row_list()]
    d = O.to_json_dict()
    assert d == {"rank": 1, "a": 0, "b": 0, "basis": []}


@pytest.mark.parametrize(
    "field, data",
    [
        ("rank", {"a": 0, "b": 0, "basis": []}),
        ("a", {"rank": 1, "b": 0, "basis": []}),
        ("b", {"rank": 1, "a": 0, "basis": []}),
        ("basis", {"rank": 1, "a": 0, "b": 0}),
        ("a", {"rank": 1, "a": "1", "b": 0, "basis": []}),
        ("a", {"rank": 1, "a": True, "b": 0, "basis": []}),
        ("rank", {"rank": True, "a": 0, "b": 0, "basis": []}),
        ("b", {"rank": 1, "a": 0, "b": 1.0, "basis": []}),
        ("basis", {"rank": 1, "a": 0, "b": 2, "basis": 5}),
        ("basis", {"rank": 1, "a": 0, "b": 2, "basis": None}),
        ("basis", {"rank": 1, "a": 0, "b": 2, "basis": [1, 2]}),
    ],
)
def test_lattice_from_json_rejects_malformed_fields(field, data):
    with pytest.raises(ValueError, match=repr(field)):
        lattice_from_json(QQ, data)


def test_lattice_from_json_checks_the_cap_first(monkeypatch):
    from tatekit.errors import WindowTooLarge

    def no_rows(*args):
        raise AssertionError("rows built for a window above the cap")

    monkeypatch.setattr(Subspace, "from_rows", no_rows)
    for rank, a, b in ((1, 1025, 0), (2, 300, 300), (3, 0, 342)):
        with pytest.raises(WindowTooLarge, match="1024"):
            lattice_from_json(QQ, {"rank": rank, "a": a, "b": b, "basis": []})


def test_quotient_checks_containment_once(monkeypatch):
    import tatekit.lattice
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

    monkeypatch.setattr(tatekit.lattice, "_reduce", counting_reduce)
    assert quotient_dim_lattices(L, M) == 4
    assert len(calls) == rows_of_l == 2  # one reduction per row of L's window basis


def test_quotient_of_non_nested_pair_is_not_nested():
    from tatekit.errors import NotContained

    Lp = Lattice(V, 1, 1, Subspace.from_rows(QQ, 2, [[1, 1]]))
    for L, M in ((O, std_lattice(V, [1])), (Lp, O), (O, Lp)):
        with pytest.raises(NotNested) as info:
            quotient_dim_lattices(L, M)
        assert not isinstance(info.value, NotContained)


DIFF_FIELDS = [GF(2), GF(3), GF(1000003), QQ]


@st.composite
def lattices(draw, space):
    """A lattice of ``space`` in a window of its own, at most 3 blocks wide."""
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(-a, 3 - a))
    dim = space.rank * (a + b)
    row = st.lists(st.sampled_from([0, 0, 1, -1, 2]), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, max_size=dim))
    return Lattice(space, a, b, Subspace.from_rows(space.ctx, dim, rows))


@st.composite
def lattice_pairs(draw):
    space = TateSpace(draw(st.sampled_from(DIFF_FIELDS)), draw(st.integers(1, 3)))
    return space, draw(lattices(space)), draw(lattices(space))


@settings(max_examples=150, deadline=None)
@given(lattice_pairs(), st.randoms(use_true_random=False))
def test_quotient_dims_and_vdim_match_the_window_count(case, rng):
    """Quotient dimensions read off vdim equal the count of quotient
    representatives on join and meet pairs, a non-nested pair still raises
    NotNested, and g moves vdim by -v(det g)."""
    space, L, M = case
    for sub, sup in ((meet(L, M), L), (meet(L, M), M), (L, join(L, M)), (M, join(L, M))):
        assert quotient_dim_lattices(sub, sup) == ref_quotient_dim(sub, sup) == sup.vdim - sub.vdim
    if not leq(L, M):
        with pytest.raises(NotNested):
            quotient_dim_lattices(L, M)
    g = rand_mult(space.ctx, rng, -3, 3) if space.rank == 1 else rand_gl(space.ctx, space.rank, rng)
    assert act(g, L).vdim - L.vdim == -g.det_valuation()


def test_vdim_is_zero_at_o_and_counts_std_shifts():
    assert O.vdim == 0
    for n in range(-3, 4):
        assert std_lattice(V, [n]).vdim == -n
    V3 = TateSpace(GF(3), 3)
    assert std_lattice(V3, [2, -1, 0]).vdim == -1


def test_contains_vector_needs_one_coordinate_per_rank():
    L = std_lattice(V, [-1])
    zero, tinv, one = (parse_laurent(QQ, x) for x in ("0", "t^-1", "1"))
    assert L.contains_vector((tinv,)) and not std_lattice(V, [0]).contains_vector((tinv,))
    for vec in ((zero, tinv), (tinv, one), ()):
        with pytest.raises(SpaceMismatch):
            L.contains_vector(vec)
    V2 = TateSpace(QQ, 2)
    with pytest.raises(SpaceMismatch):
        std_lattice(V2, 0).contains_vector((one,))


def test_far_lattices_need_no_common_window():
    """Lattices that store no rows compare, join, meet and test membership
    exactly, however far apart their tops: no common window is built."""
    far, near = std_lattice(V, 600), std_lattice(V, -600)
    assert leq(far, near) and not leq(near, far)
    assert join(far, near) == near and meet(far, near) == far
    assert not std_lattice(V, 0).contains_vector((parse_laurent(QQ, "t^-2000"),))
    assert std_lattice(V, -2000).contains_vector((parse_laurent(QQ, "t^-2000+t^3000"),))


def test_hash_tells_apart_the_std_lattices_at_minus_1_and_minus_2():
    """CPython hashes -1 and -2 alike, so the hash needs b beside a."""
    assert hash(std_lattice(V, -1)) != hash(std_lattice(V, -2))


def test_lattice_rejects_non_integer_window_bounds():
    with pytest.raises(TypeError):
        Lattice(V, 1.0, 0, Subspace.from_rows(QQ, 1, []))
    with pytest.raises(TypeError):
        Lattice(V, 0, 1.0, Subspace.from_rows(QQ, 1, []))
    assert Lattice(V, True, 0, Subspace.from_rows(QQ, 1, [])) == std_lattice(V, [1])


def test_lattice_rejects_a_subspace_over_another_field():
    F5 = GF(5)
    with pytest.raises(FieldMismatch):
        Lattice(TateSpace(QQ, 1), 1, 1, Subspace.from_rows(F5, 2, [[1, 2]]))
    with pytest.raises(FieldMismatch):
        Lattice(TateSpace(GF(7), 1), 1, 1, Subspace.from_rows(F5, 2, [[1, 2]]))
    # A separately built context of the same field is the same field.
    L = Lattice(TateSpace(GF(5), 1), 1, 1, Subspace.from_rows(F5, 2, [[1, 2]]))
    assert L.window_subspace(L.a, L.b).dim == 1 and L.ctx == F5
