import random
import re
from functools import reduce
from itertools import combinations

import pytest

from tatekit import (
    GF,
    QQ,
    AutChain,
    Automorphism,
    TateSpace,
    act,
    build_family,
    check_additivity,
    euler0,
    family_passes,
    index0,
    index0_with,
    index_simplex,
    join,
    leq,
    meet,
    parse_laurent,
    parse_laurent_matrix,
    std_lattice,
    verify_family,
)
from tatekit.errors import ChainTooLong, DegenerateChain, NotNested, UnknownFace
from tatekit.index_map import _arrows
from tatekit.laurent import LaurentPoly
from tatekit.simplicial import nonempty_subsets, subset_degeneracy, subset_face
from tatekit.verify import rand_gl, rand_lattice, rand_mult, rand_scalar, rand_unit_poly

V = TateSpace(QQ, 1)
O = std_lattice(V, [0])
t = Automorphism.mult_by(parse_laurent(QQ, "t"))
tinv = Automorphism.mult_by(parse_laurent(QQ, "t^-1"))


def test_index0_identity():
    assert index0(Automorphism.identity(QQ, 1)) == 0


def test_index0_is_winding_number():
    rng = random.Random(41)
    for trial in range(40):
        ctx = QQ if trial % 2 else GF(5)
        f = rand_unit_poly(ctx, rng, -5, 5)
        assert index0(Automorphism.mult_by(f)) == f.valuation()


def test_index0_gl_diag():
    g = Automorphism.gl(parse_laurent_matrix(QQ, "t,0;0,t^2"))
    assert index0(g) == 3
    rng = random.Random(43)
    ctx = GF(3)
    for _ in range(15):
        h = rand_gl(ctx, 2, rng)
        assert index0(h) == h.det_valuation()


def test_index0_with_examples():
    e = Automorphism.identity(QQ, 1)
    assert index0_with(e, O, O) == 0
    assert index0_with(tinv, O, std_lattice(V, [-1])) == -1
    assert index0_with(t, O, std_lattice(V, [-3])) == 1
    with pytest.raises(NotNested):
        index0_with(tinv, O, O)  # N misses t^-1 O


def test_euler0_examples():
    e = Automorphism.identity(QQ, 1)
    assert euler0(e, O, O) == 0
    assert euler0(t, O, std_lattice(V, [1])) == 1
    tm2 = Automorphism.mult_by(parse_laurent(QQ, "t^-2"))
    assert euler0(tm2, O, O) == -2
    with pytest.raises(NotNested):
        euler0(t, O, O)


def test_euler_equals_index_randomized():
    rng = random.Random(47)
    for trial in range(30):
        ctx = GF(5) if trial % 2 else QQ
        space = TateSpace(ctx, 1)
        g = rand_mult(ctx, rng)
        L = rand_lattice(space, rng, 2)
        N = meet(L, act(g, L))
        assert euler0(g, L, N) == index0(g)


def test_choice_independence():
    rng = random.Random(53)
    for _ in range(10):
        g = rand_mult(GF(5), rng)
        space = TateSpace(GF(5), 1)
        want = index0(g)
        for _ in range(10):
            L = rand_lattice(space, rng, 2)
            N = join(join(L, act(g, L)), rand_lattice(space, rng, 2))
            assert index0_with(g, L, N) == want


def ref_face_chain(chain, i):
    """d_i of a chain of composable automorphisms, written out case by case."""
    k = len(chain)
    if i == 0:
        return chain[1:]
    if i == k:
        return chain[:-1]
    return chain[: i - 1] + (chain[i].compose(chain[i - 1]),) + chain[i + 1 :]


def _subchain(chain, kept):
    """The chain seen by an iterated face keeping the given vertices, each
    arrow composed from the top chain's; the face d_i keeps every vertex but i."""
    out = []
    for lo, hi in zip(kept, kept[1:]):
        g = chain[lo]
        for j in range(lo + 1, hi):
            g = chain[j].compose(g)
        out.append(g)
    return tuple(out)


def test_subchain_without_one_vertex_is_the_face():
    rng = random.Random(89)
    for k in range(1, 5):
        for ctx, rank in ((GF(3), 1), (QQ, 1), (GF(5), 2), (QQ, 2)):
            chain = tuple(rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, 2, rng) for _ in range(k))
            arrows = _arrows(chain)
            for i in range(k + 1):
                kept = [j for j in range(k + 1) if j != i]
                assert tuple(arrows[pair] for pair in zip(kept, kept[1:])) == ref_face_chain(chain, i)


@pytest.mark.parametrize("length, composes", [(2, 1), (3, 3), (4, 6)])
def test_family_composes_each_vertex_pair_once(monkeypatch, length, composes):
    chain = seeded_chain(2, GF(3), length)
    calls = []
    real = Automorphism.compose
    monkeypatch.setattr(Automorphism, "compose", lambda g, h: calls.append(1) or real(g, h))
    fam = build_family(chain)
    assert len(calls) == composes
    monkeypatch.undo()
    pairs = list(combinations(range(length + 1), 2))
    assert sorted(fam.arrows) == pairs
    for lo, hi in pairs:
        assert fam.arrows[lo, hi] == _subchain(chain.autos, (lo, hi))[0]


def test_build_family_single_mult():
    fam = build_family(AutChain(V, [t]))
    assert fam.lattice((0, 1), [0]) == std_lattice(V, [1])  # g L0
    assert fam.lattice((0, 1), [1]) == O
    assert fam.lattice((0, 1), [0, 1]) == O  # join = t^min(1,0) O
    assert family_passes(verify_family(fam))


def test_build_family_rejects_degenerate_and_long():
    with pytest.raises(DegenerateChain):
        build_family(AutChain(V, [Automorphism.identity(QQ, 1)]))
    with pytest.raises(ChainTooLong):
        build_family(AutChain(V, [t] * 5))


def test_build_family_inverse_pair():
    fam = build_family(AutChain(V, [t, tinv]))
    # L_{2,[2]} = t^-1 O v O v tO = t^-1 O
    assert fam.lattice((0, 1, 2), [0, 1, 2]) == std_lattice(V, [-1])
    assert family_passes(verify_family(fam))


def test_verify_family_detects_containment_fault():
    fam = build_family(AutChain(V, [t, tinv]))
    bad = fam.replaced((0, 1, 2), [0], std_lattice(V, [-5]))
    report = verify_family(bad)
    assert not family_passes(report)
    assert any(r["check"] == "hypothesis_c" and r["status"] == "fail" for r in report)


def test_verify_family_detects_translate_fault():
    fam = build_family(AutChain(V, [t, tinv]))
    # drop the g_k-translate: overwrite L_{2,{0}} with the untranslated lattice
    bad = fam.replaced((0, 1, 2), [0, 1], fam.lattice((0, 1), [0, 1]))
    report = verify_family(bad)
    assert not family_passes(report)
    assert any(
        r["check"].startswith("face_identity_d2") and r["status"] == "fail"
        for r in report
    ) or any(r["check"] == "hypothesis_b" and r["status"] == "fail" for r in report)


def test_index_simplex_loop():
    fam = build_family(AutChain(V, [t]))
    dims = index_simplex(fam, (0, 1))
    assert dims == [1, 0]
    assert dims[0] - dims[1] == index0(t)


def test_index_simplex_degenerate_edge():
    fam = build_family(AutChain(V, [t, tinv]))
    # the (0,2) face composes to the identity: both edges collapse
    assert index_simplex(fam, (0, 2)) == [0, 0]
    with pytest.raises(UnknownFace):
        index_simplex(fam, (0, 3))


def test_index_simplex_measures_against_the_top():
    fam = build_family(AutChain(V, [t, tinv]))
    # on the face (1, 2) the top t^-1 O lies strictly above entry m = O
    assert index_simplex(fam, (1, 2)) == [0, 1]


def test_index_simplex_rank2():
    V2 = TateSpace(QQ, 2)
    g = Automorphism.gl(parse_laurent_matrix(QQ, "t,0;0,t"))
    fam = build_family(AutChain(V2, [g]))
    dims = index_simplex(fam, (0, 1))
    assert sum(dims) == 2 and dims[0] - dims[1] == 2


def test_additivity():
    assert check_additivity(t, t)
    assert index0(t.compose(t)) == 2
    assert check_additivity(t, tinv)
    rng = random.Random(59)
    ctx = GF(3)
    for _ in range(20):
        g, h = rand_gl(ctx, 2, rng), rand_gl(ctx, 2, rng)
        assert check_additivity(g, h)


def test_family_verification_randomized():
    rng = random.Random(61)
    for _ in range(6):
        ctx = GF(3)
        space = TateSpace(ctx, 1)
        autos = [rand_mult(ctx, rng, -2, 2) for _ in range(3)]
        if any(g.is_identity() for g in autos):
            continue
        fam = build_family(AutChain(space, autos))
        assert family_passes(verify_family(fam))


def test_verify_family_computes_each_translate_once(monkeypatch):
    import tatekit.index_map as index_map

    rng = random.Random(67)
    ctx = GF(5)
    space = TateSpace(ctx, 2)
    chain = AutChain(space, [rand_gl(ctx, 2, rng) for _ in range(3)])
    calls, tests = [], []
    real, real_leq = index_map.act, index_map.leq
    monkeypatch.setattr(index_map, "act", lambda g, L: calls.append((g, L)) or real(g, L))
    monkeypatch.setattr(index_map, "leq", lambda L, M: tests.append((L, M)) or real_leq(L, M))
    fam = build_family(chain)
    built = set(calls)
    report = verify_family(fam)
    assert family_passes(report)
    # Hypothesis (c) tests each distinct (L, M) once, and fewer than its pairs.
    assert tests and len(tests) == len(set(tests)) < sum(r["check"] == "hypothesis_c" for r in report)
    # One act per distinct (g, L) by value, across build and verify: verify
    # reuses the builder's translates and repeats none of its own.
    assert len(calls) == len(set(calls)) == len(fam._translates)
    assert built and not built & set(calls[len(built):])
    # Fewer than one per (last arrow, lower face, subset of the lower face).
    assert len(calls) < sum(2 ** (len(kept) - 1) - 1 for kept in fam.faces if len(kept) > 1)


def ref_entries(chain):
    """build_family's entries as the top subset joining every proper subset."""
    base, memo = std_lattice(chain.space, 0), {}

    def lattice(sub, I):
        if (sub, I) not in memo:
            m = len(sub)
            degenerate_at = next((j for j, g in enumerate(sub) if g.is_identity()), None)
            if m == 0:
                val = base
            elif degenerate_at is not None:
                tau = sub[:degenerate_at] + sub[degenerate_at + 1 :]
                val = lattice(tau, subset_degeneracy(I, degenerate_at))
            elif len(I) <= m:
                i = min(set(range(m + 1)) - I)
                if i < m:
                    val = lattice(_subchain(sub, [j for j in range(m + 1) if j != i]), subset_degeneracy(I, i))
                else:
                    val = act(sub[-1], lattice(sub[:-1], I))
            else:
                val = reduce(join, [lattice(sub, J) for J in nonempty_subsets(m) if len(J) <= m])
            memo[sub, I] = val
        return memo[sub, I]

    k = len(chain)
    return {
        (kept, tuple(sorted(I))): lattice(_subchain(chain.autos, kept), I)
        for size in range(1, k + 2)
        for kept in combinations(range(k + 1), size)
        for I in nonempty_subsets(size - 1)
    }


def ref_verify(fam):
    """verify_family with every translate recomputed and leq on all pairs I < J.

    Returns the report and two verdict maps keyed by (kept, I, i): the (a)/(b)
    records, and, computed apart, the face identities d_i at J with I = d^i(J).
    """
    report, ab, identities = [], {}, {}

    def record(check, simplex, ok, detail):
        report.append({"check": check, "simplex": simplex, "status": "pass" if ok else "fail", "detail": "" if ok else detail})

    for kept in fam.faces:
        m = len(kept) - 1
        if m == 0:
            continue
        g, tag = fam.arrows[kept[-2:]], "S=%s" % (",".join(map(str, kept)),)
        subsets = nonempty_subsets(m)
        for I in subsets:
            for i in sorted(set(range(m + 1)) - set(I)) if len(I) <= m else ():
                here = fam.lattice(kept, I)
                lower = kept[:i] + kept[i + 1 :]
                if i < m:
                    ok = here == fam.lattice(lower, subset_degeneracy(I, i))
                    record("hypothesis_a", "%s I=%s i=%d" % (tag, sorted(I), i), ok, "face value disagrees")
                else:
                    ok = here == act(g, fam.lattice(lower, I))
                    record("hypothesis_b", "%s I=%s" % (tag, sorted(I)), ok, "g_k-translate disagrees")
                ab[kept, tuple(sorted(I)), i] = ok
        for I in subsets:
            for J in subsets:
                if I < J:
                    ok = leq(fam.lattice(kept, I), fam.lattice(kept, J))
                    record("hypothesis_c", "%s I=%s J=%s" % (tag, sorted(I), sorted(J)), ok, "not a sub-lattice")
        for i in range(m + 1):
            lower = kept[:i] + kept[i + 1 :]
            for J in nonempty_subsets(m - 1):
                I = tuple(sorted(subset_face(J, i)))
                top = fam.lattice(kept, I)
                want = fam.lattice(lower, J) if i < m else act(g, fam.lattice(lower, J))
                identities[kept, I, i] = top == want
    return report, ab, identities


def assert_matches_reference(fam, report):
    """The report is the (a)/(b)/(c) reference, and every face identity d_i at
    J has the verdict of the (a)/(b) record at (d^i(J), i): each is checked once."""
    ref, ab, identities = ref_verify(fam)
    assert report == ref
    assert identities == ab


def seeded_chain(rank, ctx, length):
    rng = random.Random(71 + 10 * rank + length)
    autos = []
    while len(autos) < length:
        g = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
        if not g.is_identity():
            autos.append(g)
    return AutChain(TateSpace(ctx, rank), autos)


def covering_failures(report):
    """The failing hypothesis (c) records whose J has one element more than I."""
    out = []
    for r in report:
        if r["check"] == "hypothesis_c" and r["status"] == "fail":
            I, J = re.search(r"I=\[(.*)\] J=\[(.*)\]", r["simplex"]).groups()
            if J.count(",") == I.count(",") + 1:
                out.append(r)
    return out


@pytest.mark.parametrize(
    "ctx, rank",
    [
        pytest.param(GF(3), 1, id="GF3-1"),
        pytest.param(QQ, 1, id="Q-1"),
        pytest.param(GF(3), 2, id="GF3-2"),
        pytest.param(QQ, 2, id="Q-2"),
        pytest.param(GF(1000003), 3, id="GF1000003-3"),
        pytest.param(QQ, 3, id="Q-3"),
    ],
)
@pytest.mark.parametrize("length", [1, 2, 3, 4])
def test_family_matches_the_all_subsets_reference(rank, ctx, length):
    chain = seeded_chain(rank, ctx, length)
    fam = build_family(chain)
    ref = ref_entries(chain)
    assert fam.entries == ref
    assert list(fam.entries) == list(ref)  # faces by size, subsets by size
    report = verify_family(fam)
    assert family_passes(report)
    assert_matches_reference(fam, report)
    if length < 2:
        return
    # Spoil L_{0} upwards and L_{0,1} downwards: covering pairs fail, so the
    # pairs above them are settled by leq, not by a chain of passing pairs.
    kept = tuple(range(length + 1))
    space = chain.space
    for I, spoil in (
        ([0], lambda L: join(L, std_lattice(space, [-(L.b + 1)] * rank))),
        ([0, 1], lambda L: meet(L, std_lattice(space, [1 - L.b] * rank))),
    ):
        old = fam.lattice(kept, I)
        broken = fam.replaced(kept, I, spoil(old))
        assert broken.lattice(kept, I) != old
        report = verify_family(broken)
        assert covering_failures(report)
        assert_matches_reference(broken, report)


def test_replaced_rejects_a_subset_the_family_does_not_hold():
    fam = build_family(AutChain(V, [t, tinv]))
    with pytest.raises(UnknownFace):
        fam.replaced((0, 1, 2), [0, 5], std_lattice(V, [-5]))
    with pytest.raises(UnknownFace):
        fam.replaced((0, 3), [0], std_lattice(V, [-5]))
    assert len(fam.entries) == 19


def test_a_second_family_of_the_same_length_builds_no_face_plan(monkeypatch):
    import tatekit.index_map as index_map

    def forbidden(*args):
        raise AssertionError("a face plan was built twice")

    assert family_passes(verify_family(build_family(seeded_chain(2, GF(3), 4))))
    for name in ("subset_degeneracy", "nonempty_subsets"):
        monkeypatch.setattr(index_map, name, forbidden)
    assert family_passes(verify_family(build_family(seeded_chain(2, QQ, 4))))


def test_a_passing_family_translates_once_per_face_and_tests_each_pair_once(monkeypatch):
    import tatekit.index_map as index_map

    chain = seeded_chain(2, GF(3), 4)
    acts, tests = [], []
    real, real_leq = index_map.act, index_map.leq
    monkeypatch.setattr(index_map, "act", lambda g, L: acts.append((g, L)) or real(g, L))
    monkeypatch.setattr(index_map, "leq", lambda L, M: tests.append((L, M)) or real_leq(L, M))
    fam = build_family(chain)
    # the least missing vertex is m for one subset of a face only, I = [m-1]
    assert 0 < len(acts) <= sum(len(kept) > 1 for kept in fam.faces)
    assert family_passes(verify_family(fam))
    # every hypothesis (c) pair is tested by leq, once per distinct (L, M)
    pairs = {
        (fam.lattice(kept, I), fam.lattice(kept, J))
        for kept in fam.faces
        for I in nonempty_subsets(len(kept) - 1)
        for J in nonempty_subsets(len(kept) - 1)
        if I < J
    }
    assert len(tests) == len(set(tests)) and set(tests) == pairs


def test_a_wider_pair_needs_both_links_to_pass():
    # Spoil the full subset downwards: I < I + x still passes, I + x < [m]
    # fails, so a pair I < [m] of gap 2 or more must be settled by leq.
    chain = seeded_chain(2, QQ, 3)
    fam = build_family(chain)
    kept = (0, 1, 2, 3)
    top = fam.lattice(kept, kept)
    broken = fam.replaced(kept, kept, meet(top, std_lattice(chain.space, [1 - top.b] * 2)))
    report = verify_family(broken)
    assert not family_passes(report)
    assert_matches_reference(broken, report)


def exact_unit(ctx, rank, rng):
    """A non-identity automorphism whose inverse is exact: c*t^k at rank 1,
    a GL matrix with monomial determinant at rank 2."""
    while True:
        if rank == 1:
            g = Automorphism.mult_by(LaurentPoly(ctx, {rng.randint(-2, 2): rand_scalar(ctx, rng, nonzero=True)}))
        else:
            g = rand_gl(ctx, 2, rng)
        if not g.is_identity():
            return g


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("ctx", [GF(3), QQ], ids=["GF3", "Q"])
@pytest.mark.parametrize("shape", ["g,g^-1,h", "g,h,h^-1", "g,h,(hg)^-1"])
def test_family_with_degenerate_faces_matches_the_reference(rank, ctx, shape):
    rng = random.Random(shape + str(rank) + str(ctx))
    g, h = exact_unit(ctx, rank, rng), exact_unit(ctx, rank, rng)
    chains = {"g,g^-1,h": (g, g.inverse(), h), "g,h,h^-1": (g, h, h.inverse()), "g,h,(hg)^-1": (g, h, h.compose(g).inverse())}
    chain = AutChain(TateSpace(ctx, rank), chains[shape])
    fam = build_family(chain)
    # some face composes to the identity, so the degenerate branch is taken
    assert any(a.is_identity() for a in fam.arrows.values())
    assert fam.entries == ref_entries(chain)
    report = verify_family(fam)
    assert family_passes(report)
    assert_matches_reference(fam, report)
