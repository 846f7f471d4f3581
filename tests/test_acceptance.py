"""Acceptance criteria, one test per criterion.

All arithmetic is exact, so every tolerance is exact equality.  Each test
prints one PASS/FAIL line (run with ``pytest -s`` to see them) and enforces
its runtime budget.
"""

import hashlib
import json
import random
import time
from itertools import product

import pytest

from tatekit import (
    GF,
    QQ,
    AutChain,
    Automorphism,
    BasedPoset,
    DeterminantTheory,
    DimensionTheory,
    FinPoset,
    TateSpace,
    act,
    b_interval,
    build_family,
    check_additivity,
    cocycle_check,
    commutator,
    det_theory_coherence,
    euler0,
    ex_poset,
    family_passes,
    index0,
    index0_with,
    join,
    k0_decompose,
    k0_reconstruct,
    meet,
    nerve,
    omega,
    preindex_k0,
    quotient_dim_lattices,
    sd_ordinal,
    star_frame,
    std_lattice,
    tame_symbol,
    verify_family,
)
from tatekit.cli import main as cli_main
from tatekit.detline import GRADED, UNGRADED, closed_commutator_formula
from tatekit.simplicial import sd_maps_into_poset
from tatekit.verify import (
    rand_admissible_diagram,
    rand_filtered_poset,
    rand_gl,
    rand_lattice,
    rand_mult,
    rand_unit_poly,
)
from simplicial_ref import ref_ex_poset, ref_sd_maps_into_poset


VERIFY_SEED7_SHA256 = "f45184fb9f20cbd6b2e4a35322963193ce4a6be4b850d144d87ba415c3158955"


def _finish(num, desc, ok, t0, limit):
    elapsed = time.monotonic() - t0
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print("%s criterion %2d: %s [%.2fs < %ds]" % (status, num, desc, elapsed, limit))
    assert ok, "criterion %d failed" % num
    assert elapsed < limit, "criterion %d exceeded %ds (%.1fs)" % (num, limit, elapsed)


def test_criterion_01_winding_number():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for ctx in (QQ, GF(5)):
        for _ in range(50):
            f = rand_unit_poly(ctx, rng, -5, 5)
            ok = ok and index0(Automorphism.mult_by(f)) == f.valuation()
    _finish(1, "index of multiplication units recovers the winding number", ok, t0, 5)


def test_criterion_02_choice_independence():
    t0 = time.monotonic()
    rng = random.Random(102)
    ok = True
    for k in range(20):
        if k % 2 == 0:
            ctx = GF(5) if k % 4 else QQ
            space = TateSpace(ctx, 1)
            g = rand_mult(ctx, rng)
        else:
            ctx = GF(3)
            space = TateSpace(ctx, 2)
            g = rand_gl(ctx, 2, rng)
        want = index0(g)
        for _ in range(10):
            L = rand_lattice(space, rng, 2)
            N = join(join(L, act(g, L)), rand_lattice(space, rng, 2))
            ok = ok and index0_with(g, L, N) == want
    _finish(2, "index is independent of the (L, N) choices", ok, t0, 30)


def test_criterion_03_euler_characteristic():
    t0 = time.monotonic()
    rng = random.Random(103)
    ok = True
    for k in range(100):
        if k % 2 == 0:
            ctx = GF(5) if k % 4 else QQ
            space = TateSpace(ctx, 1)
            g = rand_mult(ctx, rng)
        else:
            ctx = GF(3)
            space = TateSpace(ctx, 2)
            g = rand_gl(ctx, 2, rng)
        L = rand_lattice(space, rng, 2)
        N = meet(L, act(g, L))
        ok = ok and euler0(g, L, N) == index0(g)
    _finish(3, "Euler characteristic of gL -> L equals the index", ok, t0, 30)


def test_criterion_04_additivity():
    t0 = time.monotonic()
    rng = random.Random(104)
    ctx = GF(3)
    ok = True
    for k in range(200):
        if k % 2 == 0:
            ok = ok and check_additivity(rand_mult(ctx, rng), rand_mult(ctx, rng))
        else:
            ok = ok and check_additivity(rand_gl(ctx, 2, rng), rand_gl(ctx, 2, rng))
    _finish(4, "index of a composite is the sum of indices (200 pairs)", ok, t0, 60)


def test_criterion_05_lattice_family():
    t0 = time.monotonic()
    ok = True
    for seed in range(30):
        rng = random.Random(1000 + seed)
        ctx = GF(3)
        rank = 1 if seed % 2 else 2
        space = TateSpace(ctx, rank)
        for length in (1, 2, 3):
            autos = []
            while len(autos) < length:
                g = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, 2, rng)
                if not g.is_identity():
                    autos.append(g)
            fam = build_family(AutChain(space, autos))
            ok = ok and family_passes(verify_family(fam))
            if length >= 2 and seed % 6 == 0:
                kept = tuple(range(length + 1))
                old = fam.lattice(kept, [0])
                spoiled = join(old, std_lattice(space, [-(old.b + 1)] * rank))
                ok = ok and spoiled != old and not family_passes(
                    verify_family(fam.replaced(kept, [0], spoiled))
                )
                # drop the g_k-translate where that actually changes the entry
                I = list(range(length))
                untranslated = fam.lattice(kept[:-1], I)
                if untranslated != fam.lattice(kept, I):
                    ok = ok and not family_passes(
                        verify_family(fam.replaced(kept, I, untranslated))
                    )
    _finish(5, "inductive families verify; injected faults are caught", ok, t0, 120)


def test_criterion_06_cocycle():
    t0 = time.monotonic()
    rng = random.Random(106)
    ok = True
    for k in range(100):
        ctx = QQ if k % 2 else GF(5)
        space = TateSpace(ctx, 1)
        quad = [rand_lattice(space, rng, 3) for _ in range(4)]
        ok = ok and cocycle_check(*quad, mode=UNGRADED)
        ok = ok and cocycle_check(*quad, mode=GRADED)
        shifts = sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True)
        mono = [std_lattice(space, [s]) for s in shifts]
        ok = ok and omega(*mono, mode=UNGRADED) == ctx.one()
    _finish(6, "relative determinant cocycle commutes; nested omega = 1", ok, t0, 60)


def test_criterion_07_commutator_formula():
    t0 = time.monotonic()
    rng = random.Random(107)
    ok = True
    for k in range(100):
        ctx = QQ if k % 2 else GF(5)
        f = rand_unit_poly(ctx, rng, -3, 3)
        g = rand_unit_poly(ctx, rng, -3, 3)
        fa, ga = Automorphism.mult_by(f), Automorphism.mult_by(g)
        cu = commutator(fa, ga, UNGRADED)
        cg = commutator(fa, ga, GRADED)
        ok = ok and cu == closed_commutator_formula(f, g)
        ok = ok and cg == tame_symbol(f, g)
        sign = -ctx.one() if (f.valuation() % 2 and g.valuation() % 2) else ctx.one()
        ok = ok and cg / cu == sign
    for k in range(50):
        ctx = GF(5) if k % 2 else QQ
        f1 = rand_unit_poly(ctx, rng, -2, 2)
        f2 = rand_unit_poly(ctx, rng, -2, 2)
        g = rand_unit_poly(ctx, rng, -2, 2)
        left = commutator(Automorphism.mult_by(f1 * f2), Automorphism.mult_by(g), GRADED)
        ok = ok and left == commutator(
            Automorphism.mult_by(f1), Automorphism.mult_by(g), GRADED
        ) * commutator(Automorphism.mult_by(f2), Automorphism.mult_by(g), GRADED)
    _finish(7, "extension commutator = closed formula; graded ratio; bimultiplicative", ok, t0, 120)


def test_criterion_08_dimension_torsor():
    t0 = time.monotonic()
    rng = random.Random(108)
    ctx = GF(5)
    space = TateSpace(ctx, 1)
    ok = True
    theory = DimensionTheory(rand_lattice(space, rng, 2), rng.randint(-3, 3))
    for _ in range(100):
        L = rand_lattice(space, rng, 2)
        M = join(L, rand_lattice(space, rng, 2))
        ok = ok and theory.eval(M) == theory.eval(L) + quotient_dim_lattices(L, M)
    other = DimensionTheory(rand_lattice(space, rng, 2), rng.randint(-3, 3))
    diffs = set()
    for _ in range(20):
        L = rand_lattice(space, rng, 3)
        diffs.add(theory.eval(L) - other.eval(L))
    ok = ok and len(diffs) == 1
    _finish(8, "dimension theories satisfy the nested relation, differ by a constant", ok, t0, 30)


def test_criterion_09_determinant_coherence():
    t0 = time.monotonic()
    rng = random.Random(109)
    ctx = GF(3)
    space = TateSpace(ctx, 1)
    ok = True
    for _ in range(50):
        theory = DeterminantTheory(rand_lattice(space, rng, 2))
        A = rand_lattice(space, rng, 2)
        B = join(A, rand_lattice(space, rng, 2))
        C = join(B, rand_lattice(space, rng, 2))
        ok = ok and det_theory_coherence(theory, A, B, C, GRADED)
        ok = ok and det_theory_coherence(theory, A, B, C, UNGRADED)
    _finish(9, "determinant-theory coherence square commutes (50 triples)", ok, t0, 60)


def _all_labeled_posets(n):
    """Every poset structure on {0, ..., n-1}."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for bits in product([False, True], repeat=len(pairs)):
        rel = {p for p, b in zip(pairs, bits) if b}
        if any((j, i) in rel for (i, j) in rel):
            continue
        transitive = all(
            ((i, l) in rel or i == l)
            for (i, j) in rel
            for (k, l) in rel
            if j == k
        )
        if not transitive:
            continue
        found.append(FinPoset(range(n), rel))
    return found


def _canon(fams):
    return sorted(
        sorted((tuple(sorted(k)), str(v)) for k, v in f.items()) for f in fams
    )


def test_criterion_10_ex_sd_agreement():
    t0 = time.monotonic()
    ok = True
    total = 0
    for n_elems in (1, 2, 3, 4):
        for P in _all_labeled_posets(n_elems):
            total += 1
            for n in (0, 1, 2):
                # Both enumerations run simplicial._monotone, so each is also
                # held to its reference, which does not.
                ex, sd = ex_poset(P, n), sd_maps_into_poset(P, n)
                ok = ok and _canon(ex) == _canon(sd)
                ok = ok and ex == ref_ex_poset(P, n) and sd == ref_sd_maps_into_poset(P, n)
    ok = ok and total == 1 + 3 + 19 + 219
    # sd(Delta^1): two 1-simplices glued at their ends
    N = nerve(sd_ordinal(1), 2)
    nd1 = [N.simplices[1][i] for i in N.nondegenerate(1)]
    ok = ok and len(N.simplices[0]) == 3 and len(nd1) == 2
    ok = ok and N.nondegenerate(2) == []
    ok = ok and {c[1] for c in nd1} == {frozenset({0, 1})}
    _finish(10, "Ex on poset nerves = maps out of sd, each = its reference, all posets with <= 4 elements", ok, t0, 120)


def test_criterion_11_k0_decomposition_and_preindex():
    t0 = time.monotonic()
    rng = random.Random(111)
    ctx = GF(2)
    ok = True
    b2 = b_interval(2)
    for k in range(100):
        if k % 2 == 0:
            based = b2
            D = rand_admissible_diagram(b2.poset, ctx, rng, ambient=5)
        else:
            P = rand_filtered_poset(rng, max_elems=6)
            based = BasedPoset(P, [P.minimal_elements()[0]])
            D = rand_admissible_diagram(P, ctx, rng)
        frame = star_frame(based)
        d0, edge_dims = k0_decompose(D, frame)
        rec = k0_reconstruct(frame, d0, edge_dims)
        ok = ok and all(rec[x] == D.dim(x) for x in based.poset.elements)
        if based is b2:
            b0, b1, b2p = b2.base_points
            p01 = preindex_k0(D, [b0, b1])[0]
            p12 = preindex_k0(D, [b1, b2p])[0]
            p02 = preindex_k0(D, [b0, b2p])[0]
            ok = ok and p01 + p12 == p02
    _finish(11, "tree splitting reconstructs dims; pre-index chain rule holds", ok, t0, 120)


def test_criterion_12_determinism(capsys):
    t0 = time.monotonic()
    code1 = cli_main(["verify", "--suite", "all", "--seed", "7", "--json"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "--suite", "all", "--seed", "7", "--json"])
    out2 = capsys.readouterr().out
    ok = code1 == 0 and code2 == 0 and out1 == out2
    report = json.loads(out1)
    ok = ok and report["passed"] and report["summary"]["fail"] == 0
    # golden hash: the report must not drift across changes to the code
    ok = ok and hashlib.sha256(out1.encode()).hexdigest() == VERIFY_SEED7_SHA256
    _finish(12, "verify --suite all --seed 7 is byte-identical and green", ok, t0, 600)
