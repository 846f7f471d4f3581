"""Seedable randomized verification suites.

Each suite replays the structural properties of one layer on randomized
inputs and returns a list of check records {suite, check, case, status,
detail}.  All randomness flows from a single ``random.Random(seed)``
(Python's Mersenne Twister), so identical seeds give identical reports on
every platform; records are sorted by (check, case) before they are
returned.  The generators draw each value once, in a fixed order, and a
refactor must keep that order: every later draw and check depends on it.
They draw an integer in [a, b] as ``a + rng.randrange(b - a + 1)``, never
through ``randint`` or a two-argument ``randrange``: CPython computes all
three as ``a`` plus one ``_randbelow(b - a + 1)``, so the stream is the
same, and the one-argument call skips their argument handling.
"""

from __future__ import annotations

import random
from operator import index

from .detline import (
    GRADED,
    UNGRADED,
    DeterminantTheory,
    DimensionTheory,
    ExtElement,
    closed_commutator_formula,
    cocycle_check,
    commutator,
    det_theory_coherence,
    ext_mul,
    omega,
    tame_symbol,
)
from .fields import GF, QQ, FieldCtx
from .index_map import (
    AutChain,
    build_family,
    check_additivity,
    euler0,
    family_passes,
    index0,
    index0_with,
    verify_family,
)
from .lattice import (
    Lattice,
    TateSpace,
    act,
    join,
    leq,
    meet,
    quotient_dim_lattices,
    std_lattice,
)
from .laurent import Automorphism, LaurentMatrix, LaurentPoly
from .linalg import Subspace, _rref_rows
from .simplicial import (
    AdmissibleDiagram,
    BasedPoset,
    FinPoset,
    _ex_rows,
    _sd_map_rows,
    b_interval,
    is_admissible_tree,
    k0_decompose,
    k0_reconstruct,
    nerve,
    order_graph,
    preindex_k0,
    sd_ordinal,
    star_frame,
)

# -- randomized generators -------------------------------------------------


def _rand_raw(ctx: FieldCtx, rng: random.Random, nonzero=False):
    """The raw value of one random scalar: over F_p a residue, over Q an int in [-4, 4]."""
    if ctx.kind == "Fp":
        return rng.randrange(ctx.modulus - 1) + 1 if nonzero else rng.randrange(ctx.modulus)
    val = rng.randrange(9) - 4
    while nonzero and val == 0:
        val = rng.randrange(9) - 4
    return val


def rand_scalar(ctx: FieldCtx, rng: random.Random, nonzero=False):
    return ctx.scalar(_rand_raw(ctx, rng, nonzero))


def rand_unit_poly(ctx: FieldCtx, rng: random.Random, val_lo=-3, val_hi=3, extra=3):
    """A random unit of k((t)) with valuation in [val_lo, val_hi]."""
    v = val_lo + rng.randrange(val_hi - val_lo + 1)
    terms = {v: _rand_raw(ctx, rng, nonzero=True)}
    for e in range(v + 1, v + 1 + rng.randrange(extra + 1)):
        c = _rand_raw(ctx, rng)
        if c:
            terms[e] = c
    return LaurentPoly._raw(ctx, terms)


def rand_lattice(space: TateSpace, rng: random.Random, bound=3) -> Lattice:
    """t^a O^n + the span of random rows of the window (a, b), drawn entry by
    entry, each nonzero one stored at its absolute slot."""
    ctx = space.ctx
    a = rng.randrange(2 * bound + 1) - bound
    b = rng.randrange(a + bound + 1) - a
    dim, off = space.rank * (a + b), -b * space.rank
    rows = [{off + j: x for j in range(dim) if (x := _rand_raw(ctx, rng))} for _ in range(rng.randrange(dim + 1))]
    return Lattice._make(space, a, _rref_rows(ctx, rows))


def rand_gl(ctx: FieldCtx, n: int, rng: random.Random) -> Automorphism:
    """Random GL_n over k[t,1/t] with monomial determinant: L * D * U, whose
    factors are built unchecked; ``Automorphism.gl`` still runs its elimination."""

    def monomial():
        return LaurentPoly._raw(ctx, {rng.randrange(5) - 2: _rand_raw(ctx, rng, nonzero=True)})

    zero = LaurentPoly._raw(ctx, {})
    lower = [LaurentPoly._raw(ctx, {0: 1}) if i == j else zero for i in range(n) for j in range(n)]
    upper = list(lower)
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.6:
                lower[i * n + j] = monomial()
            if rng.random() < 0.6:
                upper[j * n + i] = monomial()
    diag = [monomial() if i == j else zero for i in range(n) for j in range(n)]
    L, D, U = (LaurentMatrix._raw(ctx, n, tuple(entries)) for entries in (lower, diag, upper))
    return Automorphism.gl(L * D * U)


def rand_mult(ctx: FieldCtx, rng: random.Random, val_lo=-3, val_hi=3) -> Automorphism:
    return Automorphism.mult_by(rand_unit_poly(ctx, rng, val_lo, val_hi))


def rand_filtered_poset(rng: random.Random, max_elems=6) -> FinPoset:
    m = 2 + rng.randrange(max_elems - 2)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < 0.4:
                pairs.append((i, j))
    pairs.extend((i, "top") for i in range(m))
    return FinPoset(list(range(m)) + ["top"], pairs)


def rand_admissible_diagram(poset: FinPoset, ctx: FieldCtx, rng: random.Random, ambient=None):
    """Monotone subspace assignment: F(x) spans one random vector per
    element of the down-set of x."""
    d = ambient if ambient is not None else len(poset) + 1
    vectors = {
        y: [_rand_raw(ctx, rng) for _ in range(d)] for y in poset.elements
    }
    assignment = {}
    for x in poset.elements:
        gens = [vectors[y] for y in poset.elements if poset.leq(y, x)]
        assignment[x] = Subspace.from_rows(ctx, d, gens)
    return AdmissibleDiagram(poset, assignment)


# -- report plumbing --------------------------------------------------------


class _Reporter:
    def __init__(self, suite):
        self.suite = suite
        self.checks = []

    def record(self, check, case, ok, detail=""):
        self.checks.append(
            {
                "suite": self.suite,
                "check": check,
                "case": "%04d" % case if isinstance(case, int) else str(case),
                "status": "pass" if ok else "fail",
                "detail": detail if not ok else "",
            }
        )

    def done(self):
        self.checks.sort(key=lambda r: (r["check"], r["case"]))
        return self.checks


# -- suites ------------------------------------------------------------------


def suite_lattice(cases=25, seed=0):
    """Poset laws of Gr(V) and equivariance of the automorphism action."""
    rng = random.Random(seed)
    rep = _Reporter("lattice")
    ctx = GF(3)
    for case in range(cases):
        rank = rng.choice([1, 1, 2])
        space = TateSpace(ctx, rank)
        L, M, K = (rand_lattice(space, rng, 3) for _ in range(3))
        up, down = join(L, M), meet(L, M)
        rep.record("directed_up", case, leq(L, up) and leq(M, up))
        rep.record("directed_down", case, leq(down, L) and leq(down, M))
        rep.record("join_comm", case, up == join(M, L))
        rep.record("meet_comm", case, down == meet(M, L))
        rep.record("join_assoc", case, join(up, K) == join(L, join(M, K)))
        rep.record("meet_assoc", case, meet(down, K) == meet(L, meet(M, K)))
        rep.record("join_idem", case, join(L, L) == L)
        rep.record("meet_idem", case, meet(L, L) == L)
        rep.record("absorb", case, join(L, down) == L and meet(L, up) == L)
        rep.record("modular_dims", case, quotient_dim_lattices(down, L) == quotient_dim_lattices(M, up))
        g = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
        h = rand_mult(ctx, rng, -2, 2) if rank == 1 else rand_gl(ctx, rank, rng)
        gL, gM = act(g, L), act(g, M)
        rep.record("act_order", case, leq(L, M) == leq(gL, gM))
        rep.record("act_join", case, act(g, up) == join(gL, gM))
        rep.record("act_compose", case, act(g, act(h, L)) == act(g.compose(h), L))
        bigger = L.window_subspace(L.a + 1, L.b + 1)
        rep.record(
            "normalize_idem", case, Lattice(space, L.a + 1, L.b + 1, bigger) == L
        )
    return rep.done()


def suite_index(cases=50, seed=0):
    """Winding numbers, choice independence, Euler form, additivity."""
    rng = random.Random(seed)
    rep = _Reporter("index")
    for case in range(cases):
        ctx = QQ if case % 2 == 0 else GF(5)
        space = TateSpace(ctx, 1)
        f = rand_unit_poly(ctx, rng, -5, 5)
        g = Automorphism.mult_by(f)
        want = index0(g)
        rep.record("winding", case, want == f.valuation())
        ctx3 = GF(3)
        gm = rand_gl(ctx3, 2, rng)
        rep.record("gl_winding", case, index0(gm) == gm.det_valuation())
        # choice independence over 10 random admissible pairs
        ok = True
        for _ in range(10):
            L = rand_lattice(space, rng, 2)
            N = join(L, act(g, L), rand_lattice(space, rng, 2))
            if index0_with(g, L, N) != want:
                ok = False
                break
        rep.record("choice_independent", case, ok)
        L = rand_lattice(space, rng, 2)
        N = meet(L, act(g, L))
        rep.record("euler_equals_index", case, euler0(g, L, N) == want)
        h = rand_mult(ctx, rng)
        g2 = rand_mult(ctx, rng)
        rep.record("additive_mult", case, check_additivity(g2, h))
        gm2 = rand_gl(ctx3, 2, rng)
        rep.record("additive_gl", case, check_additivity(gm, gm2))
    return rep.done()


def _random_chain(rng: random.Random, length: int):
    ctx = GF(3)
    if rng.random() < 0.5:
        space = TateSpace(ctx, 1)
        autos = [rand_mult(ctx, rng, -2, 2) for _ in range(length)]
    else:
        space = TateSpace(ctx, 2)
        autos = [rand_gl(ctx, 2, rng) for _ in range(length)]
    autos = [g for g in autos if not g.is_identity()]
    if len(autos) < length:
        return _random_chain(rng, length)
    return AutChain(space, autos)


def suite_family(cases=10, seed=0):
    """The inductive family: hypotheses (a)-(c) and fault detection; the
    (a)/(b) record at (I, i) is face identity d_i at J = s^i(I)."""
    rng = random.Random(seed)
    rep = _Reporter("family")
    for case in range(cases):
        for length in (1, 2, 3):
            chain = _random_chain(rng, length)
            fam = build_family(chain)
            report = verify_family(fam)
            rep.record(
                "family_len%d" % length,
                case,
                family_passes(report),
                "; ".join(
                    "%s %s" % (r["check"], r["simplex"])
                    for r in report
                    if r["status"] == "fail"
                )[:200],
            )
            if length >= 2:
                kept = tuple(range(length + 1))
                old = fam.lattice(kept, [0])
                spoiled = join(
                    old, std_lattice(chain.space, [-(old.b + 1)] * chain.space.rank)
                )
                broken = fam.replaced(kept, [0], spoiled)
                rep.record(
                    "fault_detected_len%d" % length,
                    case,
                    spoiled != old and not family_passes(verify_family(broken)),
                )
    return rep.done()


def suite_detline(cases=25, seed=0):
    """Cocycle, extension associativity, commutator formulas, torsors."""
    rng = random.Random(seed)
    rep = _Reporter("detline")
    for case in range(cases):
        ctx = QQ if case % 2 == 0 else GF(5)
        space = TateSpace(ctx, 1)
        quad = [rand_lattice(space, rng, 3) for _ in range(4)]
        rep.record("cocycle_ungraded", case, cocycle_check(*quad, mode=UNGRADED))
        rep.record("cocycle_graded", case, cocycle_check(*quad, mode=GRADED))
        shifts = sorted(rng.randrange(7) - 3 for _ in range(3))
        mono = [std_lattice(space, [s]) for s in reversed(shifts)]
        rep.record(
            "nested_monomial_omega", case, omega(*mono, mode=UNGRADED) == ctx.one()
        )
        # extension associativity
        fs = [rand_mult(ctx, rng, -2, 2) for _ in range(3)]
        mode = UNGRADED if case % 4 < 2 else GRADED
        x, y, z = (ExtElement.lift(f, mode) for f in fs)
        lhs = ext_mul(ext_mul(x, y), z)
        rhs = ext_mul(x, ext_mul(y, z))
        rep.record("ext_assoc", case, lhs.z == rhs.z and lhs.g == rhs.g)
        # commutator against the closed formulas
        fp = rand_unit_poly(ctx, rng, -3, 3)
        gp = rand_unit_poly(ctx, rng, -3, 3)
        fa, ga = Automorphism.mult_by(fp), Automorphism.mult_by(gp)
        cu = commutator(fa, ga, UNGRADED)
        cg = commutator(fa, ga, GRADED)
        rep.record("commutator_ungraded", case, cu == closed_commutator_formula(fp, gp))
        rep.record("commutator_graded", case, cg == tame_symbol(fp, gp))
        want_ratio = (
            -ctx.one()
            if (fp.valuation() % 2 and gp.valuation() % 2)
            else ctx.one()
        )
        rep.record("graded_ratio", case, cg / cu == want_ratio)
        hp = rand_unit_poly(ctx, rng, -2, 2)
        ha = Automorphism.mult_by(hp)
        rep.record(
            "bimultiplicative",
            case,
            commutator(Automorphism.mult_by(fp * hp), ga, GRADED)
            == cg * commutator(ha, ga, GRADED)
            and commutator(fa, Automorphism.mult_by(gp * hp), UNGRADED)
            == cu * commutator(fa, ha, UNGRADED),
        )
        # dimension torsor
        base = rand_lattice(space, rng, 2)
        theory = DimensionTheory(base, rng.randrange(7) - 3)
        L = rand_lattice(space, rng, 2)
        M = join(L, rand_lattice(space, rng, 2))
        rep.record(
            "dim_theory_relation",
            case,
            theory.eval(M) - theory.eval(L) == quotient_dim_lattices(meet(L, M), M) - quotient_dim_lattices(meet(L, M), L),
        )
        other = DimensionTheory(rand_lattice(space, rng, 2), rng.randrange(7) - 3)
        diffs = {
            theory.eval(X) - other.eval(X)
            for X in (rand_lattice(space, rng, 2) for _ in range(5))
        }
        rep.record("dim_theories_differ_by_constant", case, len(diffs) == 1)
        # determinant theory coherence on a random nested triple over F3
        ctx3 = GF(3)
        space3 = TateSpace(ctx3, 1)
        A = rand_lattice(space3, rng, 2)
        B = join(A, rand_lattice(space3, rng, 2))
        C = join(B, rand_lattice(space3, rng, 2))
        th = DeterminantTheory(rand_lattice(space3, rng, 2))
        rep.record(
            "det_coherence",
            case,
            det_theory_coherence(th, A, B, C, GRADED)
            and det_theory_coherence(th, A, B, C, UNGRADED),
        )
    return rep.done()


def _same_rows(got, want) -> bool:
    """Whether two (subsets, index rows) enumerations over one poset list the
    same families: equal subset lists and equal rows as multisets."""
    return got[0] == want[0] and sorted(got[1]) == sorted(want[1])


def suite_simplicial(cases=15, seed=0):
    """Simplicial identities, Ex agreement, trees, K0 reconstruction."""
    rng = random.Random(seed)
    rep = _Reporter("simplicial")
    ctx = GF(2)
    # fixed small-poset comparisons
    posets = {
        "chain1": FinPoset.chain(1),
        "chain2": FinPoset.chain(2),
        "chain3": FinPoset.chain(3),
        "B1": b_interval(1).poset,
        "sd1": sd_ordinal(1),
    }
    for name, P in sorted(posets.items()):
        for n in (0, 1, 2):
            same = _same_rows(_ex_rows(P, n), _sd_map_rows(P, n))
            rep.record("ex_matches_sd_maps", "%s_n%d" % (name, n), same)
    for case in range(cases):
        P = rand_filtered_poset(rng)
        rep.record(
            "nerve_identities", case, nerve(P, 3).check_identities() == []
        )
        based = BasedPoset(P, [P.minimal_elements()[0]])
        frame = star_frame(based)
        rep.record(
            "star_tree_admissible",
            case,
            is_admissible_tree(order_graph(P), frame.tree_edges),
        )
        # K_0 round trip on the random poset, then on B[2]; D is drawn before D2
        b2 = b_interval(2)
        D = rand_admissible_diagram(P, ctx, rng)
        D2 = rand_admissible_diagram(b2.poset, ctx, rng, ambient=5)
        for check, diagram, fr in (("k0_reconstruction", D, frame), ("k0_reconstruction_B2", D2, star_frame(b2))):
            rec = k0_reconstruct(fr, *k0_decompose(diagram, fr))
            rep.record(check, case, all(rec[x] == diagram.dim(x) for x in fr.poset.elements))
        p01 = preindex_k0(D2, [b2.base_points[0], b2.base_points[1]])
        p12 = preindex_k0(D2, [b2.base_points[1], b2.base_points[2]])
        p02 = preindex_k0(D2, [b2.base_points[0], b2.base_points[2]])
        rep.record("preindex_chain_rule", case, p01[0] + p12[0] == p02[0])
    return rep.done()


# Suite name -> suite function, in report order.
SUITES = {
    "lattice": suite_lattice,
    "index": suite_index,
    "family": suite_family,
    "detline": suite_detline,
    "simplicial": suite_simplicial,
}
# The most cases per suite: --suite all at the cap runs 41,015 checks, in
# about 10 s on one x86-64 core under Python 3.11.7.
MAX_CASES = 1000


def run_suites(suite="all", cases=None, seed=0):
    """Run one named suite (or all) and assemble a deterministic report;
    ``cases=None`` runs each suite at its own default case count.  ``cases``
    (1 to MAX_CASES) and ``seed`` are integers: no report passes on zero checks."""
    if suite == "all":
        runs = list(SUITES.values())
    elif suite in SUITES:
        runs = [SUITES[suite]]
    else:
        raise ValueError("unknown suite %r; choose from %s" % (suite, (*SUITES, "all")))
    if cases is not None:
        cases = index(cases)
        if not 1 <= cases <= MAX_CASES:
            raise ValueError("cases must be from 1 to MAX_CASES=%d, got %d" % (MAX_CASES, cases))
    seed = index(seed)
    checks = []
    for run in runs:
        checks.extend(run(seed=seed) if cases is None else run(cases=cases, seed=seed))
    passed = sum(1 for c in checks if c["status"] == "pass")
    return {
        "suite": suite,
        "seed": seed,
        "cases": cases,
        "checks": checks,
        "summary": {"pass": passed, "fail": len(checks) - passed},
        "passed": passed == len(checks),
    }
