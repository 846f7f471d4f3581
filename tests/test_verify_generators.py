"""``verify``'s generators against the dense generators they replaced.

The generators draw straight into the kernel's raw form: ``rand_lattice``
puts each nonzero draw at its absolute slot and spans the rows with one
``_rref_rows``.  The references below are the earlier dense forms, kept
verbatim: a window ``Subspace`` over ``Scalar`` draws, handed to the public
``Lattice`` constructor, and ``LaurentPoly`` over ``Scalar`` terms.  Each
generator and its reference run on cloned streams and must build equal
objects and leave the stream in the same state, so the same draws were made.

The generators draw through one-argument ``randrange``: ``CALL_SITES`` keeps
each ``randint`` and two-argument ``randrange`` expression that ``verify``
wrote before, verbatim, beside the form that replaced it, which must draw
the same value and leave the same stream state at every call site: both
make the same calls to the generator core, which ``_Logged`` records.
"""

import hashlib
import json
import random

import pytest

from tatekit import (
    GF,
    QQ,
    AdmissibleDiagram,
    Automorphism,
    Lattice,
    LaurentMatrix,
    LaurentPoly,
    Subspace,
    TateSpace,
    b_interval,
)
from tatekit.verify import (
    rand_admissible_diagram,
    rand_filtered_poset,
    rand_gl,
    rand_lattice,
    rand_scalar,
    rand_unit_poly,
)

FIELDS = [QQ, GF(3), GF(5), GF(1000003)]
DRAWS = 2000  # calls per generator


def ref_rand_scalar(ctx, rng, nonzero=False):
    if ctx.kind == "Fp":
        lo = 1 if nonzero else 0
        return ctx.scalar(rng.randrange(lo, ctx.modulus))
    val = rng.randint(-4, 4)
    while nonzero and val == 0:
        val = rng.randint(-4, 4)
    return ctx.scalar(val)


def ref_rand_unit_poly(ctx, rng, val_lo=-3, val_hi=3, extra=3):
    v = rng.randint(val_lo, val_hi)
    terms = {v: ref_rand_scalar(ctx, rng, nonzero=True)}
    for e in range(v + 1, v + 1 + rng.randint(0, extra)):
        c = ref_rand_scalar(ctx, rng)
        if not c.is_zero():
            terms[e] = c
    return LaurentPoly(ctx, terms)


def ref_rand_lattice(space, rng, bound=3):
    ctx = space.ctx
    a = rng.randint(-bound, bound)
    b = rng.randint(-a, bound)
    dim = space.rank * (a + b)
    nrows = rng.randint(0, dim)
    rows = [[ref_rand_scalar(ctx, rng) for _ in range(dim)] for _ in range(nrows)]
    return Lattice(space, a, b, Subspace.from_rows(ctx, dim, rows))


def ref_rand_gl(ctx, n, rng):
    def monomial():
        return LaurentPoly(ctx, {rng.randint(-2, 2): ref_rand_scalar(ctx, rng, nonzero=True)})

    lower = [[LaurentPoly.zero(ctx) for _ in range(n)] for _ in range(n)]
    upper = [[LaurentPoly.zero(ctx) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        lower[i][i] = LaurentPoly.one(ctx)
        upper[i][i] = LaurentPoly.one(ctx)
        for j in range(i):
            if rng.random() < 0.6:
                lower[i][j] = monomial()
            if rng.random() < 0.6:
                upper[j][i] = monomial()
    diag = LaurentMatrix.diagonal(ctx, [monomial() for _ in range(n)])
    m = LaurentMatrix.from_rows(ctx, lower) * diag * LaurentMatrix.from_rows(ctx, upper)
    return Automorphism.gl(m)


def ref_rand_admissible_diagram(poset, ctx, rng, ambient=None):
    d = ambient if ambient is not None else len(poset) + 1
    vectors = {
        y: [ref_rand_scalar(ctx, rng) for _ in range(d)] for y in poset.elements
    }
    assignment = {}
    for x in poset.elements:
        gens = [vectors[y] for y in poset.elements if poset.leq(y, x)]
        assignment[x] = Subspace.from_rows(ctx, d, gens)
    return AdmissibleDiagram(poset, assignment)


def _twins(seed):
    """Two streams in the same state."""
    rng = random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    return rng, twin


def _typed_terms(f):
    """A polynomial's terms in stored order, with the type of each raw value."""
    return [(e, type(c), c) for e, c in f._terms.items()]


@pytest.mark.parametrize("ctx", FIELDS, ids=str)
def test_rand_scalar_matches_the_reference(ctx):
    rng, twin = _twins(ctx.modulus or 0)
    for k in range(DRAWS):
        nonzero = k % 3 == 0
        got, want = rand_scalar(ctx, rng, nonzero), ref_rand_scalar(ctx, twin, nonzero)
        assert got == want and type(got.value) is type(want.value)
    assert rng.getstate() == twin.getstate()


def test_rand_lattice_matches_the_dense_reference():
    rng, twin = _twins(1)
    combos = [(ctx, rank, bound) for ctx in FIELDS for rank in (1, 2, 3) for bound in (0, 1, 2, 3)]
    for k in range(DRAWS):
        ctx, rank, bound = combos[k % len(combos)]
        space = TateSpace(ctx, rank)
        L, R = rand_lattice(space, rng, bound), ref_rand_lattice(space, twin, bound)
        assert L == R and hash(L) == hash(R)
        assert list(L._at) == list(R._at) and L.b == R.b
        assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("bounds", [(-3, 3, 3), (-5, 5, 3), (-2, 2, 0), (0, 0, 6)])
def test_rand_unit_poly_matches_the_reference(bounds):
    rng, twin = _twins(2)
    for k in range(DRAWS // 4):
        ctx = FIELDS[k % len(FIELDS)]
        f, g = rand_unit_poly(ctx, rng, *bounds), ref_rand_unit_poly(ctx, twin, *bounds)
        assert f == g and hash(f) == hash(g) and _typed_terms(f) == _typed_terms(g)
    assert rng.getstate() == twin.getstate()


def test_rand_gl_matches_the_reference():
    rng, twin = _twins(3)
    for k in range(DRAWS):
        ctx, n = FIELDS[k % len(FIELDS)], 1 + k % 3
        g, h = rand_gl(ctx, n, rng), ref_rand_gl(ctx, n, twin)
        assert g == h and hash(g) == hash(h)
        # Automorphism.gl stores a rank-1 matrix as its series.
        for f, r in zip(*((x.matrix.entries if x.matrix is not None else [x.series]) for x in (g, h))):
            assert _typed_terms(f) == _typed_terms(r)
    assert rng.getstate() == twin.getstate()


def test_rand_admissible_diagram_matches_the_reference():
    rng, twin = _twins(4)
    b2 = b_interval(2).poset
    for k in range(DRAWS // 4):
        ctx = FIELDS[k % len(FIELDS)]
        P = rand_filtered_poset(random.Random(k))
        for poset, ambient in ((P, None), (b2, 5)):
            D = rand_admissible_diagram(poset, ctx, rng, ambient)
            R = ref_rand_admissible_diagram(poset, ctx, twin, ambient)
            assert D.assignment == R.assignment
    assert rng.getstate() == twin.getstate()


# (call site, parameter rows, the expression verify used before, the one it uses now)
CALL_SITES = [
    (
        "_rand_raw-Fp",
        [{"nonzero": z, "modulus": p} for z in (False, True) for p in (2, 3, 5, 7, 1000003, 2**61 - 1)],
        lambda rng, nonzero, modulus: rng.randrange(1 if nonzero else 0, modulus),
        lambda rng, nonzero, modulus: rng.randrange(modulus - 1) + 1 if nonzero else rng.randrange(modulus),
    ),
    ("_rand_raw-Q", [{}], lambda rng: rng.randint(-4, 4), lambda rng: rng.randrange(9) - 4),
    ("_rand_raw-Q-retry", [{}], lambda rng: rng.randint(-4, 4), lambda rng: rng.randrange(9) - 4),
    (
        "rand_unit_poly-valuation",
        [{"val_lo": lo, "val_hi": hi} for lo in (-5, -3, -2, 0, 7) for hi in (lo, lo + 1, 5, 10**12) if hi >= lo],
        lambda rng, val_lo, val_hi: rng.randint(val_lo, val_hi),
        lambda rng, val_lo, val_hi: val_lo + rng.randrange(val_hi - val_lo + 1),
    ),
    (
        "rand_unit_poly-extra",
        [{"extra": e} for e in (0, 1, 3, 6, 2**40)],
        lambda rng, extra: rng.randint(0, extra),
        lambda rng, extra: rng.randrange(extra + 1),
    ),
    (
        "rand_lattice-a",
        [{"bound": b} for b in (0, 1, 2, 3, 9)],
        lambda rng, bound: rng.randint(-bound, bound),
        lambda rng, bound: rng.randrange(2 * bound + 1) - bound,
    ),
    (
        "rand_lattice-b",
        [{"a": a, "bound": b} for b in (0, 1, 2, 3, 9) for a in range(-b, b + 1)],
        lambda rng, a, bound: rng.randint(-a, bound),
        lambda rng, a, bound: rng.randrange(a + bound + 1) - a,
    ),
    (
        "rand_lattice-rows",
        [{"dim": d} for d in (0, 1, 2, 5, 12, 18, 54)],
        lambda rng, dim: rng.randint(0, dim),
        lambda rng, dim: rng.randrange(dim + 1),
    ),
    ("rand_gl-monomial", [{}], lambda rng: rng.randint(-2, 2), lambda rng: rng.randrange(5) - 2),
    (
        "rand_filtered_poset",
        [{"max_elems": m} for m in (3, 4, 6, 9, 40)],
        lambda rng, max_elems: rng.randint(2, max_elems - 1),
        lambda rng, max_elems: 2 + rng.randrange(max_elems - 2),
    ),
    ("suite_detline-shifts", [{}], lambda rng: rng.randint(-3, 3), lambda rng: rng.randrange(7) - 3),
    ("suite_detline-theory", [{}], lambda rng: rng.randint(-3, 3), lambda rng: rng.randrange(7) - 3),
    ("suite_detline-other", [{}], lambda rng: rng.randint(-3, 3), lambda rng: rng.randrange(7) - 3),
]


class _Logged(random.Random):
    """A stream that logs every call to its generator core, ``getrandbits``
    and ``random``.  Overriding ``getrandbits`` keeps
    ``_randbelow_with_getrandbits``, so ``randrange`` and ``randint`` draw
    through it.  Two streams in one state that log the same calls, with the
    same results, consumed the same words and are again in one state: the
    check ``getstate()`` makes, without building its 625-entry tuple."""

    def __init__(self, seed):
        super().__init__(seed)
        self.log = []

    def getrandbits(self, k):
        x = super().getrandbits(k)
        self.log.append((k, x))
        return x

    def random(self):
        x = super().random()
        self.log.append(x)
        return x


def test_the_logged_stream_draws_through_getrandbits():
    assert _Logged._randbelow is random.Random._randbelow_with_getrandbits
    rng = _Logged(0)
    assert rng.randrange(10) == random.Random(0).randrange(10) and rng.log


@pytest.mark.parametrize("rows, old, new", [site[1:] for site in CALL_SITES], ids=[site[0] for site in CALL_SITES])
def test_one_argument_randrange_draws_as_the_earlier_expression(rows, old, new):
    for seed in range(8):
        rng, twin = _Logged(seed), _Logged(seed)
        for _ in range(DRAWS // 4):
            for kwargs in rows:
                assert new(rng, **kwargs) == old(twin, **kwargs)
                assert rng.log == twin.log
                rng.log.clear()
                twin.log.clear()
        assert rng.getstate() == twin.getstate()


def input_digest():
    """sha256 of canonical JSON of a fixed draw sequence from ``random.Random(7)``:
    300 lattices, 100 units and 20 rank-2 automorphisms over GF(3).  Running
    this file prints it; the CI step "Verify input digest" pins it too."""
    rng = random.Random(7)
    lattices = [rand_lattice(TateSpace(FIELDS[k % 4], 1 + k % 3), rng).to_json_dict() for k in range(300)]
    units = [str(rand_unit_poly(FIELDS[k % 4], rng)) for k in range(100)]
    gls = [repr(rand_gl(GF(3), 2, rng).matrix) for _ in range(20)]
    blob = json.dumps([lattices, units, gls], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


INPUT_DIGEST = "3b267d7942b9d5b5b5171dd549db3efa55300a2c90e33f909515d7a8f806998e"


def test_input_digest_is_pinned():
    assert input_digest() == INPUT_DIGEST


def draws_digest():
    """sha256 of canonical JSON of the draws ``input_digest`` leaves out, in
    ``suite_simplicial``'s order from ``random.Random(7)``: 100 filtered
    posets, each with an admissible diagram over it and one over B[2] in
    k^5, the field cycling through ``FIELDS``.  The CI step "Verify draws
    digest" prints and pins it."""
    rng, b2 = random.Random(7), b_interval(2).poset
    out = []
    for k in range(100):
        P = rand_filtered_poset(rng)
        diagrams = [rand_admissible_diagram(P, FIELDS[k % 4], rng), rand_admissible_diagram(b2, FIELDS[k % 4], rng, 5)]
        order = [[str(x), str(y)] for x in P.elements for y in P.elements if P.leq(x, y)]
        spaces = [[D.assignment[x].basis for x in D.poset.elements] for D in diagrams]
        out.append([order, [[[[str(c) for c in row] for row in S.row_list()] for S in D] for D in spaces]])
    blob = json.dumps(out, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


DRAWS_DIGEST = "82f0e3cb7c78b185aaf2a4377013554e5677425b02d6c44a08866f99d250e1b7"


def test_draws_digest_is_pinned():
    assert draws_digest() == DRAWS_DIGEST


if __name__ == "__main__":
    print(input_digest())
