"""Seeded op lists for the three benchmark workloads.

Everything here is plain data built with the standard library; tatekit is
never imported.  An op is a dict that names what to run and carries the
numbers the oracles in ``oracle.py`` need.

The sizes that drive cost (valuations, sign patterns, term exponents, ranks,
chain lengths, the exponent pattern of every matrix) come from a fixed
design, the same for every seed.  The seed draws every coefficient and the
op order.  Op cost grows like k^3 and swings by a factor of two with the sign
pattern, so drawing sizes per seed would make one seed's pass twice as long
as another's and hide a real change behind seed noise.
"""

from __future__ import annotations

import random

P = 1000003
FP = "Fp:%d" % P
WORKLOADS = ("verify-suites", "commutator-deep", "family-gl")

# Default case counts of `tatekit verify`; each pass runs them twice.
VERIFY_PROPORTIONS = (
    ("lattice", 25),
    ("index", 50),
    ("family", 10),
    ("detline", 25),
    ("simplicial", 15),
)
VERIFY_REPEAT = 2
# The family suite draws its chains from its own RNG, and one case costs
# anywhere from 0.02 s to 1.2 s (coefficient of variation 1.2).  Twenty cases
# drawn per seed would swing a pass by 20 % from seed to seed, and the
# benchmark cannot stratify cases it does not generate.  So the family cases
# are a fixed part of the design, like the valuation grid below: case seeds
# 0..19 for every run seed, which only moves them in the op order.
VERIFY_FIXED_SUITES = ("family",)
# With cases=1 only case 0 runs; it works over Q in these two suites and over
# prime fields only in the others.
VERIFY_Q_SUITES = ("index", "detline")

# Both mixes below put the median op inside a dense band of op costs, so
# that op_p50_ms does not jump across the gap between two size classes.

# |v(f)| levels of commutator-deep: dense at the cheap end, up to 32.
COMMUTATOR_LEVELS = (1, 2, 2, 3, 3, 4, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 23, 26, 32)

# (rank, chain length, chains per field) of family-gl.
FAMILY_CLASSES = ((2, 2, 6), (2, 3, 4), (2, 4, 1), (3, 2, 6), (3, 3, 2))


def make_ops(workload: str, seed: int, scale: float = 1.0):
    """The op list of one workload.  ``scale`` < 1 keeps a prefix of the
    design for quick self-tests; the benchmark itself always uses 1."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "verify-suites":
        ops = _verify_ops(rng)
    elif workload == "commutator-deep":
        ops = _commutator_ops(rng)
    elif workload == "family-gl":
        ops = _family_ops(rng)
    else:
        raise ValueError("unknown workload %r; choose from %s" % (workload, WORKLOADS))
    if scale < 1.0:
        ops = ops[: max(2, int(len(ops) * scale))]
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


# -- verify-suites -----------------------------------------------------------


def _verify_ops(rng):
    ops = [
        {
            "kind": "verify",
            "suite": s,
            "seed": i if s in VERIFY_FIXED_SUITES else rng.randrange(2**31),
            "field": "Q" if s in VERIFY_Q_SUITES else "Fp",
        }
        for s, n in VERIFY_PROPORTIONS
        for i in range(n * VERIFY_REPEAT)
    ]
    rng.shuffle(ops)
    return ops


# -- commutator-deep ---------------------------------------------------------


def _coeff(rng, field):
    if field == "Q":
        return rng.choice((1, -1)) * rng.randint(1, 9)
    return rng.randrange(1, P)


def _format_poly(terms):
    """{exponent: int coefficient} in the CLI grammar, e.g. '3*t^-2-5*t^1'."""
    out = "".join("%+d*t^%d" % (terms[e], e) for e in sorted(terms) if terms[e])
    return out.lstrip("+") or "0"


def _unit(rng, field, v, offsets):
    """Unit with terms at v and v+offsets; returns (text, leading coeff)."""
    terms = {v + e: _coeff(rng, field) for e in (0,) + offsets}
    return _format_poly(terms), terms[v]


def _commutator_ops(rng):
    ops = []
    for i, level in enumerate(COMMUTATOR_LEVELS):
        # The design fixes everything but the coefficients: valuations, sign
        # pattern, swap, mode and the exponents of the 1-4 terms.
        shape_rng = random.Random("commutator-shape/%d" % i)
        vg_abs = 1 + (5 * i) % 6
        sign_f = 1 if i % 4 in (0, 2) else -1
        sign_g = 1 if i % 4 in (0, 1) else -1
        swap = i % 3 == 2
        offs_f = tuple(sorted(shape_rng.sample(range(1, 6), (i // 2) % 4)))
        offs_g = tuple(sorted(shape_rng.sample(range(1, 6), (i + 1) % 4)))
        for field, mode in (
            ("Q", "graded" if i % 2 else "ungraded"),
            (FP, "ungraded" if i % 2 else "graded"),
        ):
            vf, vg = sign_f * level, sign_g * vg_abs
            f, af = _unit(rng, field, vf, offs_f)
            g, ag = _unit(rng, field, vg, offs_g)
            if swap:
                f, g, af, ag, vf, vg = g, f, ag, af, vg, vf
            ops.append(
                {
                    "kind": "commutator",
                    "field": field,
                    "mode": mode,
                    "f": f,
                    "g": g,
                    "vf": vf,
                    "vg": vg,
                    "af": af,
                    "ag": ag,
                    "k": abs(vf) + abs(vg),
                    # Sufficient by the argument in README.md.
                    "precision": abs(vf) + abs(vg) + 1,
                }
            )
    rng.shuffle(ops)
    return ops


# -- family-gl ---------------------------------------------------------------


def _poly_mul(a, b, field):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _reduce(out, field)


def _reduce(poly, field):
    if field != "Q":
        poly = {e: c % P for e, c in poly.items()}
    return {e: c for e, c in poly.items() if c}


def _mat_mul(A, B, field):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = {}
            for k in range(n):
                for e, c in _poly_mul(A[i][k], B[k][j], field).items():
                    acc[e] = acc.get(e, 0) + c
            row.append(_reduce(acc, field))
        out.append(row)
    return out


def _ldu_shape(shape_rng, n):
    """Exponent pattern of L*D*U: the exponent of each present off-diagonal
    entry and the diagonal exponents.  Rejects scalar-matrix patterns."""
    while True:
        lower = {(i, j): shape_rng.randint(-2, 2) for i in range(n) for j in range(i) if shape_rng.random() < 0.6}
        upper = {(j, i): shape_rng.randint(-2, 2) for i in range(n) for j in range(i) if shape_rng.random() < 0.6}
        diag = [shape_rng.randint(-2, 2) for _ in range(n)]
        if lower or upper or any(diag):
            return lower, upper, diag


def _ldu_matrix(rng, shape, n, field):
    lower, upper, diag = shape
    L = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
    U = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
    D = [[{diag[i]: _coeff(rng, field)} if i == j else {} for j in range(n)] for i in range(n)]
    for (i, j), e in lower.items():
        L[i][j] = {e: _coeff(rng, field)}
    for (i, j), e in upper.items():
        U[i][j] = {e: _coeff(rng, field)}
    M = _mat_mul(_mat_mul(L, D, field), U, field)
    return ";".join(",".join(_format_poly(p) for p in row) for row in M)


def _family_ops(rng):
    ops = []
    for field in ("Q", FP):
        for rank, length, count in FAMILY_CLASSES:
            for c in range(count):
                arrows, det_vals = [], []
                for a in range(length):
                    shape_rng = random.Random("family-shape/%d/%d/%d/%d" % (rank, length, c, a))
                    shape = _ldu_shape(shape_rng, rank)
                    arrows.append(_ldu_matrix(rng, shape, rank, field))
                    det_vals.append(sum(shape[2]))
                ops.append(
                    {
                        "kind": "family",
                        "field": field,
                        "rank": rank,
                        "arrows": arrows,
                        "det_vals": det_vals,
                    }
                )
    rng.shuffle(ops)
    return ops
