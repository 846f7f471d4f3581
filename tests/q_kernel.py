"""The Q kernels against plain ``Fraction`` arithmetic, runnable without pytest.

Over Q the kernels of ``fields``, ``linalg`` and ``laurent`` compute on int
numerators and denominators and build each result entry once through
``fields._frac``.  This module recomputes every one of them with nothing but
``Fraction`` operators and checks, on seeded inputs that mix ints,
``Fraction``s and negatives, numerators above 2^64, and entries that cancel to
0 or become integral:

- the kernel's result equals the reference;
- every value it stores is canonical: an ``int``, or a ``Fraction`` in lowest
  terms with denominator > 1, and never 0;
- its inputs are left unmodified (``_submul`` changes only ``vec``).

``tests/test_sparse_kernel.py`` runs it under pytest; on an interpreter
without pytest, run ``PYTHONPATH=src python tests/q_kernel.py [cases]``.
"""

import random
import sys
from copy import deepcopy
from fractions import Fraction
from math import gcd

from tatekit import QQ, Automorphism, LaurentMatrix, LaurentPoly, Matrix, TruncSeries, det
from tatekit.fields import _frac, _inv, _mul, _numerators, _reduced
from tatekit.laurent import _det_and_inverse
from tatekit.linalg import _quotient_coords, _rref_rows, _scale, _submul

BIG = 2**64


# -- reference: Fraction operators only ----------------------------------------


def canonical(x):
    """The raw form a kernel must store for the rational ``x``."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def ref_row(row):
    return {j: canonical(x) for j, x in row.items() if x != 0}


def ref_submul(vec, f, row):
    out = {j: Fraction(x) for j, x in vec.items()}
    for j, r in row.items():
        out[j] = out.get(j, Fraction(0)) - Fraction(f) * Fraction(r)
    return ref_row(out)


def ref_rref(rows, cols):
    """Column-by-column Gauss-Jordan on dense Fraction rows: the pivot map."""
    rows = [[Fraction(row.get(j, 0)) for j in range(cols)] for row in rows]
    out, r = {}, 0
    for c in range(cols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        out[c] = r
        r += 1
    return {c: ref_row(dict(enumerate(rows[i]))) for c, i in out.items()}


def ref_det(rows, n):
    rows = [[Fraction(row.get(j, 0)) for j in range(n)] for row in rows]
    acc = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            acc = -acc
        acc *= rows[c][c]
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return canonical(acc)


def ref_poly_mul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + Fraction(c1) * Fraction(c2)
    return ref_row(out)


def ref_matrix_mul(x, y, n):
    out = []
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                for e, c in ref_poly_mul(x[i * n + k], y[k * n + j]).items():
                    acc[e] = acc.get(e, Fraction(0)) + c
            out.append(ref_row(acc))
    return out


def ref_image(terms, n, rows, a):
    """g applied to slot rows, as ``Automorphism.image`` defines it."""
    out = []
    for row in rows:
        acc = {}
        for s, c in row.items():
            e, k = divmod(s, n)
            for i in range(n):
                for f, d in terms[i * n + k].items():
                    if e + f < a:
                        slot = (e + f) * n + i
                        acc[slot] = acc.get(slot, Fraction(0)) + Fraction(c) * Fraction(d)
        out.append(ref_row(acc))
    return out


# -- seeded inputs -------------------------------------------------------------


def value(rng):
    """A nonzero rational in canonical raw form: small or above 2^64, integral
    or not, of either sign."""
    num = rng.choice((1, 2, 3, 5, 7, 12, 35, BIG + 13, 3 * BIG + 1, 7**25))
    den = rng.choice((1, 1, 2, 3, 4, 9, 35, BIG + 1, 5**30))
    return canonical(Fraction(rng.choice((1, -1)) * num, den))


def row(rng, cols, density=0.5):
    return {j: value(rng) for j in range(cols) if rng.random() < density}


def vec_against(rng, f, r, cols):
    """A vector that, on some of ``r``'s columns, cancels ``f * r`` exactly or
    leaves an integer, and elsewhere holds random values."""
    vec = row(rng, cols)
    for j, x in r.items():
        pick = rng.random()
        if pick < 0.3:
            vec[j] = canonical(Fraction(f) * Fraction(x))
        elif pick < 0.5:
            vec[j] = canonical(rng.randint(-3, 3) + Fraction(f) * Fraction(x)) or 1
    return vec


def poly(rng, density=0.6):
    return {e: value(rng) for e in range(-2, 3) if rng.random() < density}


# -- checks --------------------------------------------------------------------


def assert_canonical(row, where):
    for j, x in row.items():
        ok = type(x) is int and x != 0
        ok = ok or (type(x) is Fraction and x.denominator > 1 and gcd(x.numerator, x.denominator) == 1)
        assert ok, "%s: non-canonical %r at %r" % (where, x, j)


def check(rows, got, want, where):
    """Every row in ``rows`` is canonical, and ``got`` equals ``want``."""
    for r in rows:
        assert_canonical(r, where)
    assert got == want, "%s: %r != %r" % (where, got, want)


def check_scalars(rng):
    for _ in range(20):
        x, y = value(rng), value(rng)
        for got, want, where in (
            (_mul(None, x, y), Fraction(x) * Fraction(y), "_mul"),
            (_inv(None, x), 1 / Fraction(x), "_inv"),
            (_frac(Fraction(x).numerator * 6, Fraction(x).denominator * 6), x, "_frac"),
        ):
            assert_canonical({0: got}, where)
            assert got == canonical(want) and type(got) is type(canonical(want)), where
    assert _frac(0, BIG + 1) == 0 and type(_frac(0, BIG + 1)) is int
    assert _frac(-(BIG * 4), BIG * 2) == -2 and type(_frac(-(BIG * 4), BIG * 2)) is int


def check_rows(rng, cols):
    r = row(rng, cols, 0.7)
    f = value(rng)
    vec = vec_against(rng, f, r, cols)
    r0, want = deepcopy(r), ref_submul(vec, f, r)
    _submul(None, vec, f, r)
    check([vec], vec, want, "_submul")
    assert r == r0, "_submul modified its row"

    if r:
        c = value(rng)
        got = _scale(None, c, r)
        check([got], got, ref_row({j: Fraction(c) * Fraction(x) for j, x in r.items()}), "_scale")
        assert r == r0, "_scale modified its row"

    rows = [row(rng, cols, rng.choice((0.2, 0.6))) for _ in range(rng.randint(1, cols + 1))]
    rows += [dict(rows[0])] if rng.random() < 0.3 else []  # a repeated row cancels
    rows0 = deepcopy(rows)
    got = _rref_rows(QQ, rows)
    check(got.values(), got, ref_rref(rows, cols), "_rref_rows")
    assert rows == rows0, "_rref_rows modified its rows"

    dicts, d = _numerators(None, rows)
    assert rows == rows0, "_numerators modified its rows"
    assert all(type(x) is int for f in dicts for x in f.values())
    assert [{j: Fraction(x, d) for j, x in f.items()} for f in dicts] == rows
    acc = {j: x for f in dicts for j, x in f.items()}
    got = _reduced(None, acc, d)
    check([got], got, ref_row({j: Fraction(x, d) for j, x in acc.items()}), "_reduced")


def check_det(rng, n):
    rows = [row(rng, n, 0.6) for _ in range(n)]
    if rng.random() < 0.2:
        rows[-1] = dict(rows[0])  # singular
    rows0 = deepcopy(rows)
    got = det(Matrix._raw(QQ, n, rows)).value
    assert_canonical({0: got} if got else {}, "det")
    assert got == ref_det(rows, n) and rows == rows0, "det"


def check_quotient_coords(rng, cols):
    sub = _rref_rows(QQ, [row(rng, cols, 0.4) for _ in range(rng.randint(0, 2))])
    reps = [r for c, r in _rref_rows(QQ, [*sub.values(), *(row(rng, cols) for _ in range(3))]).items() if c not in sub]
    at = _rref_rows(QQ, reps)
    coeffs = [[value(rng) if rng.random() < 0.7 else 0 for _ in at] for _ in range(3)]
    vecs = []
    for cs in coeffs:
        vec = {}
        for x, r in zip(cs, at.values()):
            for j, y in r.items():
                vec[j] = vec.get(j, Fraction(0)) + Fraction(x) * Fraction(y)
        for r in sub.values():
            for j, y in r.items():
                vec[j] = vec.get(j, Fraction(0)) + 7 * Fraction(y)
        vecs.append(ref_row(vec))
    vecs0 = deepcopy(vecs)
    got = _quotient_coords(None, sub, at, vecs)
    for g, cs in zip(got, coeffs):
        check([g], g, ref_row(dict(enumerate(cs))), "_quotient_coords")
    assert vecs == vecs0, "_quotient_coords modified its vectors"


def check_laurent(rng, n):
    x = [poly(rng) for _ in range(n * n)]
    y = [poly(rng) for _ in range(n * n)]
    x0, y0 = deepcopy(x), deepcopy(y)
    mx = LaurentMatrix(QQ, n, [LaurentPoly._raw(QQ, f) for f in x])
    my = LaurentMatrix(QQ, n, [LaurentPoly._raw(QQ, f) for f in y])
    got = [f._terms for f in (mx * my).entries]
    check(got, got, ref_matrix_mul(x, y, n), "LaurentMatrix.__mul__")
    assert x == x0 and y == y0, "LaurentMatrix.__mul__ modified its operands"

    # Unitriangular L times U with a monomial diagonal: det c * t^k.
    lower = [{0: 1} if i == j else poly(rng, 0.4) if i > j else {} for i in range(n) for j in range(n)]
    upper = [{i % 3 - 1: value(rng)} if i == j else poly(rng, 0.4) if i < j else {} for i in range(n) for j in range(n)]
    m = LaurentMatrix(QQ, n, [LaurentPoly._raw(QQ, f) for f in ref_matrix_mul(lower, upper, n)])
    terms0 = [dict(f._terms) for f in m.entries]
    dt, inverse = _det_and_inverse(m)
    assert [f._terms for f in m.entries] == terms0, "_det_and_inverse modified its matrix"
    for f in (dt, *inverse.entries):
        assert_canonical(f._terms, "_det_and_inverse")
    ident = ref_matrix_mul([f._terms for f in m.entries], [f._terms for f in inverse.entries], n)
    assert ident == [{0: 1} if i == j else {} for i in range(n) for j in range(n)], "_det_and_inverse"

    g = Automorphism._gl(m, dt, inverse)
    det_inverse = g.inverse()._det._terms  # by ``_divider``
    assert_canonical(det_inverse, "_divider")
    assert ref_poly_mul(dt._terms, det_inverse) == {0: 1}, "_divider"
    a = rng.randint(1, 3)
    rows = [{s: value(rng) for s in range(-2 * n, a * n) if rng.random() < 0.3} for _ in range(4)]
    rows0 = deepcopy(rows)
    for h in (g, g.inverse()):
        got = h.image(rows, a)
        check(got, got, ref_image([f._terms for f in h.matrix.entries], n, rows, a), "Automorphism.image")
    assert rows == rows0, "Automorphism.image modified its rows"

    u = TruncSeries(QQ, -1, [value(rng) for _ in range(6)], False)
    rows = [{s: value(rng) for s in range(-2, 1) if rng.random() < 0.5} for _ in range(3)]
    rows0 = deepcopy(rows)
    got = Automorphism.mult_by(u).image(rows, 1)  # reads u below t^3, its top t^5
    check(got, got, ref_image([u._terms], 1, rows, 1), "Automorphism.image")
    assert rows == rows0, "Automorphism.image modified its rows"


def run(cases=60, seed=0):
    """Every check on ``cases`` seeded cases; raises AssertionError on the
    first mismatch."""
    for case in range(cases):
        rng = random.Random("q-kernel/%d/%d" % (seed, case))
        check_scalars(rng)
        check_rows(rng, rng.randint(1, 7))
        check_det(rng, rng.randint(1, 5))
        check_quotient_coords(rng, rng.randint(2, 7))
        check_laurent(rng, rng.randint(2, 3))


if __name__ == "__main__":
    cases = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    run(cases)
    print("Q kernels match the Fraction reference on %d cases (Python %s)" % (cases, sys.version.split()[0]))
