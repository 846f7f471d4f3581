"""Graded determinant lines of commensurable lattices and their calculus.

Every line here is formal: a grade plus a tag, with a canonical basis
derived from the deterministic quotient bases of the lattice layer.  All
isomorphisms are therefore concrete scalars, and "this diagram commutes"
is a scalar equation.

Conventions (fixed once, used everywhere):

* The canonical basis of det(B/A) for nested lattices A <= B is the wedge
  of the echelon quotient representatives taken in *descending* pivot
  order.  With this order, concatenating the bases of B/A and C/B for a
  nested monomial chain reproduces the basis of C/A on the nose, so the
  canonical composition scalar on nested monomial triples is exactly 1.
  ``_translation_scalar``, of g_*: (F1|F2) -> (gF1|gF2), takes its source
  and target representatives in *ascending* order instead: that reverses the
  rows and the columns of each coordinate matrix A, and det(JAJ) = det(A)
  for the order-reversing permutation J, so the scalar is the same.  For a
  rank-1 translation the ascending matrix is upper triangular.
* (F1|F2) is based on N = meet(F1, F2) as e(N,F1)^dual (x) e(N,F2); its
  grade is dim(F2/N) - dim(F1/N) = vdim(F2) - vdim(F1).
* ``omega(F1,F2,F3)`` is the scalar of the composition isomorphism
  (F1|F2)(x)(F2|F3) -> (F1|F3) in canonical bases; in graded mode the
  Koszul sign (-1)^(grade(F1|F2)*grade(F2|F3)) is inserted for the middle
  contraction.
* Pivot parity: an echelon row is 1 at its own pivot and 0 at every other
  pivot of its lattice, so for lattices M <= N <= F with pivot sets
  P(M) <= P(N) <= P(F) the concatenation det(N/M) (x) det(F/N) -> det(F/M)
  is the sign (-1)^s of a shuffle, s = #{(x, y) : x in P(N) - P(M),
  y in P(F) - P(N), x < y}.  A pivot set holds the stored pivots and every
  slot from the top up; the quotient pivots of F/N are F's stored pivots
  that N lacks, then the slots between the tops F.a*n and N.a*n that N does
  not store, all inside the window (N.a, F.b), and only these are
  generated.  ``omega`` is always +-1: a product of six such signs, one per
  concatenation through a pairwise meet N over the triple meet M, each read
  off the pivots of N/M and of F/N listed for it alone.
* Extension elements multiply by (g, z)(h, w) = (gh, z*w*sigma(g,h)) where
  sigma(g,h) is the scalar of the canonical identification of (L0|ghL0)
  with (L0|gL0) (x) g(L0|hL0); the direction is fixed so that the
  commutator of lifts of units f, g of k((t)) evaluates to
  (f^v(g)/g^v(f))(0), and in graded mode the reordering of the lifts
  contributes the extra sign (-1)^(v(f)v(g)).
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter, index

from .errors import (
    FieldMismatch,
    FormulaTooLarge,
    ModeMismatch,
    NotMultiplicationAutomorphism,
    NotNested,
    ZeroElement,
)
from .fields import Scalar, _Frozen, _Value
from .laurent import Automorphism, LaurentPoly
from .lattice import Lattice, TateSpace, _same_space, _window_dim, act, leq, meet, std_lattice
from .linalg import Matrix, _quotient_coords, det

UNGRADED = "ungraded"
GRADED = "graded"
MAX_FORMULA_BITS = 1 << 19  # the size limit of closed_commutator_formula over Q


class GradedLine(_Value):
    """A formal one-dimensional graded object with a canonical basis."""

    __slots__ = ("grade", "tag")
    _fields = attrgetter("grade", "tag")

    def __init__(self, grade: int, tag):
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "tag", tag)

    def __repr__(self):
        return "GradedLine(grade=%d, %r)" % (self.grade, self.tag)


def rel_det(F1: Lattice, F2: Lattice) -> GradedLine:
    """The relative determinant line (F1|F2), graded Deligne-style; its grade
    dim(F2/N) - dim(F1/N) over N = meet(F1, F2) is vdim(F2) - vdim(F1)."""
    _same_space(F1, F2)
    return GradedLine(F2.vdim - F1.vdim, ("reldet", F1, F2))


def _quotient_pivots(N: Lattice, F: Lattice):
    """The pivots of F/N for lattices N <= F, ascending (see the pivot-parity
    convention); the window (N.a, F.b) they span is capped."""
    n = F.space.rank
    _window_dim(F.space, N.a, F.b)
    return [c for c in F._at if c not in N._at] + [c for c in range(F.a * n, N.a * n) if c not in N._at]


def _quotient_rows(N: Lattice, F: Lattice):
    """The echelon representatives of F/N as a pivot map: F's rows, and units at its implicit pivots."""
    return {c: F._at.get(c) or {c: 1} for c in _quotient_pivots(N, F)}


def _wedge_det(N: Lattice, F: Lattice, rows) -> Scalar:
    """Determinant of the raw ``rows`` against the quotient representatives of
    F/N, both taken in ascending pivot order (see the conventions)."""
    reps = _quotient_rows(N, F)
    return det(Matrix._raw(N.ctx, len(reps), _quotient_coords(N.ctx.modulus, N._at, reps, rows)))


def _shuffle(lower, upper) -> int:
    """The exponent s of the sign of det(N/M) (x) det(F/N) -> det(F/M) for
    lattices M <= N <= F, from the quotient pivots ``lower`` of N/M and
    ``upper`` of F/N (see the pivot-parity convention)."""
    return sum(len(upper) - bisect_right(upper, x) for x in lower)


def omega(F1: Lattice, F2: Lattice, F3: Lattice, mode: str = UNGRADED) -> Scalar:
    """Scalar of (F1|F2) (x) (F2|F3) -> (F1|F3) in canonical bases, always +-1.

    It is computed over the meet of all three, which is below each of them by
    construction; over any common sub-lattice the result would be the same.
    Graded mode inserts the Koszul swap sign.
    """
    if mode not in (UNGRADED, GRADED):
        raise ValueError("mode must be %r or %r" % (UNGRADED, GRADED))
    n12, n23, n13 = meet(F1, F2), meet(F2, F3), meet(F1, F3)
    M = meet(n12, F3)
    # The three numerator concatenations M <= N <= F, then the three
    # denominator ones, each a sign (the order fixes which window
    # WindowTooLarge names).
    concatenations = ((n12, F2), (n23, F3), (n13, F1), (n12, F1), (n23, F2), (n13, F3))
    s = sum(_shuffle(_quotient_pivots(M, N), _quotient_pivots(N, F)) for N, F in concatenations)
    if mode == GRADED:
        s += (F2.vdim - F1.vdim) * (F3.vdim - F2.vdim)
    one = F1.ctx.one()
    return -one if s % 2 else one


def cocycle_check(
    F1: Lattice, F2: Lattice, F3: Lattice, F4: Lattice, mode: str = UNGRADED
) -> bool:
    """Commutativity of the associativity square of omega maps."""
    lhs = omega(F1, F2, F3, mode) * omega(F1, F3, F4, mode)
    rhs = omega(F2, F3, F4, mode) * omega(F1, F2, F4, mode)
    return lhs == rhs


# -- torsor sections -----------------------------------------------------


class DimensionTheory(_Frozen):
    """A section of the dimension torsor: f(L') = f(L) + dim(L'/L)."""

    __slots__ = ("base", "value_at_base")

    def __init__(self, base: Lattice, value_at_base: int = 0):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "value_at_base", index(value_at_base))

    def eval(self, L: Lattice) -> int:
        _same_space(self.base, L)
        return self.value_at_base + L.vdim - self.base.vdim

    def shifted(self, k: int) -> "DimensionTheory":
        return DimensionTheory(self.base, self.value_at_base + index(k))


class DeterminantTheory(_Frozen):
    """A section of the determinant torsor, generated by a trivial Delta(base)."""

    __slots__ = ("base",)

    def __init__(self, base: Lattice):
        object.__setattr__(self, "base", base)

    def eval(self, L: Lattice) -> GradedLine:
        return rel_det(self.base, L)


def det_theory_coherence(
    theory: DeterminantTheory, L: Lattice, Lp: Lattice, Lpp: Lattice, mode: str = GRADED
) -> bool:
    """Whether the coherence square of the theory commutes for L <= L' <= L''.

    One path factors Delta(L'') through Delta(L'), with scalar
    omega(B, L, L') omega(B, L', L''); the other goes directly to Delta(L)
    and then splits the top quotient, with omega(B, L, L'') omega(L, L', L'').
    These are the two sides of the omega cocycle identity at (B, L, L', L''),
    B the theory's base, so the square is ``cocycle_check`` there.
    """
    if not (leq(L, Lp) and leq(Lp, Lpp)):
        raise NotNested("coherence needs L <= L' <= L''")
    return cocycle_check(theory.base, L, Lp, Lpp, mode)


# -- the determinant-line central extension ------------------------------


def _translation_scalar(g, F1, F2, gF1, gF2) -> Scalar:
    """Scalar of g_*: (F1|F2) -> (gF1|gF2) in canonical bases, given the
    translates gF1 and gF2."""
    # g is a bijection, so g(F1 ∩ F2) = gF1 ∩ gF2.
    N, gN = meet(F1, F2), meet(gF1, gF2)
    reps2, reps1 = _quotient_rows(N, F2), _quotient_rows(N, F1)
    rows = g.image([*reps2.values(), *reps1.values()], gN.a)
    return _wedge_det(gN, gF2, rows[: len(reps2)]) / _wedge_det(gN, gF1, rows[len(reps2) :])


def cocycle_sigma(g: Automorphism, h: Automorphism, mode: str) -> Scalar:
    """The 2-cocycle of the determinant-line extension at base O^n of g's space.

    sigma(g,h) is the scalar identifying (L0|ghL0) with
    (L0|gL0) (x) g_*(L0|hL0); its inverse direction is the composition
    scalar tau_g * omega, and associativity is the omega cocycle.  An h on
    another space raises ``SpaceMismatch`` from ``act``.
    """
    L0 = std_lattice(TateSpace(g.ctx, g.rank), 0)
    hL0 = act(h, L0)
    gL0 = act(g, L0)
    ghL0 = act(g, hL0)
    tau = _translation_scalar(g, L0, hL0, gL0, ghL0)
    w = omega(L0, gL0, ghL0, mode)
    return (tau * w).inverse()


class ExtElement(_Frozen):
    """An element (g, z) of the determinant-line central extension of Aut(V),
    V = k((t))^n the space of g, which g's field and rank fix."""

    __slots__ = ("g", "z", "mode")

    def __init__(self, g: Automorphism, z: Scalar, mode: str):
        if z.is_zero():
            raise ZeroElement("extension scalar must be nonzero")
        if mode not in (UNGRADED, GRADED):
            raise ValueError("mode must be graded or ungraded")
        if z.ctx is not g.ctx and z.ctx != g.ctx:
            raise FieldMismatch("scalar over %r for an automorphism over %r" % (z.ctx, g.ctx))
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def lift(cls, g: Automorphism, mode: str = UNGRADED):
        return cls(g, g.ctx.one(), mode)

    def __repr__(self):
        return "ExtElement(%r, z=%s, %s)" % (self.g, self.z, self.mode)


def _mul_z(x: ExtElement, y: ExtElement) -> Scalar:
    """The z-part of ``ext_mul(x, y)``, without composing x.g and y.g."""
    if x.mode != y.mode:
        raise ModeMismatch("graded and ungraded elements cannot be multiplied")
    return x.z * y.z * cocycle_sigma(x.g, y.g, x.mode)


def ext_mul(x: ExtElement, y: ExtElement) -> ExtElement:
    z = _mul_z(x, y)
    return ExtElement(x.g.compose(y.g), z, x.mode)


def ext_inv(x: ExtElement, precision: int | None = None) -> ExtElement:
    ginv = x.g.inverse(precision)
    sigma = cocycle_sigma(x.g, ginv, x.mode)
    return ExtElement(ginv, (x.z * sigma).inverse(), x.mode)


def commutator(
    f: Automorphism, g: Automorphism, mode: str = UNGRADED, precision: int | None = None
) -> Scalar:
    """Commutator of lifts of two multiplication automorphisms of k((t)).

    Computed through the extension: the z-part of x y x^-1 y^-1 for
    x = (f, 1), y = (g, 1).  In graded mode the commutator also carries
    the reordering sign (-1)^(v(f) v(g)) of the graded lifts.

    Each unit is inverted to min(P, N) coefficients, where P is
    ``precision`` or the default of ``TruncSeries.inverse`` and
    N = |v(f)| + |v(g)| + 1, and the word reads no deeper.  In rank 1 every
    lattice of the word is some t^m O, and ``act`` on it reads no
    coefficient.  sigma(G, h) reads G only through the images of the
    translation representatives of hO / (O meet hO), which are |v(h)| slots,
    so it reads |v(h)| coefficients of G.  The G's of the word are f, fg, g
    and fgf^-1, so the only inverse it reads is f^-1, inside fgf^-1 in
    sigma(fgf^-1, g^-1), and only |v(g)| < N deep; f^-1 and g^-1 enter
    every sigma as h, so only through their valuations.  When P < N the
    inverse keeps P, and a truncated unit that does not know P coefficients
    is inverted at P, so every InsufficientPrecision, and the precision it
    names, is the one the uncapped word raises.
    """
    if f.rank != 1 or g.rank != 1:
        raise NotMultiplicationAutomorphism("commutator needs MultBy units")
    if f.ctx != g.ctx:
        raise FieldMismatch("units over different fields")
    x, y = ExtElement.lift(f, mode), ExtElement.lift(g, mode)
    depth = abs(f.series.valuation) + abs(g.series.valuation) + 1

    def capped(u) -> int:
        p = u._inverse_precision(precision)
        return p if not u.exact and p > u.precision else min(p, depth)

    # Only the z-part of the word is read, so its last factor is not composed.
    value = _mul_z(ext_mul(ext_mul(x, y), ext_inv(x, capped(f.series))), ext_inv(y, capped(g.series)))
    if mode == GRADED and (f.det_valuation() % 2) and (g.det_valuation() % 2):
        value = -value
    return value


def closed_commutator_formula(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """(f^v(g) / g^v(f)) evaluated at 0: leading-coefficient arithmetic.

    Over Q the valuations are limited by the size of the answer: raises
    ``FormulaTooLarge`` when |v(g)|*h(a) + |v(f)|*h(b) exceeds
    ``MAX_FORMULA_BITS`` (about 158,000 decimal digits), where a, b are the
    leading coefficients and h is the bit length of numerator plus
    denominator.  Over F_p the powers are taken mod p and nothing is limited.
    """
    if f.is_zero() or g.is_zero():
        raise ZeroElement("tame symbol of zero")
    p, q = f.valuation(), g.valuation()
    a, b = f.leading_coeff(), g.leading_coeff()
    if a.ctx.modulus is None:
        bits = sum(
            abs(e) * (c.value.numerator.bit_length() + c.value.denominator.bit_length())
            for c, e in ((a, q), (b, p))
        )
        if bits > MAX_FORMULA_BITS:
            raise FormulaTooLarge(
                "closed formula needs up to %d bits, over the limit MAX_FORMULA_BITS=%d"
                % (bits, MAX_FORMULA_BITS)
            )
    return (a ** q) * (b ** p).inverse()


def tame_symbol(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """The tame symbol (-1)^(v(f)v(g)) (f^v(g)/g^v(f))(0).

    Closed form; serves as the independent oracle for the graded-mode
    commutator of the central extension.  Limited as
    ``closed_commutator_formula`` is.
    """
    value = closed_commutator_formula(f, g)
    if (f.valuation() % 2) and (g.valuation() % 2):
        value = -value
    return value
