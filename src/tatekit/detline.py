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
  ``translation_scalar`` takes both its source and its target
  representatives in *ascending* order instead: that reverses the rows and
  the columns of each coordinate matrix A, and det(JAJ) = det(A) for the
  order-reversing permutation J, so the scalar is the same.  For a rank-1
  translation the ascending matrix is upper triangular.
* (F1|F2) is based on N = meet(F1, F2) as e(N,F1)^dual (x) e(N,F2); its
  grade is dim(F2/N) - dim(F1/N) = vdim(F2) - vdim(F1).
* ``omega(F1,F2,F3)`` is the scalar of the composition isomorphism
  (F1|F2)(x)(F2|F3) -> (F1|F3) in canonical bases; in graded mode the
  Koszul sign (-1)^(grade(F1|F2)*grade(F2|F3)) is inserted for the middle
  contraction.
* Pivot parity: an echelon row is 1 at its own pivot and 0 at every other
  pivot of its subspace, so for window subspaces M <= N <= F with pivot sets
  P(M) <= P(N) <= P(F) the concatenation det(N/M) (x) det(F/N) -> det(F/M)
  is the sign (-1)^s of a shuffle, s = #{(x, y) : x in P(N) - P(M),
  y in P(F) - P(N), x < y}.  Window padding adds pivots to all three sets
  alike, so s does not depend on the window, and ``omega`` is always +-1: a
  product of six such signs, read off the pivots in one common window.
* Extension elements multiply by (g, z)(h, w) = (gh, z*w*sigma(g,h)) where
  sigma(g,h) is the scalar of the canonical identification of (L0|ghL0)
  with (L0|gL0) (x) g(L0|hL0); the direction is fixed so that the
  commutator of lifts of units f, g of k((t)) evaluates to
  (f^v(g)/g^v(f))(0), and in graded mode the reordering of the lifts
  contributes the extra sign (-1)^(v(f)v(g)).
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import (
    FormulaTooLarge,
    ModeMismatch,
    NotMultiplicationAutomorphism,
    NotNested,
    SpaceMismatch,
    ZeroElement,
)
from .fields import Scalar
from .laurent import Automorphism, LaurentPoly
from .lattice import Lattice, TateSpace, _same_space, _sparse, act, common_window, leq, std_lattice
from .linalg import Matrix, _quotient_coords, _quotient_reps, det, subspace_intersect

UNGRADED = "ungraded"
GRADED = "graded"
MAX_FORMULA_BITS = 1 << 19  # the size limit of closed_commutator_formula over Q


class GradedLine:
    """A formal one-dimensional graded object with a canonical basis."""

    __slots__ = ("grade", "tag")

    def __init__(self, grade: int, tag):
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "tag", tag)

    def __setattr__(self, *a):
        raise AttributeError("GradedLine is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, GradedLine)
            and self.grade == other.grade
            and self.tag == other.tag
        )

    def __hash__(self):
        return hash((self.grade, self.tag))

    def __repr__(self):
        return "GradedLine(grade=%d, %r)" % (self.grade, self.tag)


def rel_det(F1: Lattice, F2: Lattice) -> GradedLine:
    """The relative determinant line (F1|F2), graded Deligne-style; its grade
    dim(F2/N) - dim(F1/N) over N = meet(F1, F2) is vdim(F2) - vdim(F1)."""
    _same_space(F1, F2)
    return GradedLine(F2.vdim - F1.vdim, ("reldet", F1, F2))


def _wedge_det(sub_w, sup_w, rows) -> Scalar:
    """Determinant of the raw ``rows`` against the quotient representatives of
    sup_w/sub_w, both taken in ascending pivot order (see the conventions)."""
    target, lead = _quotient_reps(sub_w, sup_w)
    coords = _quotient_coords(sub_w, target, lead, rows)
    return det(Matrix._raw(sub_w.ctx, len(target), coords))


def _shuffle(M, N, F) -> int:
    """The exponent s of the sign of det(N/M) (x) det(F/N) -> det(F/M) for
    window subspaces M <= N <= F (see the pivot-parity convention)."""
    lower = [c for c in N._at if c not in M._at]
    upper = [c for c in F._at if c not in N._at]
    return sum(len(upper) - bisect_right(upper, x) for x in lower)


def omega(F1: Lattice, F2: Lattice, F3: Lattice, mode: str = UNGRADED) -> Scalar:
    """Scalar of (F1|F2) (x) (F2|F3) -> (F1|F3) in canonical bases, always +-1.

    It is computed over the meet of all three, which is below each of them by
    construction; over any common sub-lattice the result would be the same.
    Graded mode inserts the Koszul swap sign.
    """
    _, _, (w1, w2, w3) = common_window(F1, F2, F3)
    n12, n23, n13 = subspace_intersect(w1, w2), subspace_intersect(w2, w3), subspace_intersect(w1, w3)
    M = subspace_intersect(n12, w3)
    # The three numerator and three denominator concatenations, each a sign.
    triples = ((n12, w2), (n23, w3), (n13, w1), (n12, w1), (n23, w2), (n13, w3))
    s = sum(_shuffle(M, N, F) for N, F in triples)
    if mode == GRADED:
        s += (F2.vdim - F1.vdim) * (F3.vdim - F2.vdim)
    elif mode != UNGRADED:
        raise ValueError("mode must be %r or %r" % (UNGRADED, GRADED))
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


class DimensionTheory:
    """A section of the dimension torsor: f(L') = f(L) + dim(L'/L)."""

    __slots__ = ("base", "value_at_base")

    def __init__(self, base: Lattice, value_at_base: int = 0):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "value_at_base", value_at_base)

    def __setattr__(self, *a):
        raise AttributeError("DimensionTheory is immutable")

    def eval(self, L: Lattice) -> int:
        _same_space(self.base, L)
        return self.value_at_base + L.vdim - self.base.vdim

    def shifted(self, k: int) -> "DimensionTheory":
        return DimensionTheory(self.base, self.value_at_base + k)


class DeterminantTheory:
    """A section of the determinant torsor, generated by a trivial Delta(base)."""

    __slots__ = ("base",)

    def __init__(self, base: Lattice):
        object.__setattr__(self, "base", base)

    def __setattr__(self, *a):
        raise AttributeError("DeterminantTheory is immutable")

    def eval(self, L: Lattice) -> GradedLine:
        return rel_det(self.base, L)


def det_theory_coherence_scalars(
    theory: DeterminantTheory, L: Lattice, Lp: Lattice, Lpp: Lattice, mode: str = GRADED
):
    """The two composite scalars of the coherence square for L <= L' <= L''.

    One path factors Delta(L'') through Delta(L'), the other goes directly
    to Delta(L) and then splits the top quotient.
    """
    if not (leq(L, Lp) and leq(Lp, Lpp)):
        raise NotNested("coherence needs L <= L' <= L''")
    B = theory.base
    via_middle = omega(B, Lp, Lpp, mode) * omega(B, L, Lp, mode)
    direct = omega(B, L, Lpp, mode) * omega(L, Lp, Lpp, mode)
    return via_middle, direct


def det_theory_coherence(
    theory: DeterminantTheory, L: Lattice, Lp: Lattice, Lpp: Lattice, mode: str = GRADED
) -> bool:
    s1, s2 = det_theory_coherence_scalars(theory, L, Lp, Lpp, mode)
    return s1 == s2


# -- the determinant-line central extension ------------------------------


def translation_scalar(g: Automorphism, F1: Lattice, F2: Lattice) -> Scalar:
    """Scalar of g_*: (F1|F2) -> (gF1|gF2) in canonical bases."""
    _, b1, (w1, w2) = common_window(F1, F2)
    a2, b2, (tw1, tw2) = common_window(act(g, F1), act(g, F2))
    # g is a bijection, so g(F1 ∩ F2) = gF1 ∩ gF2.
    wN, twN = subspace_intersect(w1, w2), subspace_intersect(tw1, tw2)
    reps2, reps1 = _quotient_reps(wN, w2)[0], _quotient_reps(wN, w1)[0]
    rows = g.image([_sparse(F1.space, b1, r) for r in reps2 + reps1], a2, b2)
    return _wedge_det(twN, tw2, rows[: len(reps2)]) / _wedge_det(twN, tw1, rows[len(reps2) :])


def cocycle_sigma(g: Automorphism, h: Automorphism, space: TateSpace, mode: str) -> Scalar:
    """The 2-cocycle of the determinant-line extension at base O^n.

    sigma(g,h) is the scalar identifying (L0|ghL0) with
    (L0|gL0) (x) g_*(L0|hL0); its inverse direction is the composition
    scalar tau_g * omega, and associativity is the omega cocycle.
    """
    L0 = std_lattice(space, 0)
    hL0 = act(h, L0)
    gL0 = act(g, L0)
    ghL0 = act(g, hL0)
    tau = translation_scalar(g, L0, hL0)
    w = omega(L0, gL0, ghL0, mode)
    return (tau * w).inverse()


class ExtElement:
    """An element (g, z) of the determinant-line central extension."""

    __slots__ = ("g", "z", "mode", "space")

    def __init__(self, g: Automorphism, z: Scalar, mode: str, space: TateSpace):
        if z.is_zero():
            raise ZeroElement("extension scalar must be nonzero")
        if mode not in (UNGRADED, GRADED):
            raise ValueError("mode must be graded or ungraded")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "space", space)

    def __setattr__(self, *a):
        raise AttributeError("ExtElement is immutable")

    @classmethod
    def lift(cls, g: Automorphism, mode: str = UNGRADED, space: TateSpace | None = None):
        if space is None:
            space = TateSpace(g.ctx, g.rank)
        return cls(g, space.ctx.one(), mode, space)

    def __repr__(self):
        return "ExtElement(%r, z=%s, %s)" % (self.g, self.z, self.mode)


def _mul_z(x: ExtElement, y: ExtElement) -> Scalar:
    """The z-part of ``ext_mul(x, y)``, without composing x.g and y.g."""
    if x.mode != y.mode:
        raise ModeMismatch("graded and ungraded elements cannot be multiplied")
    if x.space != y.space:
        raise SpaceMismatch("extension elements on different spaces")
    sigma = cocycle_sigma(x.g, y.g, x.space, x.mode)
    return x.z * y.z * sigma


def ext_mul(x: ExtElement, y: ExtElement) -> ExtElement:
    z = _mul_z(x, y)
    return ExtElement(x.g.compose(y.g), z, x.mode, x.space)


def ext_inv(x: ExtElement, precision: int | None = None) -> ExtElement:
    ginv = x.g.inverse(precision)
    sigma = cocycle_sigma(x.g, ginv, x.space, x.mode)
    return ExtElement(ginv, (x.z * sigma).inverse(), x.mode, x.space)


def commutator(
    f: Automorphism, g: Automorphism, mode: str = UNGRADED, precision: int | None = None
) -> Scalar:
    """Commutator of lifts of two multiplication automorphisms of k((t)).

    Computed through the extension: the z-part of x y x^-1 y^-1 for
    x = (f, 1), y = (g, 1).  In graded mode the commutator also carries
    the reordering sign (-1)^(v(f) v(g)) of the graded lifts.
    """
    if f.rank != 1 or g.rank != 1:
        raise NotMultiplicationAutomorphism("commutator needs MultBy units")
    if f.ctx != g.ctx:
        raise SpaceMismatch("units over different fields")
    space = TateSpace(f.ctx, 1)
    x = ExtElement.lift(f, mode, space)
    y = ExtElement.lift(g, mode, space)
    # Only the z-part of the word is read, so its last factor is not composed.
    value = _mul_z(ext_mul(ext_mul(x, y), ext_inv(x, precision)), ext_inv(y, precision))
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
