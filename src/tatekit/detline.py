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
* (F1|F2) is based on N = meet(F1, F2) as e(N,F1)^dual (x) e(N,F2); its
  grade is dim(F2/N) - dim(F1/N).
* ``omega(F1,F2,F3)`` is the scalar of the composition isomorphism
  (F1|F2)(x)(F2|F3) -> (F1|F3) in canonical bases; in graded mode the
  Koszul sign (-1)^(grade(F1|F2)*grade(F2|F3)) is inserted for the middle
  contraction.
* Extension elements multiply by (g, z)(h, w) = (gh, z*w*sigma(g,h)) where
  sigma(g,h) is the scalar of the canonical identification of (L0|ghL0)
  with (L0|gL0) (x) g(L0|hL0); the direction is fixed so that the
  commutator of lifts of units f, g of k((t)) evaluates to
  (f^v(g)/g^v(f))(0), and in graded mode the reordering of the lifts
  contributes the extra sign (-1)^(v(f)v(g)).
"""

from __future__ import annotations

from .errors import (
    ModeMismatch,
    NotMultiplicationAutomorphism,
    NotNested,
    SpaceMismatch,
    ZeroElement,
)
from .fields import Scalar
from .laurent import Automorphism, LaurentPoly
from .lattice import (
    Lattice,
    TateSpace,
    act,
    common_window,
    leq,
    meet,
    meet_all,
    quotient_dim_lattices,
    row_to_vec,
    std_lattice,
    vec_to_row,
)
from .linalg import Matrix, _quotient_coords, _quotient_reps, det

UNGRADED = "ungraded"
GRADED = "graded"


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


def tensor(l1: GradedLine, l2: GradedLine) -> GradedLine:
    return GradedLine(l1.grade + l2.grade, ("tensor", l1.tag, l2.tag))


class LineIso:
    """A scalar-valued isomorphism between graded lines (canonical bases)."""

    __slots__ = ("source", "target", "scalar")

    def __init__(self, source: GradedLine, target: GradedLine, scalar: Scalar):
        if scalar.is_zero():
            raise ZeroElement("line isomorphisms have nonzero scalar")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "scalar", scalar)

    def __setattr__(self, *a):
        raise AttributeError("LineIso is immutable")

    def compose(self, then: "LineIso") -> "LineIso":
        if self.target != then.source:
            raise ValueError("isomorphisms do not compose")
        return LineIso(self.source, then.target, self.scalar * then.scalar)

    def inverse(self) -> "LineIso":
        return LineIso(self.target, self.source, self.scalar.inverse())

    def __repr__(self):
        return "LineIso(%s)" % self.scalar


def rel_det(F1: Lattice, F2: Lattice) -> GradedLine:
    """The relative determinant line (F1|F2), graded Deligne-style."""
    N = meet(F1, F2)
    grade = quotient_dim_lattices(N, F2) - quotient_dim_lattices(N, F1)
    return GradedLine(grade, ("reldet", F1, F2))


def _desc_reps(sub_w, sup_w):
    """Raw quotient representatives in descending pivot order (wedge order)."""
    return _quotient_reps(sub_w, sup_w)[0][::-1]


def _wedge_det(sub_w, sup_w, rows) -> Scalar:
    """Determinant of the raw ``rows`` in the canonical basis of det(sup_w/sub_w)."""
    target, lead = _quotient_reps(sub_w, sup_w)
    if len(rows) != len(target):
        raise NotNested("delta needs nested lattices")
    if not rows:
        return sub_w.ctx.one()
    coords = _quotient_coords(sub_w, target[::-1], lead[::-1], rows)
    return det(Matrix._raw(sub_w.ctx, len(target), coords))


def _delta(M: Lattice, N: Lattice, F: Lattice) -> Scalar:
    """Scalar of the concatenation det(N/M) (x) det(F/N) -> det(F/M).

    All three lattices must be nested M <= N <= F.  This realizes the
    canonical map "wedge the lower quotient first, then lifts of the
    upper" in the canonical descending bases.
    """
    _, _, (wM, wN, wF) = common_window(M, N, F)
    return _wedge_det(wM, wF, _desc_reps(wM, wN) + _desc_reps(wN, wF))


def omega(
    F1: Lattice, F2: Lattice, F3: Lattice, mode: str = UNGRADED, base: Lattice | None = None
) -> Scalar:
    """Scalar of (F1|F2) (x) (F2|F3) -> (F1|F3) in canonical bases.

    ``base`` may name any common sub-lattice to compute over; the result
    does not depend on it.  Graded mode inserts the Koszul swap sign.
    """
    M = base if base is not None else meet_all([F1, F2, F3])
    for F in (F1, F2, F3):
        if not leq(M, F):
            raise NotNested("base must be a common sub-lattice")
    n12, n23, n13 = meet(F1, F2), meet(F2, F3), meet(F1, F3)
    num = _delta(M, n12, F2) * _delta(M, n23, F3) * _delta(M, n13, F1)
    den = _delta(M, n12, F1) * _delta(M, n23, F2) * _delta(M, n13, F3)
    value = num / den
    if mode == GRADED:
        g12 = rel_det(F1, F2).grade
        g23 = rel_det(F2, F3).grade
        if g12 % 2 and g23 % 2:
            value = -value
    elif mode != UNGRADED:
        raise ValueError("mode must be %r or %r" % (UNGRADED, GRADED))
    return value


def omega_iso(F1: Lattice, F2: Lattice, F3: Lattice, mode: str = UNGRADED) -> LineIso:
    return LineIso(
        tensor(rel_det(F1, F2), rel_det(F2, F3)),
        rel_det(F1, F3),
        omega(F1, F2, F3, mode),
    )


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
        N = meet(L, self.base)
        return (
            self.value_at_base
            + quotient_dim_lattices(N, L)
            - quotient_dim_lattices(N, self.base)
        )

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
    N = meet(F1, F2)
    a1, b1, (wN, w1, w2) = common_window(N, F1, F2)
    a2, b2, (twN, tw1, tw2) = common_window(act(g, N), act(g, F1), act(g, F2))
    reps2, reps1 = _desc_reps(wN, w2), _desc_reps(wN, w1)
    vecs = [row_to_vec(N.space, a1, b1, r) for r in reps2 + reps1]
    rows = [vec_to_row(N.space, a2, b2, img) for img in g.image(vecs, a2)]
    return _wedge_det(twN, tw2, rows[: len(reps2)]) / _wedge_det(twN, tw1, rows[len(reps2) :])


def base_lattice(space: TateSpace) -> Lattice:
    """The extension's anchor: the standard lattice O^n."""
    return std_lattice(space, [0] * space.rank)


def cocycle_sigma(g: Automorphism, h: Automorphism, space: TateSpace, mode: str) -> Scalar:
    """The 2-cocycle of the determinant-line extension at base O^n.

    sigma(g,h) is the scalar identifying (L0|ghL0) with
    (L0|gL0) (x) g_*(L0|hL0); its inverse direction is the composition
    scalar tau_g * omega, and associativity is the omega cocycle.
    """
    L0 = base_lattice(space)
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


def ext_mul(x: ExtElement, y: ExtElement) -> ExtElement:
    if x.mode != y.mode:
        raise ModeMismatch("graded and ungraded elements cannot be multiplied")
    if x.space != y.space:
        raise SpaceMismatch("extension elements on different spaces")
    sigma = cocycle_sigma(x.g, y.g, x.space, x.mode)
    return ExtElement(x.g.compose(y.g), x.z * y.z * sigma, x.mode, x.space)


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
    word = ext_mul(ext_mul(ext_mul(x, y), ext_inv(x, precision)), ext_inv(y, precision))
    value = word.z
    if mode == GRADED and (f.det_valuation() % 2) and (g.det_valuation() % 2):
        value = -value
    return value


def closed_commutator_formula(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """(f^v(g) / g^v(f)) evaluated at 0: leading-coefficient arithmetic."""
    if f.is_zero() or g.is_zero():
        raise ZeroElement("tame symbol of zero")
    p, q = f.valuation(), g.valuation()
    a, b = f.leading_coeff(), g.leading_coeff()
    return (a ** q) * (b ** p).inverse()


def tame_symbol(f: LaurentPoly, g: LaurentPoly) -> Scalar:
    """The tame symbol (-1)^(v(f)v(g)) (f^v(g)/g^v(f))(0).

    Closed form; serves as the independent oracle for the graded-mode
    commutator of the central extension.
    """
    value = closed_commutator_formula(f, g)
    if (f.valuation() % 2) and (g.valuation() % 2):
        value = -value
    return value
