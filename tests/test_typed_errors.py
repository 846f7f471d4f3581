"""Every refusal that no other test reaches, or reaches only on some random
draws, raises its documented type.

One row per ``raise`` site: the call that should be refused and the
exception it must raise.  The rows cover the field, linear-algebra, Laurent,
lattice, index, determinant-line and simplicial layers in that order.
"""

import pytest

from tatekit import (
    GF,
    QQ,
    AdmissibleDiagram,
    AutChain,
    Automorphism,
    BasedPoset,
    ExtElement,
    FieldCtx,
    FinPoset,
    Lattice,
    LatticeChain,
    LaurentMatrix,
    LaurentPoly,
    Matrix,
    Subspace,
    TateSpace,
    TruncSeries,
    act,
    det,
    index0,
    k0_reconstruct,
    leq,
    nerve,
    omega,
    quotient_dim,
    std_lattice,
    star_frame,
    subspace_contains,
    tame_symbol,
)
from tatekit.errors import (
    AmbientMismatch,
    FieldMismatch,
    FrameMismatch,
    NonSquare,
    SpaceMismatch,
    ZeroElement,
)

F5 = GF(5)
V, V2 = TateSpace(QQ, 1), TateSpace(QQ, 2)
O = std_lattice(V, 0)
t = LaurentPoly.t(QQ)
ONE = LaurentPoly.one(QQ)
MULT_T = Automorphism.mult_by(t)
GL2 = Automorphism.identity(QQ, 2)
SERIES_Q = TruncSeries(QQ, 0, [1, 1], exact=False)
SERIES_F5 = TruncSeries(F5, 0, [1, 1], exact=False)
CHAIN_POSET = FinPoset([0, 1], [(0, 1)])
ANTICHAIN = FinPoset([0, 1], [])
LINE, PLANE = Subspace.from_rows(QQ, 2, [[1, 0]]), Subspace.from_rows(QQ, 2, [[1, 0], [0, 1]])


def _frame_without_its_tree():
    """``FramedPoset`` refuses a tree that is not admissible, and in an
    admissible tree every vertex shares a target with the base point, so no
    frame as built reaches ``k0_reconstruct``'s refusal.  A frame is a plain
    object, though: one whose tree is emptied afterwards reaches it."""
    frame = star_frame(BasedPoset(CHAIN_POSET, [0]))
    frame.tree_edges = []
    return frame


CASES = [
    # fields
    ("FieldCtx-Q-with-modulus", lambda: FieldCtx("Q", 5), ValueError),
    ("FieldCtx-unknown-kind", lambda: FieldCtx("R"), ValueError),
    ("Scalar-plus-int", lambda: QQ.one() + 1, TypeError),
    # linalg
    ("Matrix-entry-count", lambda: Matrix(QQ, 2, 2, [1, 0, 0]), ValueError),
    ("Matrix.from_rows-ragged", lambda: Matrix.from_rows(QQ, [[1, 0], [1]]), ValueError),
    ("Matrix-mul-across-fields", lambda: Matrix.identity(QQ, 2) * Matrix.identity(F5, 2), FieldMismatch),
    ("Matrix-mul-shapes", lambda: Matrix.identity(QQ, 2) * Matrix.identity(QQ, 3), ValueError),
    ("Matrix-mul-int", lambda: Matrix.from_rows(QQ, [[1]]) * 2, TypeError),
    ("Subspace.from_rows-cols", lambda: Subspace.from_rows(QQ, 3, [[1, 0]]), AmbientMismatch),
    ("subspace_contains-across-fields", lambda: subspace_contains(LINE, Subspace.from_rows(F5, 2, [])), FieldMismatch),
    ("subspace_contains-int", lambda: subspace_contains(LINE, 5), TypeError),
    ("subspace_contains-int-first", lambda: subspace_contains(5, LINE), TypeError),
    ("quotient_dim-int", lambda: quotient_dim(LINE, 5), TypeError),
    ("det-int", lambda: det(5), TypeError),
    # laurent
    ("LaurentPoly-add-across-fields", lambda: t + LaurentPoly.one(F5), FieldMismatch),
    ("LaurentPoly-plus-int", lambda: ONE + 1, TypeError),
    ("LaurentPoly-times-int", lambda: ONE * 2, TypeError),
    ("TruncSeries-times-int", lambda: TruncSeries(QQ, 0, [1], True) * 2, TypeError),
    ("LaurentPoly-plus-series", lambda: ONE + SERIES_Q, TypeError),
    ("LaurentPoly-times-series", lambda: ONE * SERIES_Q, TypeError),
    ("TruncSeries-times-poly", lambda: SERIES_Q * ONE, TypeError),
    ("mul_poly_mod-int", lambda: SERIES_Q.mul_poly_mod(5, 3), TypeError),
    ("mul_poly_mod-series", lambda: SERIES_Q.mul_poly_mod(SERIES_Q, 3), TypeError),
    ("TruncSeries-mul-across-fields", lambda: SERIES_Q * SERIES_F5, FieldMismatch),
    ("TruncSeries-zero-leading", lambda: TruncSeries(QQ, 0, [0, 1], exact=True), ZeroElement),
    ("LaurentMatrix.from_rows-not-square", lambda: LaurentMatrix.from_rows(QQ, [[ONE, ONE], [ONE]]), NonSquare),
    ("LaurentMatrix-entry-count", lambda: LaurentMatrix(QQ, 2, [ONE] * 3), ValueError),
    ("LaurentMatrix.identity-negative-rank", lambda: LaurentMatrix.identity(QQ, -1), ValueError),
    ("LaurentMatrix-entry-field", lambda: LaurentMatrix(QQ, 1, [LaurentPoly.one(F5)]), FieldMismatch),
    ("LaurentMatrix-entry-type", lambda: LaurentMatrix(QQ, 1, [1]), FieldMismatch),
    ("LaurentMatrix-mul-fields", lambda: GL2.matrix * LaurentMatrix.identity(F5, 2), FieldMismatch),
    ("LaurentMatrix-mul-ranks", lambda: GL2.matrix * LaurentMatrix.identity(QQ, 3), SpaceMismatch),
    ("LaurentMatrix-mul-int", lambda: LaurentMatrix.identity(QQ, 2) * 2, TypeError),
    ("LaurentMatrix.apply-ints", lambda: LaurentMatrix.identity(QQ, 2).apply([1, 2]), TypeError),
    ("LaurentMatrix-min_valuation-zero", lambda: LaurentMatrix(QQ, 1, [t - t]).min_valuation(), ZeroElement),
    ("Automorphism-MULT-no-series", lambda: Automorphism(Automorphism.MULT), ZeroElement),
    ("Automorphism-unknown-kind", lambda: Automorphism("shift", series=SERIES_Q), ValueError),
    ("compose-across-fields", lambda: MULT_T.compose(Automorphism.mult_by(LaurentPoly.t(F5))), FieldMismatch),
    ("compose-across-ranks", lambda: GL2.compose(MULT_T), SpaceMismatch),
    ("compose-int", lambda: MULT_T.compose(5), TypeError),
    # lattice
    ("vec_to_row-across-fields", lambda: O.contains_vector([LaurentPoly.one(F5)]), FieldMismatch),
    ("vec_to_row-int", lambda: O.contains_vector([1]), TypeError),
    ("leq-int", lambda: leq(O, 5), TypeError),
    ("act-int", lambda: act(MULT_T, 5), TypeError),
    ("Lattice-bounds-overlap", lambda: Lattice(V, 1, -2, Subspace.from_rows(QQ, 0, [])), ValueError),
    ("Lattice-wrong-ambient", lambda: Lattice(V, 1, 1, Subspace.from_rows(QQ, 3, [])), ValueError),
    ("std-shift-count", lambda: Lattice.std(V2, [0]), ValueError),
    ("window_subspace-too-small", lambda: O.window_subspace(-1, 0), ValueError),
    ("LatticeChain-member-space", lambda: LatticeChain(V, [std_lattice(V2, 0)]), SpaceMismatch),
    # index_map
    ("index0-int", lambda: index0(5), TypeError),
    ("AutChain-member-space", lambda: AutChain(V, [GL2]), SpaceMismatch),
    # detline
    ("omega-mode", lambda: omega(O, O, O, mode="twisted"), ValueError),
    ("omega-int", lambda: omega(O, O, 5), TypeError),
    ("ExtElement-zero-scalar", lambda: ExtElement(MULT_T, QQ.zero(), "ungraded"), ZeroElement),
    ("ExtElement-mode", lambda: ExtElement(MULT_T, QQ.one(), "twisted"), ValueError),
    ("ExtElement-int-scalar", lambda: ExtElement(MULT_T, 5, "ungraded"), TypeError),
    ("ExtElement-int-automorphism", lambda: ExtElement(5, QQ.one(), "ungraded"), TypeError),
    ("tame_symbol-of-zero", lambda: tame_symbol(t - t, t), ZeroElement),
    # simplicial
    ("FinPoset-duplicates", lambda: FinPoset([0, 0], []), ValueError),
    ("nerve-negative-dim_cap", lambda: nerve(FinPoset.chain(1), -1), ValueError),
    ("nerve-float-dim_cap", lambda: nerve(FinPoset.chain(1), 2.0), TypeError),
    ("BasedPoset-no-final-element", lambda: BasedPoset(ANTICHAIN, [0]), ValueError),
    ("BasedPoset-base-not-minimal", lambda: BasedPoset(CHAIN_POSET, [1]), ValueError),
    (
        "AdmissibleDiagram-ambients",
        lambda: AdmissibleDiagram(CHAIN_POSET, {0: LINE, 1: Subspace.from_rows(QQ, 3, [])}),
        ValueError,
    ),
    ("AdmissibleDiagram-missing-value", lambda: AdmissibleDiagram(CHAIN_POSET, {0: LINE}), ValueError),
    ("AdmissibleDiagram-not-monotone", lambda: AdmissibleDiagram(CHAIN_POSET, {0: PLANE, 1: LINE}), ValueError),
    ("k0_reconstruct-no-common-target", lambda: k0_reconstruct(_frame_without_its_tree(), 1, {}), FrameMismatch),
]


@pytest.mark.parametrize("call, error", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_refusal_raises_its_type(call, error):
    with pytest.raises(error):
        call()


def test_omega_checks_its_mode_before_any_meet(monkeypatch):
    import tatekit.detline as detline

    meets = []
    monkeypatch.setattr(detline, "meet", lambda L, M: meets.append((L, M)))
    with pytest.raises(ValueError, match="mode must be"):
        omega(O, O, O, mode="twisted")
    assert meets == []
