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
    k0_reconstruct,
    omega,
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
    ("Subspace.from_rows-cols", lambda: Subspace.from_rows(QQ, 3, [[1, 0]]), AmbientMismatch),
    ("subspace_contains-across-fields", lambda: subspace_contains(LINE, Subspace.from_rows(F5, 2, [])), FieldMismatch),
    # laurent
    ("LaurentPoly-add-across-fields", lambda: t + LaurentPoly.one(F5), FieldMismatch),
    ("TruncSeries-mul-across-fields", lambda: SERIES_Q * SERIES_F5, FieldMismatch),
    ("TruncSeries-zero-leading", lambda: TruncSeries(QQ, 0, [0, 1], exact=True), ZeroElement),
    ("LaurentMatrix.from_rows-not-square", lambda: LaurentMatrix.from_rows(QQ, [[ONE, ONE], [ONE]]), NonSquare),
    ("LaurentMatrix-entry-count", lambda: LaurentMatrix(QQ, 2, [ONE] * 3), ValueError),
    ("LaurentMatrix-entry-field", lambda: LaurentMatrix(QQ, 1, [LaurentPoly.one(F5)]), FieldMismatch),
    ("LaurentMatrix-entry-type", lambda: LaurentMatrix(QQ, 1, [1]), FieldMismatch),
    ("LaurentMatrix-mul-fields", lambda: GL2.matrix * LaurentMatrix.identity(F5, 2), FieldMismatch),
    ("LaurentMatrix-mul-ranks", lambda: GL2.matrix * LaurentMatrix.identity(QQ, 3), SpaceMismatch),
    ("LaurentMatrix-min_valuation-zero", lambda: LaurentMatrix(QQ, 1, [t - t]).min_valuation(), ZeroElement),
    ("Automorphism-MULT-no-series", lambda: Automorphism(Automorphism.MULT), ZeroElement),
    ("Automorphism-unknown-kind", lambda: Automorphism("shift", series=SERIES_Q), ValueError),
    ("compose-across-fields", lambda: MULT_T.compose(Automorphism.mult_by(LaurentPoly.t(F5))), FieldMismatch),
    ("compose-across-ranks", lambda: GL2.compose(MULT_T), SpaceMismatch),
    # lattice
    ("vec_to_row-across-fields", lambda: O.contains_vector([LaurentPoly.one(F5)]), FieldMismatch),
    ("Lattice-bounds-overlap", lambda: Lattice(V, 1, -2, Subspace.from_rows(QQ, 0, [])), ValueError),
    ("Lattice-wrong-ambient", lambda: Lattice(V, 1, 1, Subspace.from_rows(QQ, 3, [])), ValueError),
    ("std-shift-count", lambda: Lattice.std(V2, [0]), ValueError),
    ("window_subspace-too-small", lambda: O.window_subspace(-1, 0), ValueError),
    ("LatticeChain-member-space", lambda: LatticeChain(V, [std_lattice(V2, 0)]), SpaceMismatch),
    # index_map
    ("AutChain-member-space", lambda: AutChain(V, [GL2]), SpaceMismatch),
    # detline
    ("omega-mode", lambda: omega(O, O, O, mode="twisted"), ValueError),
    ("ExtElement-zero-scalar", lambda: ExtElement(MULT_T, QQ.zero(), "ungraded"), ZeroElement),
    ("ExtElement-mode", lambda: ExtElement(MULT_T, QQ.one(), "twisted"), ValueError),
    ("tame_symbol-of-zero", lambda: tame_symbol(t - t, t), ZeroElement),
    # simplicial
    ("FinPoset-duplicates", lambda: FinPoset([0, 0], []), ValueError),
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
