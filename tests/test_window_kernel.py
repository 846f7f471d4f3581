"""The window-free lattice kernel against the padded window kernel.

``window_kernel`` keeps the kernel that re-embedded every operand into one
common window.  The lattice layer's ``leq``, ``join``, ``meet`` and ``act``
and the determinant-line ``omega`` and translation scalar must agree with
it exactly, and none of them, nor the index, the commutator or the lattice
family built on them, may build a window.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import window_kernel as ref
from tatekit import (
    GF,
    QQ,
    Automorphism,
    AutChain,
    Lattice,
    Subspace,
    TateSpace,
    act,
    build_family,
    commutator,
    family_passes,
    index0,
    join,
    leq,
    meet,
    omega,
    parse_laurent,
    tame_symbol,
    verify_family,
)
from tatekit.detline import GRADED, UNGRADED, _translation_scalar
from tatekit.verify import rand_gl, rand_mult

FIELDS = [GF(2), GF(3), GF(1000003), QQ]


@st.composite
def lattices(draw, space):
    """A lattice with bounds up to 5 in a window at most three blocks wide,
    spanned by sparse rows so that it is seldom the whole window."""
    a = draw(st.integers(-5, 5))
    b = draw(st.integers(max(-a, -5), min(5, 3 - a)))
    dim = space.rank * (a + b)
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), max_size=dim))
    return Lattice(space, a, b, Subspace.from_rows(space.ctx, dim, rows))


@st.composite
def cases(draw):
    space = TateSpace(draw(st.sampled_from(FIELDS)), draw(st.integers(1, 3)))
    Ls = [draw(lattices(space)) for _ in range(3)]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = rand_mult(space.ctx, rng, -3, 3) if space.rank == 1 else rand_gl(space.ctx, space.rank, rng)
    return Ls, g


@settings(max_examples=300, deadline=None)
@given(cases())
def test_kernel_matches_the_padded_window_kernel(case):
    (L, M, K), g = case
    for X, Y in ((L, M), (M, L), (L, K), (meet(L, M), L), (L, join(L, M))):
        assert leq(X, Y) == ref.leq(X, Y)
        assert join(X, Y) == ref.join(X, Y)
        assert meet(X, Y) == ref.meet(X, Y)
    assert act(g, L) == ref.act(g, L)
    for mode in (UNGRADED, GRADED):
        assert omega(L, M, K, mode) == ref.omega(L, M, K, mode)
        assert omega(meet(L, M), L, join(L, K), mode) == ref.omega(meet(L, M), L, join(L, K), mode)
    assert _translation_scalar(g, L, M, act(g, L), act(g, M)) == ref.translation_scalar(g, L, M)


def test_no_window_is_built(monkeypatch):
    """index, commutator and the lattice family never call window_subspace."""
    rng = random.Random(5)
    ctx = GF(1000003)
    chain = AutChain(TateSpace(ctx, 2), [rand_gl(ctx, 2, rng) for _ in range(3)])
    fp, gp = parse_laurent(QQ, "2*t^9+t^12"), parse_laurent(QQ, "3*t^2-t^5")
    f, g = Automorphism.mult_by(fp), Automorphism.mult_by(gp)

    def no_window(*args):
        raise AssertionError("a window was built")

    monkeypatch.setattr(Lattice, "window_subspace", no_window)
    assert index0(f) == 9
    assert index0(chain.autos[0]) == chain.autos[0].det_valuation()
    assert commutator(f, g, GRADED, 15) == tame_symbol(fp, gp)
    assert family_passes(verify_family(build_family(chain)))
