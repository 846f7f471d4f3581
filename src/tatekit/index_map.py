"""The index of automorphisms at K_0 and the combinatorial lattice family.

K_0 of the base field is identified with the integers via dimension once
and for all, so index values are plain ints.  The index of g is

    index(g) = dim(N / gL) - dim(N / L)

for any lattice L and any enclosing lattice N >= L, gL; the value does not
depend on the choices, and the same number arises as the Euler
characteristic dim(L/N') - dim(gL/N') over a common sub-lattice N'.  Both
are vdim(L) - vdim(gL) (``Lattice.vdim``) once the nesting is checked: N and
N' cancel.  So ``index0`` takes g alone, whose field and rank fix the space
V = k((t))^n, and reads vdim(O^n) - vdim(gO^n) with no N built.

``build_family`` replays the inductive construction of the simplicial
section: lattices L_{k,I} indexed by non-empty subsets I of [k] for a chain
of automorphisms and all of its iterated faces, with the proper subsets
forced by the face recursion and the full subset chosen as the canonical
join.  ``verify_family`` re-checks every hypothesis and reports each
equation once: the (a) record at (I, i), or (b) for i = m, is also face
identity d_i at J = s^i(I), so each face identity is checked once.

The arrows of a face are the composites between its consecutive kept
vertices, yet the rules read only its last one, from its last but one
vertex to its last: a missing vertex i < m moves to the face without i,
and only i = m, the g_k-translate of the face without its last vertex,
applies an arrow.  So the family keeps one composite per vertex pair,
``arrows[lo, hi]``, each one compose onto ``arrows[lo, hi-1]``: k(k-1)/2
for a chain of length k.

``entries`` is keyed by face and subset, (kept vertices, sorted I).  What a
face reads depends only on its dimension m, so ``_face_plan(m)`` lists it
once for every face of that dimension: each subset's key and rule (its least
missing vertex i with the key s^i(I) it reads on the face without i, or the
facet keys of the full subset), the (a)/(b) checks and the (c) pairs I < J,
both in report order.
``build_family`` runs the rules over the faces by size and, within a face,
the subsets by size, so every rule reads a filled entry: the face without
i is one vertex smaller, and a facet is one element smaller.
``verify_family`` reads the same plan.

The entries have a closed form: on a face with last vertex kept[m],

    L_{kept,I} = Σ_{j∈I} arrows[kept[j], kept[m]]·O^n,

with the identity arrow for j = m.  By induction on the rules:
- a missing i < m drops a vertex outside I and keeps the last, so the sum stays;
- i = m applies arrows[kept[m-1], kept[m]], a linear bijection, to the sum into kept[m-1];
- the full subset joins its facets, which is the sum over every j.
So an identity arrow (say g^-1 g) needs no rule of its own.
The g_k-translates of the builder and of ``verify_family`` share one dict
per family, keyed by (g, L) by value, so each act runs once per distinct
input.  The full subset joins only its m+1 facets (|J| = m), which
hypothesis (c) puts above every smaller subset.  Every hypothesis (c)
record is the verdict of ``leq`` on its pair, computed once per distinct
(L, M), as faces share their lattices by value.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations

from .errors import ChainTooLong, DegenerateChain, NotNested, SpaceMismatch, UnknownFace
from .lattice import Lattice, TateSpace, act, join, leq, quotient_dim_lattices, std_lattice
from .laurent import Automorphism
from .simplicial import nonempty_subsets, subset_degeneracy

DEFAULT_CHAIN_CAP = 4


def index0(g: Automorphism) -> int:
    """The index of g on its own space with L = O^n: vdim(O^n) - vdim(gO^n),
    as every enclosing N cancels (module doc)."""
    if not isinstance(g, Automorphism):
        raise TypeError("expected Automorphism, got %r" % (g,))
    L = std_lattice(TateSpace(g.ctx, g.rank), 0)
    return L.vdim - act(g, L).vdim


def index0_with(g: Automorphism, L: Lattice, N: Lattice) -> int:
    """Index from arbitrary admissible choices (L a lattice, N enclosing)."""
    gL = act(g, L)
    if not (leq(L, N) and leq(gL, N)):
        raise NotNested("N must contain L and gL")
    return L.vdim - gL.vdim


def euler0(g: Automorphism, L: Lattice, N: Lattice) -> int:
    """Euler characteristic of the two-term complex gL -> L over a common
    sub-lattice N <= L, gL.  Always equals index0."""
    gL = act(g, L)
    if not (leq(N, L) and leq(N, gL)):
        raise NotNested("N must be a common sub-lattice of L and gL")
    return L.vdim - gL.vdim


def check_additivity(g: Automorphism, h: Automorphism) -> bool:
    return index0(g.compose(h)) == index0(g) + index0(h)


class AutChain:
    """A chain (g_1, ..., g_k) of automorphisms of one Tate space."""

    def __init__(self, space: TateSpace, autos):
        self.space = space
        self.autos = tuple(autos)
        for g in self.autos:
            if g.ctx != space.ctx or g.rank != space.rank:
                raise SpaceMismatch("chain member acts on the wrong space")

    def __len__(self):
        return len(self.autos)

    def __repr__(self):
        return "AutChain(k=%d on %r)" % (len(self.autos), self.space)


def _arrows(autos):
    """The composite arrow from vertex lo to vertex hi for every lo < hi,
    ``autos[hi-1] o ... o autos[lo]``: one compose onto the arrow that stops
    a vertex short, k(k-1)/2 in all for a chain of length k."""
    arrows = {(lo, lo + 1): g for lo, g in enumerate(autos)}
    for lo in range(len(autos)):
        for hi in range(lo + 2, len(autos) + 1):
            arrows[lo, hi] = autos[hi - 1].compose(arrows[lo, hi - 1])
    return arrows


def _drop_vertex(kept, i):
    return kept[:i] + kept[i + 1 :]


def _once(store: dict, op, x, y):
    """op(x, y), computed once per (x, y) by value and kept in ``store``."""
    key = (x, y)
    out = store.get(key)
    if out is None:
        out = store[key] = op(x, y)
    return out


class LatticeFamily:
    """All lattices L_{m,I} over the faces of one top chain.

    ``faces`` lists every face as its tuple of kept vertices, by size, then
    lexicographically.  ``entries`` maps a face and a subset, as
    (kept-vertices tuple, sorted subset tuple), to a Lattice.  ``arrows``
    maps each vertex pair (lo, hi), lo < hi, to the composite arrow from lo
    to hi.  A face's arrows are those of its consecutive kept vertices, and
    only its last one is read: it translates the face without its last
    vertex, while a missing vertex i < m leads to another face (see the
    module doc).  ``translates`` holds the g L already computed, keyed by
    (g, L) by value, and is shared with every copy made by ``replaced``.
    """

    def __init__(self, chain: AutChain, entries: dict, faces: tuple, arrows: dict, translates: dict):
        self.chain = chain
        self.entries = entries
        self.arrows = arrows
        self.faces = faces
        self._translates = translates

    def lattice(self, kept, I) -> Lattice:
        key = (tuple(kept), tuple(sorted(I)))
        if key not in self.entries:
            raise UnknownFace("no entry for face %r, subset %r" % (kept, sorted(I)))
        return self.entries[key]

    def replaced(self, kept, I, lattice: Lattice) -> "LatticeFamily":
        """Copy with one entry overridden: how ``verify``'s ``fault_detected`` records spoil a family."""
        self.lattice(kept, I)  # UnknownFace for a (face, subset) the family lacks
        entries = dict(self.entries)
        entries[(tuple(kept), tuple(sorted(I)))] = lattice
        return LatticeFamily(self.chain, entries, self.faces, self.arrows, self._translates)


@lru_cache(maxsize=None)
def _face_plan(m):
    """What every face of dimension m >= 1 reads, by subset key (module doc):
    rules (key, i, read) by subset; checks (key, i, read, text, check, detail)
    and pairs (I, J, text) in report order."""
    subsets = nonempty_subsets(m)
    key = {I: tuple(sorted(I)) for I in subsets}
    rules, checks = [], []
    for I in subsets:
        missing = sorted(set(range(m + 1)) - I)
        if not missing:
            rules.append((key[I], m + 1, tuple(key[I - {x}] for x in range(m + 1))))
        for i in missing:
            read = tuple(sorted(subset_degeneracy(I, i)))
            if i == missing[0]:
                rules.append((key[I], i, read))
            if i < m:
                checks.append((key[I], i, read, " I=%s i=%d" % (sorted(I), i), "hypothesis_a", "face value disagrees"))
            else:
                checks.append((key[I], i, read, " I=%s" % (sorted(I),), "hypothesis_b", "g_k-translate disagrees"))
    pairs = [(key[I], key[J], " I=%s J=%s" % (sorted(I), sorted(J))) for I in subsets for J in subsets if I < J]
    return tuple(rules), tuple(checks), tuple(pairs)


def build_family(chain: AutChain) -> LatticeFamily:
    k = len(chain)
    if k > DEFAULT_CHAIN_CAP:
        raise ChainTooLong("chain length %d exceeds cap %d" % (k, DEFAULT_CHAIN_CAP))
    if any(g.is_identity() for g in chain.autos):
        raise DegenerateChain("chain contains an identity arrow")
    faces = tuple(kept for size in range(1, k + 2) for kept in combinations(range(k + 1), size))
    arrows = _arrows(chain.autos)
    base = std_lattice(chain.space, 0)
    entries, translates = {}, {}
    for kept in faces:
        m = len(kept) - 1
        if m == 0:
            entries[kept, (0,)] = base
            continue
        lower = [_drop_vertex(kept, i) for i in range(m + 1)]
        for key, i, read in _face_plan(m)[0]:
            if i < m:
                val = entries[lower[i], read]
            elif i == m:
                val = _once(translates, act, arrows[kept[-2:]], entries[lower[m], read])
            else:
                val = reduce(join, [entries[kept, facet] for facet in read])
            entries[kept, key] = val
    return LatticeFamily(chain, entries, faces, arrows, translates)


def verify_family(family: LatticeFamily):
    """Re-check the inductive hypotheses, each equation once.

    Returns a list of {check, simplex, status, detail} dicts, one per
    verified equation, deterministic in order.  The ``hypothesis_a`` record
    at (I, i), or ``hypothesis_b`` for i = m, is also face identity d_i at
    J = s^i(I), the same equation.  Translates come from the family's
    (g, L) store, which holds the builder's; each ``hypothesis_c`` record is
    the ``leq`` verdict on its pair, computed once per distinct (L, M).
    """
    entries, report, contained = family.entries, [], {}

    def record(check, simplex, ok, detail):
        status, detail = ("pass", "") if ok else ("fail", detail)
        report.append({"check": check, "simplex": simplex, "status": status, "detail": detail})

    for kept in family.faces:
        m = len(kept) - 1
        if m == 0:
            continue
        _, checks, pairs = _face_plan(m)
        tag, g = "S=%s" % (",".join(map(str, kept)),), family.arrows[kept[-2:]]
        lower = [_drop_vertex(kept, i) for i in range(m + 1)]
        # hypotheses (a) and (b): compatibility with every face choice
        for key, i, read, text, check, detail in checks:
            other = entries[lower[i], read]
            ok = entries[kept, key] == (other if i < m else _once(family._translates, act, g, other))
            record(check, tag + text, ok, detail)
        # hypothesis (c): monotone in I
        for I, J, text in pairs:
            ok = _once(contained, leq, entries[kept, I], entries[kept, J])
            record("hypothesis_c", tag + text, ok, "not a sub-lattice")
    return report


def family_passes(report) -> bool:
    return all(r["status"] == "pass" for r in report)


def index_simplex(family: LatticeFamily, kept):
    """Quotient dimensions of the face's S-construction image at K_0.

    For each vertex j of the face, the dimension of L_[m] / L_{j}; for a
    1-simplex this is the pair (dim N/gL, dim N/L), whose difference
    dim(N/gL) - dim(N/L) is the loop orientation agreed with index0.
    """
    kept = tuple(kept)
    m = len(kept) - 1
    top = family.lattice(kept, range(m + 1))
    return [
        quotient_dim_lattices(family.lattice(kept, [j]), top) for j in range(m + 1)
    ]
