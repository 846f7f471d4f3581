"""The index of automorphisms at K_0 and the combinatorial lattice family.

K_0 of the base field is identified with the integers via dimension once
and for all, so index values are plain ints.  The index of g is

    index(g) = dim(N / gL) - dim(N / L)

for any lattice L and any enclosing lattice N >= L, gL; the value does not
depend on the choices, and the same number arises as the Euler
characteristic dim(L/N') - dim(gL/N') over a common sub-lattice N'.  Both
are vdim(L) - vdim(gL) (``Lattice.vdim``) once the nesting is checked;
``index0`` forms the canonical N = L + gL, whose window is capped.

``build_family`` replays the inductive construction of the simplicial
section: lattices L_{k,I} indexed by non-empty subsets I of [k] for a chain
of automorphisms and all of its iterated faces, with the proper subsets
forced by the face recursion and the full subset chosen as the canonical
join.  ``verify_family`` re-checks every hypothesis and both face
identities and reports each one.

``build_family`` fills ``entries`` through one recursion keyed by face
and subset, (kept vertices, sorted I), so the dict it returns is its memo.
Each face's composite arrows and its first identity arrow are found once.
The g_k-translates of the builder and of ``verify_family`` share one dict
per family, keyed by (g, L) by value, so each act runs once per distinct
input.  The full subset joins only its m+1 facets (|J| = m), which
hypothesis (c) puts above every smaller subset.  Hypothesis (c) settles a
pair whose two lattices are equal at once; it runs ``leq`` on the other
covering pairs, and on a wider pair I < J only when no I + x links it
through two passing pairs, as containment is transitive; and it runs once
per distinct (L, M), as faces share their lattices by value.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations

from .errors import ChainTooLong, DegenerateChain, NotNested, SpaceMismatch, UnknownFace
from .lattice import Lattice, TateSpace, act, join, leq, quotient_dim_lattices, std_lattice
from .laurent import Automorphism
from .simplicial import nonempty_subsets, subset_degeneracy, subset_face

IndexValue = int

DEFAULT_CHAIN_CAP = 4


def _canonical_index(g: Automorphism, space: TateSpace):
    """(index, L, gL, N) for the canonical choices L = O^n and N = L + gL."""
    L = std_lattice(space, 0)
    gL = act(g, L)
    N = join(L, gL)  # holds L and gL by construction
    return (N.vdim - gL.vdim) - (N.vdim - L.vdim), L, gL, N


def index0(g: Automorphism, space: TateSpace) -> IndexValue:
    """Index with the canonical choices L = O^n and N = L + gL."""
    return _canonical_index(g, space)[0]


def index0_with(g: Automorphism, L: Lattice, N: Lattice) -> IndexValue:
    """Index from arbitrary admissible choices (L a lattice, N enclosing)."""
    gL = act(g, L)
    if not (leq(L, N) and leq(gL, N)):
        raise NotNested("N must contain L and gL")
    return L.vdim - gL.vdim


def euler0(g: Automorphism, L: Lattice, N: Lattice) -> IndexValue:
    """Euler characteristic of the two-term complex gL -> L over a common
    sub-lattice N <= L, gL.  Always equals index0."""
    gL = act(g, L)
    if not (leq(N, L) and leq(N, gL)):
        raise NotNested("N must be a common sub-lattice of L and gL")
    return L.vdim - gL.vdim


def check_additivity(g: Automorphism, h: Automorphism, space: TateSpace) -> bool:
    return index0(g.compose(h), space) == index0(g, space) + index0(h, space)


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


def _subchain(chain, kept):
    """The chain seen by an iterated face keeping the given vertices; the
    face d_i of a chain keeps every vertex but i."""
    out = []
    for lo, hi in zip(kept, kept[1:]):
        g = chain[lo]
        for j in range(lo + 1, hi):
            g = chain[j].compose(g)
        out.append(g)
    return tuple(out)


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

    ``entries`` maps a face and a subset, as (kept-vertices tuple, sorted
    subset tuple), to a Lattice; ``subchains`` carries the composite arrows
    of each face.  ``translates`` holds the g L already computed, keyed by
    (g, L) by value, and is shared with every copy made by ``replaced``.
    """

    def __init__(self, chain: AutChain, entries: dict, subchains: dict, translates: dict):
        self.chain = chain
        self.entries = entries
        self.subchains = subchains
        self._translates = translates

    def faces(self):
        return sorted(self.subchains, key=lambda s: (len(s), s))

    def lattice(self, kept, I) -> Lattice:
        key = (tuple(kept), tuple(sorted(I)))
        if key not in self.entries:
            raise UnknownFace("no entry for face %r, subset %r" % (kept, sorted(I)))
        return self.entries[key]

    def replaced(self, kept, I, lattice: Lattice) -> "LatticeFamily":
        """Copy with one entry overridden (fault-injection hook for tests)."""
        entries = dict(self.entries)
        entries[(tuple(kept), tuple(sorted(I)))] = lattice
        return LatticeFamily(self.chain, entries, self.subchains, self._translates)


def build_family(chain: AutChain, cap: int = DEFAULT_CHAIN_CAP) -> LatticeFamily:
    k = len(chain)
    if k > cap:
        raise ChainTooLong("chain length %d exceeds cap %d" % (k, cap))
    if any(g.is_identity() for g in chain.autos):
        raise DegenerateChain("chain contains an identity arrow")
    faces = [kept for size in range(1, k + 2) for kept in combinations(range(k + 1), size)]
    subchains = {kept: _subchain(chain.autos, kept) for kept in faces}
    first_identity = {
        kept: next((j for j, g in enumerate(sub) if g.is_identity()), None)
        for kept, sub in subchains.items()
    }
    base = std_lattice(chain.space, 0)
    entries, translates = {}, {}

    def lattice(kept, I):
        key = (kept, tuple(sorted(I)))
        val = entries.get(key)
        if val is None:
            m, j = len(kept) - 1, first_identity[kept]
            if m == 0:
                val = base
            elif j is not None:
                # arrow j is the identity: the face is s_j of the face without
                # vertex j+1, whose arrow kept[j] -> kept[j+2] is the same
                val = lattice(_drop_vertex(kept, j + 1), subset_degeneracy(I, j))
            elif len(I) <= m:
                i = min(set(range(m + 1)) - I)
                if i < m:
                    val = lattice(_drop_vertex(kept, i), subset_degeneracy(I, i))
                else:
                    val = _once(translates, act, subchains[kept][-1], lattice(kept[:-1], I))
            else:
                val = reduce(join, [lattice(kept, I - {x}) for x in range(m + 1)])
            entries[key] = val
        return val

    for kept in faces:
        for I in nonempty_subsets(len(kept) - 1):
            lattice(kept, I)
    del lattice  # the recursion holds itself: free its state without the cycle collector
    return LatticeFamily(chain, entries, subchains, translates)


def verify_family(family: LatticeFamily):
    """Re-check the inductive hypotheses and both face identities.

    Returns a list of {check, simplex, status, detail} dicts, one per
    verified identity, deterministic in order.  Translates come from the
    family's (g, L) store, which holds the builder's; hypothesis (c) runs
    ``leq`` once per distinct (L, M), L != M, among the covering pairs and
    the wider pairs that no passing chain of narrower pairs settles.
    """
    report = []
    contained = {}

    def translate(g, lower_kept, I):
        return _once(family._translates, act, g, family.lattice(lower_kept, I))

    def record(check, simplex, ok, detail=""):
        report.append(
            {
                "check": check,
                "simplex": simplex,
                "status": "pass" if ok else "fail",
                "detail": detail,
            }
        )

    for kept in family.faces():
        m = len(kept) - 1
        sub = family.subchains[kept]
        tag = "S=%s" % (",".join(map(str, kept)),)
        if m == 0:
            continue
        subsets = nonempty_subsets(m)
        # hypotheses (a) and (b): compatibility with every face choice
        for I in subsets:
            if len(I) == m + 1:
                continue
            for i in sorted(set(range(m + 1)) - set(I)):
                here = family.lattice(kept, I)
                if i < m:
                    other = family.lattice(
                        _drop_vertex(kept, i), subset_degeneracy(I, i)
                    )
                    ok = here == other
                    record(
                        "hypothesis_a",
                        "%s I=%s i=%d" % (tag, sorted(I), i),
                        ok,
                        "" if ok else "face value disagrees",
                    )
                else:
                    ok = here == translate(sub[-1], _drop_vertex(kept, m), I)
                    record(
                        "hypothesis_b",
                        "%s I=%s" % (tag, sorted(I)),
                        ok,
                        "" if ok else "g_k-translate disagrees",
                    )
        # hypothesis (c): monotone in I, settled by gap |J| - |I|
        pairs = [(I, J) for I in subsets for J in subsets if I < J]
        holds = {}
        for I, J in sorted(pairs, key=lambda p: len(p[1]) - len(p[0])):
            via = len(J) - len(I) > 1 and any(holds[I, I | {x}] and holds[I | {x}, J] for x in J - I)
            L, M = family.lattice(kept, I), family.lattice(kept, J)
            holds[I, J] = via or L == M or _once(contained, leq, L, M)
        for I, J in pairs:
            ok = holds[I, J]
            record(
                "hypothesis_c",
                "%s I=%s J=%s" % (tag, sorted(I), sorted(J)),
                ok,
                "" if ok else "not a sub-lattice",
            )
        # face identities of the simplicial section
        for i in range(m + 1):
            lower_kept = _drop_vertex(kept, i)
            for J in nonempty_subsets(m - 1):
                top = family.lattice(kept, subset_face(J, i))
                if i < m:
                    ok = top == family.lattice(lower_kept, J)
                else:
                    ok = top == translate(sub[-1], lower_kept, J)
                record(
                    "face_identity_d%d" % i,
                    "%s J=%s" % (tag, sorted(J)),
                    ok,
                    "" if ok else "section is not simplicial here",
                )
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
    if kept not in family.subchains:
        raise UnknownFace("no face %r" % (kept,))
    m = len(kept) - 1
    top = family.lattice(kept, range(m + 1))
    return [
        quotient_dim_lattices(family.lattice(kept, [j]), top) for j in range(m + 1)
    ]
