"""Finite combinatorial carriers: posets, nerves, subdivision, Ex, trees.

Everything here is small and fully enumerable.  Simplicial sets are stored
level by level with explicit face/degeneracy tables and are audited against
the simplicial identities up to their dimension cap.  Ex is implemented on
nerves of posets only, through its closed description: an n-simplex is a
family (x_I) over the non-empty subsets I of [n], weakly monotone in I.
Weak monotonicity is what makes the degenerate simplices exist.
"""

from __future__ import annotations

from itertools import combinations

from .errors import FrameMismatch
from .linalg import Subspace, quotient_dim, subspace_contains

DEFAULT_DIM_CAP = 4


def subset_face(I, i):
    """Image of a subset of [n-1] under the coface d^i: [n-1] -> [n]."""
    return frozenset(x if x < i else x + 1 for x in I)


def subset_degeneracy(I, i):
    """Image of a subset of [n+1] under the codegeneracy s^i: [n+1] -> [n]."""
    return frozenset(x if x <= i else x - 1 for x in I)


def nonempty_subsets(n):
    """Non-empty subsets of {0,...,n}, by size then lexicographically."""
    elems = range(n + 1)
    out = []
    for r in range(1, n + 2):
        out.extend(frozenset(c) for c in combinations(elems, r))
    return out


class FinPoset:
    """Finite poset given by elements and a relation, validated; stored as
    one up-set bitmask per element."""

    def __init__(self, elements, leq_pairs):
        """``leq_pairs`` is an iterable of (x, y) with x <= y; reflexivity is
        added automatically, transitivity and antisymmetry are checked."""
        self.elements = list(elements)
        idx = {x: i for i, x in enumerate(self.elements)}
        if len(idx) != len(self.elements):
            raise ValueError("duplicate poset elements")
        n = len(self.elements)
        # Bit j of _up[i] is set when elements[i] <= elements[j].
        up = [1 << i for i in range(n)]
        for x, y in leq_pairs:
            up[idx[x]] |= 1 << idx[y]
        # Transitive closure (Warshall, one bitmask per row).
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        for i in range(n):
            for j in range(i + 1, n):
                if up[i] >> j & 1 and up[j] >> i & 1:
                    raise ValueError(
                        "antisymmetry fails for %r, %r" % (self.elements[i], self.elements[j])
                    )
        self._idx = idx
        self._up = up

    @classmethod
    def chain(cls, n):
        """The ordinal [n] = {0 < ... < n}."""
        return cls(range(n + 1), [(i, i + 1) for i in range(n)])

    def leq(self, x, y) -> bool:
        return bool(self._up[self._idx[x]] >> self._idx[y] & 1)

    def lt(self, x, y) -> bool:
        return x != y and self.leq(x, y)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return x in self._idx

    def maximal_element(self):
        """The final element, or None if there is none."""
        for y in self.elements:
            if all(self.leq(x, y) for x in self.elements):
                return y
        return None

    def is_filtered(self) -> bool:
        return self.maximal_element() is not None

    def minimal_elements(self):
        return [
            x
            for x in self.elements
            if not any(self.lt(y, x) for y in self.elements)
        ]

    def __repr__(self):
        return "FinPoset(%r)" % (self.elements,)


class FinSimplicialSet:
    """Levelwise simplex lists with face/degeneracy index tables."""

    def __init__(self, simplices, faces, degens):
        """``simplices[n]`` lists the n-simplices; ``faces[n][i]`` maps the
        index of an n-simplex to the index of its i-th face in level n-1,
        and ``degens[n][i]`` likewise into level n+1."""
        self.simplices = simplices
        self.faces = faces
        self.degens = degens
        self.dim_cap = len(simplices) - 1

    def face(self, n, i, idx):
        return self.faces[n][i][idx]

    def degeneracy(self, n, i, idx):
        return self.degens[n][i][idx]

    def is_degenerate(self, n, idx) -> bool:
        if n == 0:
            return False
        for i in range(n):
            if self.degens[n - 1][i][self.face(n, i, idx)] == idx:
                return True
        return False

    def nondegenerate(self, n):
        return [i for i in range(len(self.simplices[n])) if not self.is_degenerate(n, i)]

    def check_identities(self):
        """All simplicial identities up to the cap; returns failures."""
        bad = []
        D = self.dim_cap
        for n in range(D + 1):
            count = len(self.simplices[n])
            for idx in range(count):
                # d_i d_j = d_{j-1} d_i for i < j
                if n >= 2:
                    for j in range(n + 1):
                        for i in range(j):
                            lhs = self.face(n - 1, i, self.face(n, j, idx))
                            rhs = self.face(n - 1, j - 1, self.face(n, i, idx))
                            if lhs != rhs:
                                bad.append(("dd", n, idx, i, j))
                if n + 1 <= D:
                    # s_i s_j = s_{j+1} s_i for i <= j
                    if n + 2 <= D:
                        for j in range(n + 1):
                            for i in range(j + 1):
                                lhs = self.degeneracy(n + 1, i, self.degeneracy(n, j, idx))
                                rhs = self.degeneracy(n + 1, j + 1, self.degeneracy(n, i, idx))
                                if lhs != rhs:
                                    bad.append(("ss", n, idx, i, j))
                    # d_i s_j relations
                    for j in range(n + 1):
                        sj = self.degeneracy(n, j, idx)
                        for i in range(n + 2):
                            di = self.face(n + 1, i, sj)
                            if i < j:
                                want = self.degeneracy(n - 1, j - 1, self.face(n, i, idx))
                            elif i in (j, j + 1):
                                want = idx
                            else:
                                want = self.degeneracy(n - 1, j, self.face(n, i - 1, idx))
                            if di != want:
                                bad.append(("ds", n, idx, i, j))
        return bad


def nerve(poset: FinPoset, dim_cap: int = DEFAULT_DIM_CAP) -> FinSimplicialSet:
    """Nerve of a poset: n-simplices are weakly monotone (n+1)-chains."""
    levels = []
    for n in range(dim_cap + 1):
        if n == 0:
            levels.append([(x,) for x in poset.elements])
            continue
        prev = levels[-1]
        cur = []
        for chain in prev:
            last = chain[-1]
            for y in poset.elements:
                if poset.leq(last, y):
                    cur.append(chain + (y,))
        levels.append(cur)
    index = [{c: i for i, c in enumerate(level)} for level in levels]
    faces = [None]
    degens = []
    for n in range(1, dim_cap + 1):
        faces.append(
            [
                [index[n - 1][c[:i] + c[i + 1 :]] for c in levels[n]]
                for i in range(n + 1)
            ]
        )
    for n in range(dim_cap):
        degens.append(
            [
                [index[n + 1][c[: i + 1] + c[i:]] for c in levels[n]]
                for i in range(n + 1)
            ]
        )
    degens.append([])
    return FinSimplicialSet(levels, faces, degens)


def sd_ordinal(n: int) -> FinPoset:
    """Subdivision of [n]: non-empty subsets ordered by inclusion."""
    subsets = nonempty_subsets(n)
    return FinPoset(subsets, [(I, J) for I in subsets for J in subsets if I < J])


def _monotone(poset: FinPoset, subsets, lt):
    """Families over ``subsets`` as tuples of element indices, x_I <= x_J
    whenever lt(I, J) (such I must come before J), in lexicographic order of
    ``poset.elements``: the candidates at J are the AND of the up-sets of the
    x_I, read off in ascending bit order."""
    up = poset._up
    everything = (1 << len(up)) - 1
    rows = [()]
    for J in subsets:
        below = [i for i, I in enumerate(subsets) if lt(I, J)]
        nxt = []
        for row in rows:
            mask = everything
            for i in below:
                mask &= up[row[i]]
            while mask:
                low = mask & -mask
                nxt.append(row + (low.bit_length() - 1,))
                mask ^= low
        rows = nxt
    return rows


def _as_families(poset: FinPoset, subsets, rows):
    elements = poset.elements
    return [dict(zip(subsets, (elements[x] for x in row))) for row in rows]


def _ex_rows(poset: FinPoset, n: int):
    """``ex_poset`` as (subsets, rows of element indices over the subsets)."""
    subsets = nonempty_subsets(n)
    return subsets, _monotone(poset, subsets, lambda I, J: I < J and len(I) == len(J) - 1)


def ex_poset(poset: FinPoset, n: int):
    """Ex of the nerve of a poset in level n: weakly monotone families (x_I).

    Families are returned as dicts over the non-empty subsets of [n],
    enumerated in a deterministic order.  Monotonicity is imposed along the
    covering relations I < J, |I| = |J| - 1, only.
    """
    return _as_families(poset, *_ex_rows(poset, n))


def ex_face(family: dict, i: int, n: int) -> dict:
    """The i-th face of an Ex_n family: J |-> x_{d^i(J)} over J subset [n-1]."""
    return {J: family[subset_face(J, i)] for J in nonempty_subsets(n - 1)}


def ex_degeneracy(family: dict, i: int, n: int) -> dict:
    """The i-th degeneracy: J |-> x_{s^i(J)} over J subset [n+1]."""
    return {J: family[subset_degeneracy(J, i)] for J in nonempty_subsets(n + 1)}


def _sd_map_rows(poset: FinPoset, n: int):
    """``sd_maps_into_poset`` as (subsets, rows of element indices)."""
    sd = sd_ordinal(n)
    return sd.elements, _monotone(poset, sd.elements, sd.lt)


def sd_maps_into_poset(poset: FinPoset, n: int):
    """Simplicial-set maps sd(Delta^n) -> nerve(poset).

    A map out of the nerve of sd([n]) is a vertex assignment that sends
    every 1-simplex of the subdivision to a 1-simplex of the target nerve;
    higher simplices impose nothing new over a poset.  It imposes x_I <= x_J
    along every strict relation I < J of the poset ``sd_ordinal(n)``, where
    ``ex_poset`` imposes only the covering relations of the subset lattice.
    Both run the enumeration kernel ``_monotone``, so neither is an
    independent oracle for the other; the tests keep a separate brute-force
    enumeration of each as their reference.
    """
    return _as_families(poset, *_sd_map_rows(poset, n))


class OrientedGraph:
    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate graph vertices")
        self.edges = [(a, b) for a, b in edges]

    def __repr__(self):
        return "OrientedGraph(%d vertices, %d edges)" % (len(self.vertices), len(self.edges))


def order_graph(poset: FinPoset) -> OrientedGraph:
    """Gamma(I): one directed edge for every strict relation a < b."""
    edges = [
        (a, b)
        for a in poset.elements
        for b in poset.elements
        if poset.lt(a, b)
    ]
    return OrientedGraph(poset.elements, edges)


def _tree_paths(edges, vertices):
    """x -> {z: the edges of an oriented path x -> z}, unique in a tree.  The
    memoised search enters each vertex once, so a directed cycle ends it; a
    table then may miss targets, but it holds no false one."""
    paths = {}

    def visit(x):
        if x not in paths:
            paths[x] = out = {x: []}
            for a, b in edges:
                if a == x:
                    for z, rest in visit(b).items():
                        out.setdefault(z, [(a, b), *rest])
        return paths[x]

    return {x: visit(x) for x in vertices}


def is_admissible_tree(graph: OrientedGraph, tree_edges) -> bool:
    """Whether ``tree_edges`` is an admissible maximal tree of the graph:
    |V| - 1 of its edges such that every vertex pair has a common target z,
    reachable from both along oriented tree paths.  The targets connect the
    edges, and |V| - 1 edges connecting |V| vertices are a tree, spanning
    and acyclic as an undirected graph, so its paths are unique."""
    tree_edges = list(tree_edges)
    verts = graph.vertices
    if not set(graph.edges).issuperset(tree_edges) or len(tree_edges) != len(verts) - 1:
        return False
    reach = _tree_paths(tree_edges, verts)
    return all(reach[x].keys() & reach[y].keys() for x in verts for y in verts)


class BasedPoset:
    """A finite filtered poset with a tuple of minimal base points."""

    def __init__(self, poset: FinPoset, base_points):
        if not poset.is_filtered():
            raise ValueError("based poset must have a final element")
        minimal = set(poset.minimal_elements())
        for x in base_points:
            if x not in minimal:
                raise ValueError("base point %r is not minimal" % (x,))
        self.poset = poset
        self.base_points = list(base_points)

    def __repr__(self):
        return "BasedPoset(%d elements, %d base points)" % (
            len(self.poset),
            len(self.base_points),
        )


class FramedPoset(BasedPoset):
    """A based poset together with an admissible maximal tree of Gamma(I)."""

    def __init__(self, poset: FinPoset, base_points, tree_edges):
        super().__init__(poset, base_points)
        self.tree_edges = list(tree_edges)
        if not is_admissible_tree(order_graph(poset), self.tree_edges):
            raise ValueError("tree is not an admissible maximal tree")


def star_frame(based: BasedPoset) -> FramedPoset:
    """The star-to-maximum tree: every non-final element points at max."""
    m = based.poset.maximal_element()
    edges = [(x, m) for x in based.poset.elements if x != m]
    return FramedPoset(based.poset, based.base_points, edges)


def b_interval(k: int) -> BasedPoset:
    """B[k]: non-empty intervals of the ordinal [k], singleton base points."""
    intervals = [
        frozenset(range(i, j + 1)) for i in range(k + 1) for j in range(i, k + 1)
    ]
    poset = FinPoset(intervals, [(I, J) for I in intervals for J in intervals if I < J])
    return BasedPoset(poset, [frozenset([i]) for i in range(k + 1)])


class AdmissibleDiagram:
    """A poset-indexed diagram of nested subspaces of k^d."""

    def __init__(self, poset: FinPoset, assignment: dict):
        self.poset = poset
        self.assignment = dict(assignment)
        dims = {s.ambient_dim for s in self.assignment.values()}
        if len(dims) != 1:
            raise ValueError("all subspaces must share one ambient space")
        for x in poset.elements:
            if x not in self.assignment:
                raise ValueError("missing value at %r" % (x,))
        for x in poset.elements:
            for y in poset.elements:
                if poset.lt(x, y) and not subspace_contains(
                    self.assignment[y], self.assignment[x]
                ):
                    raise ValueError("diagram not monotone along %r <= %r" % (x, y))

    def value(self, x) -> Subspace:
        return self.assignment[x]

    def dim(self, x) -> int:
        return self.assignment[x].dim


def k0_decompose(diagram: AdmissibleDiagram, frame: FramedPoset):
    """Split a diagram into (dim at the zeroth base point, edge quotient dims).

    This is the dimension shadow of the tree splitting of diagram categories:
    the diagram maps to its value at x_0 together with one quotient per tree
    edge.
    """
    if frame.poset is not diagram.poset and frame.poset.elements != diagram.poset.elements:
        raise FrameMismatch("frame poset differs from diagram poset")
    x0 = frame.base_points[0]
    d0 = diagram.dim(x0)
    edge_dims = {}
    for (u, v) in frame.tree_edges:
        edge_dims[(u, v)] = quotient_dim(diagram.value(u), diagram.value(v))
    return d0, edge_dims


def k0_reconstruct(frame: FramedPoset, d0: int, edge_dims: dict):
    """Recover every dim F(x) from (d0, edge dims) through unique tree paths.

    For each x, pick a common target z of x and x_0; then
    dim F(x) = d0 + sum(path x0 -> z) - sum(path x -> z).
    """
    verts = frame.poset.elements
    paths = _tree_paths(frame.tree_edges, verts)
    up_0 = paths[frame.base_points[0]]
    out = {}
    for x in verts:
        up_x = paths[x]
        for z in verts:
            if z in up_x and z in up_0:
                out[x] = d0 + sum(edge_dims[e] for e in up_0[z]) - sum(edge_dims[e] for e in up_x[z])
                break
        else:
            raise FrameMismatch("no common tree target for %r" % (x,))
    return out


def preindex_k0(diagram: AdmissibleDiagram, base_points):
    """Dimension differences between consecutive base point values."""
    dims = [diagram.dim(x) for x in base_points]
    return [dims[i + 1] - dims[i] for i in range(len(dims) - 1)]


def to_dot(graph: OrientedGraph, tree_edges=None, name="gamma") -> str:
    """Graphviz export of Gamma(I); tree edges are drawn bold."""
    tree = set(tree_edges or [])
    lines = ["digraph %s {" % name]
    for v in graph.vertices:
        lines.append('  "%s";' % (_label(v),))
    for (a, b) in graph.edges:
        style = ' [style=bold]' if (a, b) in tree else ""
        lines.append('  "%s" -> "%s"%s;' % (_label(a), _label(b), style))
    lines.append("}")
    return "\n".join(lines)


def _label(v):
    if isinstance(v, frozenset):
        return "{%s}" % ",".join(str(x) for x in sorted(v))
    return str(v)
