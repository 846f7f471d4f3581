import copy
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tatekit import (
    GF,
    AdmissibleDiagram,
    BasedPoset,
    FinPoset,
    FinSimplicialSet,
    FramedPoset,
    OrientedGraph,
    Subspace,
    b_interval,
    ex_poset,
    is_admissible_tree,
    k0_decompose,
    k0_reconstruct,
    nerve,
    order_graph,
    preindex_k0,
    sd_ordinal,
    star_frame,
    to_dot,
)
from tatekit.errors import FrameMismatch
from tatekit.simplicial import (
    _ex_rows,
    _sd_map_rows,
    ex_degeneracy,
    ex_face,
    nonempty_subsets,
    sd_maps_into_poset,
)
from tatekit.verify import _same_rows, rand_admissible_diagram, rand_filtered_poset

# -- reference enumerations ----------------------------------------------------
# ``ex_poset`` and ``sd_maps_into_poset`` as they were before both moved onto
# the index/up-set kernel: one dict per candidate family, ``leq`` per relation.


def ref_ex_poset(poset, n):
    subsets = nonempty_subsets(n)
    preds = {
        J: [I for I in subsets if I < J and len(I) == len(J) - 1] for J in subsets
    }
    families = [{}]
    for J in subsets:
        nxt = []
        for fam in families:
            for x in poset.elements:
                if all(poset.leq(fam[I], x) for I in preds[J]):
                    g = dict(fam)
                    g[J] = x
                    nxt.append(g)
        families = nxt
    return families


def ref_sd_maps_into_poset(poset, n):
    sd = sd_ordinal(n)
    subsets = sd.elements
    out = [{}]
    for J in subsets:
        nxt = []
        below = [I for I in subsets if sd.lt(I, J)]
        for fam in out:
            for x in poset.elements:
                if all(poset.leq(fam[I], x) for I in below if I in fam):
                    g = dict(fam)
                    g[J] = x
                    nxt.append(g)
        out = nxt
    return out


def _same_families(got, want) -> bool:
    """Whether two lists of families (dicts) are equal as multisets."""
    return Counter(frozenset(f.items()) for f in got) == Counter(frozenset(f.items()) for f in want)


def _canon(fams):
    return sorted(
        sorted((tuple(sorted(k)), str(v)) for k, v in f.items()) for f in fams
    )


def test_poset_validation():
    with pytest.raises(ValueError):
        FinPoset([0, 1], [(0, 1), (1, 0)])  # antisymmetry
    P = FinPoset([0, 1, 2], [(0, 1), (1, 2)])
    assert P.leq(0, 2)  # transitive closure
    assert P.maximal_element() == 2
    assert P.minimal_elements() == [0]


def test_nerve_point():
    N = nerve(FinPoset([0], []), 3)
    assert [len(level) for level in N.simplices] == [1, 1, 1, 1]
    assert N.nondegenerate(1) == [] and N.check_identities() == []


def test_nerve_interval():
    N = nerve(FinPoset.chain(1), 3)
    assert len(N.nondegenerate(1)) == 1
    assert N.check_identities() == []


def test_nerve_b1():
    N = nerve(b_interval(1).poset, 3)
    # two nondegenerate edges, both ending at the doubleton
    nd = [N.simplices[1][i] for i in N.nondegenerate(1)]
    assert len(nd) == 2
    assert {chain[1] for chain in nd} == {frozenset({0, 1})}
    assert N.check_identities() == []


def test_check_identities_reports_a_corrupted_table():
    """A wrong face entry breaks d_i d_j = d_{j-1} d_i at its simplex, and a
    wrong degeneracy entry s_i s_j = s_{j+1} s_i and d_j s_j = id at its own."""
    N = nerve(FinPoset.chain(2), 3)
    idx2 = {c: i for i, c in enumerate(N.simplices[2])}
    idx1 = {c: i for i, c in enumerate(N.simplices[1])}

    def corrupted(table, n, i, idx, value):
        faces, degens = copy.deepcopy(N.faces), copy.deepcopy(N.degens)
        {"faces": faces, "degens": degens}[table][n][i][idx] = value
        return FinSimplicialSet(N.simplices, faces, degens).check_identities()

    # d_1 (0,1,2) = (0,2), set to (1,2)
    x = idx2[0, 1, 2]
    bad = corrupted("faces", 2, 1, x, idx1[1, 2])
    assert ("dd", 2, x, 1, 2) in bad
    # s_0 (0,1) = (0,0,1), set to (0,1,1)
    y = idx1[0, 1]
    bad = corrupted("degens", 1, 0, y, idx2[0, 1, 1])
    assert ("ss", 1, y, 0, 0) in bad and ("ds", 1, y, 0, 0) in bad


def test_sd_examples():
    assert len(sd_ordinal(0)) == 1
    sd1 = sd_ordinal(1)
    assert len(sd1) == 3
    sd2 = sd_ordinal(2)
    assert len(sd2) == 7
    top = sd2.maximal_element()
    assert top == frozenset({0, 1, 2})
    coatoms = [x for x in sd2.elements if len(x) == 2]
    assert len(coatoms) == 3


def test_sd1_nerve_two_segments_glued():
    N = nerve(sd_ordinal(1), 2)
    assert len(N.simplices[0]) == 3
    nd1 = [N.simplices[1][i] for i in N.nondegenerate(1)]
    assert len(nd1) == 2
    assert N.nondegenerate(2) == []
    # both segments end at the common barycenter {0,1}
    assert {c[1] for c in nd1} == {frozenset({0, 1})}
    assert {c[0] for c in nd1} == {frozenset({0}), frozenset({1})}


def test_ex_level_zero_is_elements():
    P = FinPoset.chain(2)
    fams = ex_poset(P, 0)
    assert sorted(f[frozenset({0})] for f in fams) == [0, 1, 2]


def test_ex_chain1_level1_count():
    assert len(ex_poset(FinPoset.chain(1), 1)) == 5


def _check_against_reference(P, n):
    ex, sd = ex_poset(P, n), sd_maps_into_poset(P, n)
    assert ex == ref_ex_poset(P, n)  # same families, same order
    assert sd == ref_sd_maps_into_poset(P, n)
    # The row comparison suite_simplicial makes gives the dict verdict, also
    # when one side loses or repeats a family.
    ex_rows, sd_rows = _ex_rows(P, n), _sd_map_rows(P, n)
    assert _same_rows(ex_rows, sd_rows) and _same_families(ex, sd)
    subsets, rows = sd_rows
    for bad in (rows[1:], rows + rows[:1]):
        fams = [dict(zip(subsets, (P.elements[x] for x in row))) for row in bad]
        assert not _same_rows(ex_rows, (subsets, bad)) and not _same_families(ex, fams)


def test_ex_agrees_with_sd_maps():
    posets = [FinPoset.chain(1), FinPoset.chain(2), FinPoset.chain(3), b_interval(1).poset]
    for P in posets + [b_interval(2).poset, sd_ordinal(1)]:
        for n in (0, 1, 2):
            assert _canon(ex_poset(P, n)) == _canon(sd_maps_into_poset(P, n))
            _check_against_reference(P, n)


def test_families_compare_as_multisets():
    J, K = frozenset([0]), frozenset([1])
    f, g = {J: 0, K: 1}, {J: 1, K: 1}
    assert _same_families([f, g], [g, f])
    assert not _same_families([f, f, g], [f, g, g])  # multiplicity counts
    assert not _same_families([f], [f, f])
    # Distinct values that print alike stay distinct.
    assert not _same_families([{J: 1}], [{J: "1"}])
    assert _same_families(ex_poset(FinPoset.chain(2), 1), list(reversed(sd_maps_into_poset(FinPoset.chain(2), 1))))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([0, 1, 2]))
def test_enumerations_match_reference_on_random_posets(seed, n):
    _check_against_reference(rand_filtered_poset(random.Random(seed)), n)


def test_ex_face_degeneracy_are_simplicial():
    P = FinPoset.chain(2)
    for fam in ex_poset(P, 1):
        up = ex_degeneracy(fam, 0, 1)
        assert up in ex_poset(P, 2)
        assert ex_face(up, 0, 2) == fam
        assert ex_face(up, 1, 2) == fam
    for fam in ex_poset(P, 2):
        for i in range(3):
            assert ex_face(fam, i, 2) in ex_poset(P, 1)


def test_admissible_tree_worked_examples():
    left = OrientedGraph(["a", "b", "m", "t"], [("a", "m"), ("b", "m"), ("m", "t")])
    assert is_admissible_tree(left, left.edges)
    right = OrientedGraph(["c", "d", "m", "t"], [("c", "t"), ("d", "m"), ("d", "t")])
    assert not is_admissible_tree(right, right.edges)
    point = OrientedGraph(["x"], [])
    assert is_admissible_tree(point, [])


def test_admissible_tree_rejects_nontrees():
    g = OrientedGraph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])
    assert not is_admissible_tree(g, g.edges)  # cycle: too many edges
    assert not is_admissible_tree(g, [(0, 1)])  # not spanning
    assert is_admissible_tree(g, [(0, 1), (1, 2)])
    assert is_admissible_tree(g, [(0, 2), (1, 2)])


# -- reference tree search ---------------------------------------------------
# ``is_admissible_tree`` and ``k0_reconstruct`` as they were before both read
# one reach table: an undirected search for connectivity, then one oriented
# path search per (x, z) pair.


def ref_tree_path(edges, x, z):
    if x == z:
        return []
    for a, b in edges:
        if a == x:
            rest = ref_tree_path(edges, b, z)
            if rest is not None:
                return [(a, b), *rest]
    return None


def ref_is_admissible_tree(graph, tree_edges):
    tree_edges = list(tree_edges)
    edge_set = set(graph.edges)
    if any(e not in edge_set for e in tree_edges):
        return False
    verts = graph.vertices
    if len(verts) == 0:
        return False
    if len(verts) == 1:
        return not tree_edges
    if len(tree_edges) != len(verts) - 1:
        return False
    adj = {v: set() for v in verts}
    for a, b in tree_edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {verts[0]}, [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(verts):
        return False
    reach = {x: {z for z in verts if ref_tree_path(tree_edges, x, z) is not None} for x in verts}
    return all(reach[x] & reach[y] for x in verts for y in verts)


def ref_k0_reconstruct(frame, d0, edge_dims):
    x0 = frame.base_points[0]
    verts = frame.poset.elements
    out = {}
    for x in verts:
        for z in verts:
            up_x = ref_tree_path(frame.tree_edges, x, z)
            up_0 = ref_tree_path(frame.tree_edges, x0, z)
            if up_x is not None and up_0 is not None:
                out[x] = d0 + sum(edge_dims[e] for e in up_0) - sum(edge_dims[e] for e in up_x)
                break
    return out


def rand_poset(rng):
    """A random poset on 1..6 elements, filtered (a top added) half the time."""
    m = rng.randint(1, 6)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.4]
    if m > 1 and rng.random() < 0.5:
        pairs += [(i, m - 1) for i in range(m - 1)]
    return FinPoset(range(m), pairs)


def rand_tree_edges(rng, P, graph):
    """Candidate tree edges of ``graph``: a random edge up from each element
    that has one, or |V| - 2, |V| - 1 or |V| edges drawn at random, some
    with repeats; now and then one edge foreign to the graph."""
    n, pool = len(P), graph.edges
    if rng.random() < 0.4:
        edges = [(x, rng.choice(up)) for x in P.elements if (up := [y for y in P.elements if P.lt(x, y)])]
    else:
        count = max(0, n - 1 + rng.choice((-1, 0, 0, 1)))
        if count <= len(pool) and rng.random() < 0.7:
            edges = rng.sample(pool, count)
        else:
            edges = [rng.choice(pool) for _ in range(count)] if pool else []
    if edges and rng.random() < 0.15:
        a, b = rng.choice(edges)
        edges[rng.randrange(len(edges))] = rng.choice([(b, a), (a, a), (a, "elsewhere")])
    return edges


def test_tree_search_matches_the_reference_on_random_posets():
    rng = random.Random(2024)
    admissible = 0
    for _ in range(1500):
        P = rand_poset(rng)
        graph = order_graph(P)
        edges = rand_tree_edges(rng, P, graph)
        want = ref_is_admissible_tree(graph, edges)
        assert is_admissible_tree(graph, edges) == want, (P, edges)
        if not want:
            continue
        admissible += 1
        frame = FramedPoset(P, [rng.choice(P.minimal_elements())], edges)
        d0, edge_dims = rng.randint(0, 5), {e: rng.randint(0, 3) for e in edges}
        assert k0_reconstruct(frame, d0, edge_dims) == ref_k0_reconstruct(frame, d0, edge_dims)
    assert admissible > 300


def test_oriented_graph_rejects_a_repeated_vertex():
    # With [("a", "a")] and [("a", "b")] * 2 as trees, these non-trees would
    # pass both the |V| - 1 count and the common-target test.
    with pytest.raises(ValueError, match="duplicate graph vertices"):
        OrientedGraph(["a", "a"], [("a", "a")])
    with pytest.raises(ValueError, match="duplicate graph vertices"):
        OrientedGraph(["a", "a", "b"], [("a", "b")])


def test_admissible_tree_ends_on_directed_cycles():
    two = OrientedGraph(["a", "b", "c"], [("a", "b"), ("b", "a"), ("b", "c")])
    assert not is_admissible_tree(two, [("a", "b"), ("b", "a")])
    three = OrientedGraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 0), (2, 3)])
    assert not is_admissible_tree(three, [(0, 1), (1, 2), (2, 0)])


def test_star_tree_always_admissible():
    rng = random.Random(113)
    for _ in range(15):
        P = rand_filtered_poset(rng)
        based = BasedPoset(P, [P.minimal_elements()[0]])
        frame = star_frame(based)
        assert is_admissible_tree(order_graph(P), frame.tree_edges)


def test_b_interval():
    b2 = b_interval(2)
    assert len(b2.poset) == 6
    sizes = sorted(len(x) for x in b2.poset.elements)
    assert sizes == [1, 1, 1, 2, 2, 3]
    assert len(b2.base_points) == 3
    assert frozenset({0, 2}) not in b2.poset
    assert len(b_interval(1).poset) == 3 and len(b_interval(1).base_points) == 2
    assert len(b_interval(0).poset) == 1


def test_framed_poset_validation():
    b1 = b_interval(1)
    with pytest.raises(ValueError):
        FramedPoset(b1.poset, b1.base_points, [])  # not a spanning tree
    frame = star_frame(b1)
    assert len(frame.tree_edges) == 2


def test_k0_decompose_constant_diagram():
    F2 = GF(2)
    P = FinPoset.chain(2)
    S = Subspace.from_rows(F2, 3, [[1, 0, 0], [0, 1, 0]])
    D = AdmissibleDiagram(P, {x: S for x in P.elements})
    frame = star_frame(BasedPoset(P, [0]))
    d0, edge_dims = k0_decompose(D, frame)
    assert d0 == 2 and all(v == 0 for v in edge_dims.values())


def test_k0_decompose_flag_chain():
    F2 = GF(2)
    P = FinPoset.chain(2)
    D = AdmissibleDiagram(
        P,
        {
            0: Subspace.from_rows(F2, 3, []),
            1: Subspace.from_rows(F2, 3, [[1, 0, 0]]),
            2: Subspace.from_rows(F2, 3, [[1, 0, 0], [0, 1, 0]]),
        },
    )
    # path tree 0 -> 1 -> 2 gives the stepwise dims (1, 1)
    frame = FramedPoset(P, [0], [(0, 1), (1, 2)])
    d0, edge_dims = k0_decompose(D, frame)
    assert d0 == 0
    assert edge_dims == {(0, 1): 1, (1, 2): 1}
    rec = k0_reconstruct(frame, d0, edge_dims)
    assert rec == {0: 0, 1: 1, 2: 2}


def test_k0_decompose_frame_mismatch():
    F2 = GF(2)
    P = FinPoset.chain(2)
    D = AdmissibleDiagram(P, {x: Subspace.from_rows(F2, 2, []) for x in P.elements})
    other = star_frame(BasedPoset(FinPoset.chain(3), [0]))
    with pytest.raises(FrameMismatch):
        k0_decompose(D, other)


def test_k0_reconstruction_randomized():
    rng = random.Random(127)
    F2 = GF(2)
    for _ in range(20):
        P = rand_filtered_poset(rng)
        frame = star_frame(BasedPoset(P, [P.minimal_elements()[0]]))
        D = rand_admissible_diagram(P, F2, rng)
        d0, edge_dims = k0_decompose(D, frame)
        rec = k0_reconstruct(frame, d0, edge_dims)
        assert all(rec[x] == D.dim(x) for x in P.elements)


def test_preindex_examples():
    F2 = GF(2)
    b2 = b_interval(2)
    flag = [
        Subspace.from_rows(F2, 4, []),
        Subspace.from_rows(F2, 4, [[1, 0, 0, 0]]),
        Subspace.from_rows(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]),
    ]
    D = AdmissibleDiagram(b2.poset, {I: flag[max(I)] for I in b2.poset.elements})
    assert preindex_k0(D, b2.base_points) == [1, 2]
    b1 = b_interval(1)
    S = Subspace.from_rows(F2, 4, [[0, 0, 0, 1]])
    D1 = AdmissibleDiagram(b1.poset, {I: S for I in b1.poset.elements})
    assert preindex_k0(D1, b1.base_points) == [0]


def test_preindex_chain_rule_randomized():
    rng = random.Random(131)
    F2 = GF(2)
    b2 = b_interval(2)
    for _ in range(25):
        D = rand_admissible_diagram(b2.poset, F2, rng, ambient=5)
        b0, b1, b2p = b2.base_points
        p01 = preindex_k0(D, [b0, b1])[0]
        p12 = preindex_k0(D, [b1, b2p])[0]
        p02 = preindex_k0(D, [b0, b2p])[0]
        assert p01 + p12 == p02


def test_dot_export():
    P = FinPoset.chain(1)
    dot = to_dot(order_graph(P), tree_edges=[(0, 1)])
    assert dot.startswith("digraph")
    assert '"0" -> "1" [style=bold];' in dot
