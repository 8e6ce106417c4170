"""Class graphs, their label structure, and the reference graphs."""

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from opgraphs.graphs import (
    LabeledGraph,
    SimpleGraph,
    TypeMapError,
    classify_type_map,
    induced_type_map,
    johnson_graph,
    pair_complement_map,
    petersen_graph,
)
from opgraphs.spectral import adjacency_slots, contract, enumerate_class
from opgraphs.starfield import galois_field
from tests.conftest import signature
from tests.oracles import complete_graph, cycle_graph, path_graph


def _degrees(graph):
    return Counter(map(len, graph.adjacency()))


def _edges(g):
    """The edges (u, v), u < v, of a `SimpleGraph`."""
    return [(u, v) for u, nbrs in enumerate(g.adjlist) for v in nbrs if u < v]


def test_flagship_graph_shape(flagship_graph):
    g = flagship_graph
    assert g.n == 378
    assert len(g.edges) == 2835
    assert _degrees(g) == {15: 378}
    for slots in ((0, 1), (0, 2), (1, 2)):
        sizes = [len(vs) for t, vs in g.cliques if t == slots]
        assert sum(s * (s - 1) // 2 for s in sizes) == 945


def test_flagship_graph_agrees_with_census(flagship_graph, flagship_census):
    got = set(flagship_graph.edges)
    want = {tuple(sorted(e)) for e, _ in flagship_census.edges}
    assert got == want
    types = {e: t for e, t in flagship_census.edges}
    for e in flagship_graph.edges:
        assert flagship_graph.label(*e) == types[e]


def test_grassmann_graph_is_complete(grassmann_graph):
    g = grassmann_graph
    assert g.n == 63
    assert len(g.edges) == 63 * 62 // 2
    assert _degrees(g) == {62: 63}
    assert all(t == (0, 1) for t, _ in g.cliques)


def _bucket_scan(sig, flags):
    """Edge labels by `adjacency_slots` on every pair of flags that agree
    off two slots."""
    flags = sorted(flags, key=lambda f: f.key())
    labels = {}
    for i, j in combinations(range(sig.k), 2):
        buckets = {}
        for v, flag in enumerate(flags):
            frozen = tuple(flag.spaces[t] for t in range(sig.k) if t not in (i, j))
            buckets.setdefault(frozen, []).append(v)
        for members in buckets.values():
            for a, b in combinations(members, 2):
                if adjacency_slots(flags[a], flags[b]) == (i, j):
                    labels[(a, b)] = (i, j)
    return flags, labels


def _search_components(n, edges):
    """Connected components by depth-first search over an edge list."""
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for y in nbrs[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        out.append(tuple(sorted(comp)))
    return tuple(sorted(out))


BUILD_CLASSES = [
    ("GF(4)^4 2,2", (2, 1), ("0", "1"), (2, 2)),
    ("K40", (2, 1), ("0", "1"), (1, 3)),
    ("flagship", (3, 1), ("0", "1", "2"), (1, 1, 1)),
    ("grassmann", (3, 1), ("0", "1"), (1, 2)),
    ("GF(16)^3", (2, 2), ("0", "1", "2"), (1, 1, 1)),
]


@lru_cache(maxsize=None)
def _built_and_scanned(field, sigma, dims):
    sig = signature(galois_field(*field), sigma, dims)
    flags = enumerate_class(sig)
    return LabeledGraph.build(sig), _bucket_scan(sig, flags)


@pytest.mark.parametrize("name,field,sigma,dims", BUILD_CLASSES,
                         ids=[c[0] for c in BUILD_CLASSES])
def test_build_matches_a_scan_of_every_bucket_pair(name, field, sigma, dims):
    graph, (vertices, scan) = _built_and_scanned(field, sigma, dims)
    assert graph.vertices == tuple(vertices)
    pairs = [(e, t) for t, vs in graph.cliques for e in combinations(vs, 2)]
    assert len(dict(pairs)) == len(pairs)  # no edge in two cliques
    assert dict(pairs) == scan
    assert graph.edges == tuple(sorted(scan))


@pytest.mark.parametrize("name,field,sigma,dims", BUILD_CLASSES,
                         ids=[c[0] for c in BUILD_CLASSES])
def test_components_match_a_search_of_the_scan(name, field, sigma, dims):
    graph, (_, scan) = _built_and_scanned(field, sigma, dims)
    k = len(dims)
    keeps = [None]
    keeps += [lambda t, p=p: t == p for p in combinations(range(k), 2)]
    keeps += [lambda t, i=i: i not in t for i in range(k)]
    for keep in keeps:
        kept = [e for e, t in scan.items() if keep is None or keep(t)]
        assert graph.components(keep) == _search_components(graph.n, kept)


def test_gf9_planes_graph_is_pinned():
    # GF(9)^4 (2,2): the smaller slot is a plane, so each flag is filed
    # under the q^2 + 1 = 10 lines of its slot; the numbers come from
    # the per-pair rank test that the hyperplane keys replaced
    graph = LabeledGraph.build(signature(galois_field(3, 1), ("0", "1"), (2, 2)))
    assert graph.n == 5670
    assert len(graph.edges) == 1961820
    assert _degrees(graph) == {692: 5670}
    # one clique per 1-space of GF(9)^4, that is per point of PG(3, 9)
    assert len(graph.cliques) == 820


def test_gf4_planes_graph_is_pinned():
    # GF(4)^5 (2,3): each flag is filed under the q^2 + 1 = 5 points of
    # its plane slot; the numbers come from the rref-row hyperplane keys
    # that the point ids replaced
    graph = LabeledGraph.build(signature(galois_field(2, 1), ("0", "1"), (2, 3)))
    assert graph.n == 3520
    assert len(graph.edges) == 469920
    assert _degrees(graph) == {267: 3520}
    # one clique per point of PG(4, 4)
    assert len(graph.cliques) == 341
    assert {len(vs) for _, vs in graph.cliques} == {40, 64}


def test_pair_components_are_the_fibers(flagship_graph):
    comps = flagship_graph.ij_components(1, 2)
    fibers = flagship_graph.fiber_partition(1, 2)
    assert comps == fibers
    assert len(comps) == 63
    assert all(len(c) == 6 for c in comps)


def test_avoiding_components_are_the_eigenspace_blocks(flagship_graph):
    comps = flagship_graph.avoiding_components(2)
    blocks = flagship_graph.eigenspace_blocks(2)
    assert len(blocks) == 63
    assert all(len(vs) == 6 for vs in blocks)
    assert comps == blocks


def _grouped(keys):
    groups = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, set()).add(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def test_form_partitions_match_the_flags(flagship_graph):
    # fibers and blocks are read off the point forms; the oracles group
    # the flags by their contraction's and their slot space's rref keys
    g = flagship_graph
    for i, j in permutations(range(3), 2):
        assert g.fiber_partition(i, j) == _grouped(
            contract(flag, i, j).key() for flag in g.vertices)
    for i in range(3):
        assert g.eigenspace_blocks(i) == _grouped(
            flag.spaces[i].rows for flag in g.vertices)


def test_fiber_partition_refuses_what_contraction_refuses(flagship_graph,
                                                          grassmann_graph):
    with pytest.raises(ValueError, match="two distinct slots"):
        flagship_graph.fiber_partition(1, 1)
    with pytest.raises(ValueError, match="leaves no class"):
        grassmann_graph.fiber_partition(0, 1)


def test_flagship_graph_is_connected(flagship_graph):
    assert len(flagship_graph.components()) == 1


def test_label_and_restriction(flagship_graph):
    g = flagship_graph
    u, v = g.edges[0]
    assert g.label(u, v) is not None and g.label(v, u) == g.label(u, v)
    assert g.label(u, u) is None
    # the (0, 1)-edges form 63 six-cliques, 945 edges, one per fiber
    kept = [vs for t, vs in g.cliques if t == (0, 1)]
    assert sum(len(vs) * (len(vs) - 1) // 2 for vs in kept) == 945
    assert g.components(lambda t: t == (0, 1)) == tuple(sorted(kept))


def test_induced_type_map_identity(flagship_graph):
    ident = tuple(range(flagship_graph.n))
    tau = induced_type_map(flagship_graph, ident)
    assert tau == {(0, 1): (0, 1), (0, 2): (0, 2), (1, 2): (1, 2)}


def test_induced_type_map_rejects_non_automorphisms(flagship_graph):
    g = flagship_graph
    u, v = g.edges[0]
    # find w not adjacent to u, then swapping v and w breaks some edge
    w = next(x for x in range(g.n) if x not in (u, v) and g.label(u, x) is None)
    perm = list(range(g.n))
    perm[v], perm[w] = perm[w], perm[v]
    with pytest.raises(TypeMapError):
        induced_type_map(g, tuple(perm))


def test_classify_type_map_families():
    labels3 = [(0, 1), (0, 2), (1, 2)]
    for d in permutations(range(3)):
        tau = {t: tuple(sorted((d[t[0]], d[t[1]]))) for t in labels3}
        kind, witness = classify_type_map(tau, 3)
        assert kind == "permutation"
        assert tuple(tuple(sorted((witness[a], witness[b]))) for a, b in labels3) == tuple(
            tau[t] for t in labels3)
    labels4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    comp = {t: tuple(sorted(set(range(4)) - set(t))) for t in labels4}
    kind, witness = classify_type_map(comp, 4)
    assert kind == "complement-composed"
    assert witness == (0, 1, 2, 3)
    # swapping two labels of a triangle of labels is neither
    weird = {(0, 1): (0, 2), (0, 2): (0, 1), (1, 2): (1, 2), (0, 3): (0, 3),
             (1, 3): (1, 3), (2, 3): (2, 3)}
    assert classify_type_map(weird, 4) == ("other", None)


def test_johnson_graphs():
    j3 = johnson_graph(3)
    assert (j3.n, len(_edges(j3))) == (3, 3)  # a triangle
    j4 = johnson_graph(4)
    assert (j4.n, len(_edges(j4))) == (6, 12)
    assert all(len(nbrs) == 4 for nbrs in j4.adjlist)
    j5 = johnson_graph(5)
    assert (j5.n, len(_edges(j5))) == (10, 30)
    assert all(len(nbrs) == 6 for nbrs in j5.adjlist)
    assert j5.labels == tuple(sorted(j5.labels))


def test_petersen_is_the_pair_complement_of_johnson5():
    p = petersen_graph()
    j5 = johnson_graph(5)
    assert (p.n, len(_edges(p))) == (10, 15)
    assert all(len(nbrs) == 3 for nbrs in p.adjlist)
    assert set(_edges(p)).isdisjoint(set(_edges(j5)))
    assert len(_edges(p)) + len(_edges(j5)) == 45
    # no triangles
    for u, v in _edges(p):
        assert not set(p.adjlist[u]) & set(p.adjlist[v])


def test_plain_reference_graphs():
    k4 = complete_graph(4)
    assert (k4.n, len(_edges(k4))) == (4, 6)
    c5 = cycle_graph(5)
    assert (c5.n, len(_edges(c5))) == (5, 5)
    assert all(len(nbrs) == 2 for nbrs in c5.adjlist)
    p4 = path_graph(4)
    assert (p4.n, len(_edges(p4))) == (4, 3)
    g = SimpleGraph.from_edges(3, [(0, 1)], labels=["a", "b", "c"])
    assert g.adjlist == ((1,), (0,), ())
    assert g.labels == ("a", "b", "c")


def test_pair_complement_map_is_an_involution():
    m = pair_complement_map(4)
    assert sorted(m) == list(range(6))
    assert all(m[m[v]] == v for v in range(6))
    assert all(m[v] != v for v in range(6))
    with pytest.raises(ValueError):
        pair_complement_map(5)
