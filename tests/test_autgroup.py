"""Permutation machinery and the automorphism-group engine.

Frozen group orders: K4 -> 24, C5 -> 10 (dihedral), P4 -> 2, the pair
graphs of 3/4/5 points -> 6, 48, 120, Petersen -> 120.  Every order is
cross-checked against an independent exhaustive counter.
"""

import random
from collections import Counter, defaultdict
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgraphs import autgroup
from opgraphs.autgroup import (
    BudgetExceededError,
    StabChain,
    automorphism_group,
    backtracking_order,
    compose,
    identity_perm,
    inverse,
    _individualize,
    _target_cell,
    is_automorphism,
    refine_colors,
    twin_classes,
)
from opgraphs.graphs import LabeledGraph, johnson_graph, petersen_graph
from opgraphs.starfield import galois_field
from tests.conftest import signature
from tests.oracles import (brute_force_order, chain_contains, chain_generators,
                           complete_graph, cycle_graph, mask_is_automorphism,
                           path_graph)


def perms(n):
    return st.permutations(list(range(n))).map(tuple)


def test_permutation_laws():
    # n = 0 and 1 take compose's fallback; itemgetter starts at n = 2
    for n in (0, 1, 2, 6):
        @given(perms(n), perms(n), perms(n))
        def run(p, q, r):
            e = identity_perm(n)
            assert compose(p, e) == p
            assert compose(e, p) == p
            assert compose(p, inverse(p)) == e
            assert compose(inverse(p), p) == e
            assert compose(compose(p, q), r) == compose(p, compose(q, r))
            # compose applies the right factor first
            assert all(compose(p, q)[x] == p[q[x]] for x in range(n))
            assert type(compose(p, q)) is tuple

        run()


def test_is_automorphism_basics():
    c4 = cycle_graph(4)
    rot = (1, 2, 3, 0)
    assert is_automorphism(c4.adjlist, rot)
    assert is_automorphism(c4.adjlist, identity_perm(4))
    p4 = path_graph(4)
    assert is_automorphism(p4.adjlist, (3, 2, 1, 0))
    assert not is_automorphism(p4.adjlist, (1, 2, 3, 0))
    assert not is_automorphism(p4.adjlist, (1, 0, 2, 3))


@st.composite
def graphs_with_a_symmetry(draw):
    """A graph on up to 8 vertices, unsorted neighbor lists of it, and
    a permutation g whose edge orbits make up the edge set, so that g is
    an automorphism."""
    n = draw(st.integers(0, 8))
    g = draw(perms(n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seeds = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [set() for _ in range(n)]
    for u, v in seeds:
        while v not in adj[u]:
            adj[u].add(v)
            adj[v].add(u)
            u, v = g[u], g[v]
    shuffled = [draw(st.permutations(sorted(a))) for a in adj]
    return tuple(tuple(sorted(a)) for a in adj), shuffled, g


@settings(max_examples=200, deadline=None)
@given(graphs_with_a_symmetry(), perms(8))
def test_is_automorphism_matches_the_mask_oracle(graph, shuffle):
    adjlist, shuffled, g = graph
    n = len(adjlist)
    # a drawn permutation of the vertices, mostly not an automorphism
    p = tuple(x for x in shuffle if x < n)
    candidates = [g, compose(g, g), p, compose(p, g),
                  g + (n,), g[:-1], g[1:2] + g[1:]]
    for adj in (adjlist, shuffled):
        assert is_automorphism(adj, g) and is_automorphism(adj, compose(g, g))
        for perm in candidates:
            assert is_automorphism(adj, perm) == mask_is_automorphism(adj, perm)
        # a wrong length, and a repeated image where there are two points
        assert not is_automorphism(adj, g + (n,))
        assert n < 2 or not is_automorphism(adj, g[1:2] + g[1:])


FIXTURES = [
    ("complete 4", complete_graph(4), 24),
    ("cycle 5", cycle_graph(5), 10),
    ("path 4", path_graph(4), 2),
    ("pairs of 3", johnson_graph(3), 6),
    ("pairs of 4", johnson_graph(4), 48),
    ("pairs of 5", johnson_graph(5), 120),
    ("petersen", petersen_graph(), 120),
    ("cycle 6", cycle_graph(6), 12),
]


@pytest.mark.parametrize("name,graph,order", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_engine_matches_frozen_orders(name, graph, order):
    chain = automorphism_group(graph.adjlist)
    assert chain.order() == order
    for g in chain.generators():
        assert is_automorphism(graph.adjlist, g)


@pytest.mark.parametrize("name,graph,order", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_independent_oracles_agree(name, graph, order):
    if graph.n <= 8:
        assert brute_force_order(graph.adjlist) == order
    assert backtracking_order(graph.adjlist) == order


def test_brute_force_is_capped():
    with pytest.raises(ValueError):
        brute_force_order(petersen_graph().adjlist)


def test_known_generators_seed_the_search():
    p = petersen_graph()
    chain = automorphism_group(p.adjlist)
    g = next(x for x in chain.generators() if x != identity_perm(10))
    seeded = automorphism_group(p.adjlist, known_generators=[g])
    assert seeded.order() == 120
    assert g in seeded.generators()
    closed = StabChain(10)
    closed.close(seeded.generators())
    assert closed.order() == 120


def test_known_generators_are_verified():
    with pytest.raises(ValueError):
        automorphism_group(path_graph(4).adjlist, known_generators=[(1, 0, 2, 3)])


@st.composite
def small_graphs(draw):
    n = draw(st.integers(0, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return tuple(tuple(sorted(a)) for a in adj)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.data())
def test_search_order_matches_brute_force(adjlist, data):
    n = len(adjlist)
    want = brute_force_order(adjlist)
    group = automorphism_group(adjlist)
    assert group.order() == want
    closed = StabChain(n)
    for g in group.generators():
        assert is_automorphism(adjlist, g)
        closed.close([g])
    assert closed.order() == want
    # any verified automorphisms may seed the search without moving the order
    auts = [p for p in permutations(range(n)) if is_automorphism(adjlist, p)]
    known = data.draw(st.lists(st.sampled_from(auts), max_size=4))
    seeded = automorphism_group(adjlist, known_generators=known)
    assert seeded.order() == want
    assert seeded.generators()[:len(known)] == known


@st.composite
def twin_blowups(draw):
    """A graph on at most 5 vertices with each vertex replaced by a
    clique of 1-4 closed twins, at most 8 vertices in all so that the
    exhaustive count stays cheap, relabeled by a drawn permutation."""
    k = draw(st.integers(1, 5))
    sizes = []
    for v in range(k):
        room = 8 - sum(sizes) - (k - 1 - v)
        sizes.append(draw(st.integers(1, min(4, room))))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = set(draw(st.lists(st.sampled_from(pairs), unique=True))
                if pairs else [])
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    n = len(block)
    label = draw(perms(n))
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if block[u] == block[v] or (block[u], block[v]) in edges:
                adj[label[u]].add(label[v])
                adj[label[v]].add(label[u])
    return tuple(tuple(sorted(a)) for a in adj)


@settings(max_examples=60, deadline=None)
@given(twin_blowups(), st.data())
def test_twin_quotient_matches_backtracking(adjlist, data):
    n = len(adjlist)
    closed = {}
    for v in range(n):
        closed.setdefault(tuple(sorted((v, *adjlist[v]))), []).append(v)
    assert twin_classes(adjlist) == sorted(closed.values())
    want = backtracking_order(adjlist)
    group = automorphism_group(adjlist)
    assert group.order() == prod(group.orbit_sizes) == want
    gens = group.generators()
    assert all(is_automorphism(adjlist, g) for g in gens)
    # the base and its orbit lengths are a stabilizer chain's
    chain = StabChain(n, base=group.base)
    chain.close(gens)
    assert chain.order() == want
    assert chain.base == list(group.base)
    assert [len(tr) for tr in chain.orbits] == list(group.orbit_sizes)
    # seeded, the known orbits are the known generators' own chain
    known = data.draw(st.lists(st.sampled_from(gens), max_size=3)
                      if gens else st.just([]))
    seeded = automorphism_group(adjlist, known_generators=known)
    own = StabChain(n)
    own.close(known)
    assert prod(seeded.known_orbit_sizes) == own.order()
    assert seeded.order() == want
    assert seeded.generators()[:len(known)] == known


def twin_preserving_perm(classes, rnd):
    """A permutation that maps each twin class onto a class of the same
    size: the classes of each size permuted, their members shuffled."""
    g = [0] * sum(map(len, classes))
    by_size = defaultdict(list)
    for T in classes:
        by_size[len(T)].append(T)
    for same in by_size.values():
        for T, U in zip(same, rnd.sample(same, len(same))):
            for v, w in zip(T, rnd.sample(U, len(U))):
                g[v] = w
    return tuple(g)


@settings(max_examples=60, deadline=None)
@given(twin_blowups(), st.randoms(use_true_random=False))
def test_twin_path_check_agrees_with_is_automorphism(adjlist, rnd):
    # such a permutation passes the class check, so the quotient search
    # decides it, and it must decide as the check on G does
    g = twin_preserving_perm(twin_classes(adjlist), rnd)
    if is_automorphism(adjlist, g):
        group = automorphism_group(adjlist, known_generators=[g])
        assert group.generators()[0] == g
    else:
        with pytest.raises(ValueError, match="not an automorphism"):
            automorphism_group(adjlist, known_generators=[g])


@pytest.mark.parametrize("dims", [(1, 3), (1, 2)], ids=["K40", "GF(4)^3 1,2"])
def test_twin_path_checks_known_generators_without_reading_arcs(
        dims, monkeypatch):
    adj = LabeledGraph.build(
        signature(galois_field(2, 1), ("0", "1"), dims)).adjacency()
    rnd = random.Random(0)
    known = [twin_preserving_perm(twin_classes(adj), rnd) for _ in range(5)]
    assert all(is_automorphism(adj, g) for g in known)
    sizes = []
    real = autgroup.is_automorphism

    def counted(adjlist, perm):
        sizes.append(len(adjlist))
        return real(adjlist, perm)

    monkeypatch.setattr(autgroup, "is_automorphism", counted)
    group = automorphism_group(adj, known_generators=known)
    # one class of closed twins: only the one-vertex quotient is checked
    assert sizes == [1] * len(known)
    assert group.generators()[:len(known)] == known


@pytest.mark.parametrize("adj, g", [
    # N[0] = N[1] = {0, 1, 2}: the twin classes are {0, 1}, {2}, {3}
    (((1, 2), (0, 2), (0, 1, 3), (2,)), (0, 3, 2, 1)),
    (((1, 2), (0, 2), (0, 1, 3), (2,)), (0, 1, 2)),
    # two twin pairs: g moves each class's least member within its
    # class, so the quotient sees the identity, and splits both
    (((1,), (0,), (3,), (2,)), (0, 2, 3, 1)),
], ids=["split", "short", "split-behind-the-quotient"])
def test_twin_path_refuses_a_generator_that_splits_a_class(adj, g):
    assert len(twin_classes(adj)) < len(adj)
    assert not is_automorphism(adj, g)
    with pytest.raises(ValueError, match="not an automorphism"):
        automorphism_group(adj, known_generators=[g])


def test_budget_exhaustion_raises():
    with pytest.raises(BudgetExceededError):
        automorphism_group(petersen_graph().adjlist, node_budget=2)


def test_stabchain_symmetric_group():
    rng = random.Random(43)
    for n in (3, 4, 5, 6):
        chain = StabChain(n)
        for a in range(n - 1):
            t = list(range(n))
            t[a], t[a + 1] = t[a + 1], t[a]
            chain.close([tuple(t)])
        want = 1
        for m in range(2, n + 1):
            want *= m
        assert chain.order() == want
        # membership: any product of transpositions is inside
        p = list(range(n))
        rng.shuffle(p)
        assert chain_contains(chain, p)


def test_stabchain_membership_boundary():
    # the group moving only {0, 1, 2} inside S4
    chain = StabChain(4)
    chain.close([(1, 0, 2, 3), (0, 2, 1, 3)])
    assert chain.order() == 6
    assert chain_contains(chain, (2, 0, 1, 3))
    assert not chain_contains(chain, (0, 1, 3, 2))
    residue, _ = chain.strip((0, 1, 3, 2))
    assert residue != chain.identity
    residue, _ = chain.strip((2, 0, 1, 3))
    assert residue == chain.identity


def test_stabchain_trivial_group():
    chain = StabChain(5)
    assert chain.order() == 1
    assert chain_contains(chain, identity_perm(5))
    assert not chain_contains(chain, (1, 0, 2, 3, 4))


def test_refine_colors_separates_degrees():
    p4 = path_graph(4)
    colors = refine_colors(p4.adjlist, [0] * 4)
    # ends and middles get different colors
    assert colors[0] == colors[3]
    assert colors[1] == colors[2]
    assert colors[0] != colors[1]
    pet = petersen_graph()
    colors = refine_colors(pet.adjlist, [0] * 10)
    assert len(set(colors)) == 1  # vertex-transitive: refinement alone stalls


def closure(n, gens):
    """Every element of the group the permutations generate, by BFS."""
    seen = {identity_perm(n)}
    queue = list(seen)
    while queue:
        x = queue.pop()
        for g in gens:
            y = compose(g, x)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


@st.composite
def small_groups(draw):
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(perms(n), min_size=1, max_size=3))
    probes = draw(st.lists(perms(n), max_size=6))
    return n, gens, probes


@settings(max_examples=60, deadline=None)
@given(small_groups())
def test_stabchain_matches_bfs_closure(group):
    n, gens, probes = group
    elements = closure(n, gens)
    # closed one generator at a time, the chain has the order of the
    # group of the generators so far, short of the final known order
    plain = StabChain(n)
    stopped = StabChain(n, known_order=len(elements))
    for k, g in enumerate(gens):
        plain.close([g])
        stopped.close([g])
        assert plain.order() == stopped.order() == len(closure(n, gens[:k + 1]))
    # the known-order closure stops at the true order; at twice the true
    # order, or without one, it checks every Schreier generator and
    # leaves the exact order
    known = StabChain(n, known_order=len(elements))
    unreached = StabChain(n, known_order=2 * len(elements))
    whole = StabChain(n)
    for chain in (known, unreached, whole):
        chain.close(gens)
    assert plain.order() == stopped.order() == len(elements)
    assert known.order() == unreached.order() == whole.order() == len(elements)
    again = StabChain(n, known_order=len(elements))
    again.close(gens)
    assert ((again.base, chain_generators(again))
            == (known.base, chain_generators(known)))
    for chain in (plain, stopped, known, unreached, whole):
        # orbits hold inverse transversal elements: u_x^-1 sends x to
        # the base point and fixes the earlier base points
        for l, tr in enumerate(chain.orbits):
            for x, t in tr.items():
                assert t[x] == chain.base[l]
                assert all(t[b] == b for b in chain.base[:l])
        if chain.base:
            # level 0 holds the base point's whole orbit under the group
            assert set(chain.orbits[0]) == {g[chain.base[0]] for g in elements}
        assert chain.order() == prod(map(len, chain.orbits))
        assert all(chain_contains(chain, g) for g in elements)
        for p in probes:
            assert chain_contains(chain, p) == (p in elements)


def refine_to_fixpoint(adjlist, colors):
    """The refinement loop that stops only on a repeated colouring; the
    oracle for `refine_colors`, which stops one round earlier."""
    n = len(adjlist)
    colors = list(colors)
    while True:
        sigs = []
        for v in range(n):
            cnt = Counter(colors[u] for u in adjlist[v])
            sigs.append((colors[v], tuple(sorted(cnt.items()))))
        order = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return new
        colors = new


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    # color values with gaps: refinement ranks them and never indexes by them
    colors = draw(st.lists(st.sampled_from((-1, 0, 2, 5)), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        colors[draw(st.integers(0, n - 1))] = -1   # individualised
    return tuple(tuple(sorted(a)) for a in adj), colors


@settings(max_examples=200, deadline=None)
@given(colored_graphs())
def test_refine_colors_matches_the_fixpoint_loop(graph):
    adjlist, colors = graph
    assert refine_colors(adjlist, colors) == refine_to_fixpoint(adjlist, colors)


def individualized(colors, v):
    child = list(colors)
    child[v] = -1
    return child


@st.composite
def circulant_graphs(draw):
    """Uniformly colored circulants: vertex-transitive, so individualizing
    does all the splitting and the cascades run several rounds."""
    n = draw(st.integers(1, 14))
    steps = draw(st.sets(st.integers(1, n // 2))) if n > 1 else set()
    adj = [{(u + d) % n for d in steps} | {(u - d) % n for d in steps}
           for u in range(n)]
    return tuple(tuple(sorted(a)) for a in adj), [0] * n


@settings(max_examples=200, deadline=None)
@given(st.one_of(colored_graphs(), circulant_graphs()), st.data())
def test_individualize_matches_the_fixpoint_loop(graph, data):
    # `_individualize` refines only against the cells that split, starting
    # from {v}; the full recount from the child coloring is the oracle
    adjlist, colors = graph
    colors = refine_to_fixpoint(adjlist, colors)
    for _ in range(data.draw(st.integers(1, 4))):
        sizes = Counter(colors)
        open_vertices = [v for v, c in enumerate(colors) if sizes[c] > 1]
        if not open_vertices:
            break
        v = data.draw(st.sampled_from(open_vertices))
        child = _individualize(adjlist, colors, v)
        assert child == refine_to_fixpoint(adjlist, individualized(colors, v))
        colors = child


def check_first_path(adjlist, step=1):
    """Individualize every step-th vertex of each target cell on the
    leftmost descent, against the full recount."""
    colors = refine_colors(adjlist, [0] * len(adjlist))
    while (cell := _target_cell(colors)) is not None:
        for v in cell[::step]:
            assert (_individualize(adjlist, colors, v)
                    == refine_to_fixpoint(adjlist, individualized(colors, v)))
        colors = _individualize(adjlist, colors, cell[0])


def test_individualize_on_petersen_and_johnson():
    check_first_path(petersen_graph().adjlist)
    check_first_path(johnson_graph(6).adjlist)


def test_individualize_on_the_flagship(flagship_graph):
    check_first_path(flagship_graph.adjacency(), step=7)


@settings(max_examples=100, deadline=None)
@given(st.one_of(colored_graphs(), circulant_graphs()))
def test_known_group_chain_prunes_without_moving_the_order(graph):
    adjlist, _ = graph
    n = len(adjlist)
    group = automorphism_group(adjlist)
    want = group.order()
    if n <= 8:
        assert want == brute_force_order(adjlist)
    gens = group.generators()
    # seeded with the whole group, every level knows its orbits up front
    seeded = automorphism_group(adjlist, known_generators=gens)
    assert seeded.order() == want
    assert seeded.nodes <= group.nodes
    assert seeded.known_orbit_sizes == seeded.orbit_sizes
    assert seeded.generators()[:len(gens)] == gens
    # a known order below the truth stops the closure early and only
    # prunes less
    low = automorphism_group(adjlist, known_generators=gens, known_order=1)
    assert low.order() == want
    assert low.nodes <= group.nodes
    # without a known order the closure is exact Schreier-Sims
    added = StabChain(n)
    for g in gens:
        added.close([g])
    for closed in (StabChain(n), StabChain(n, base=group.base)):
        closed.close(gens)
        assert closed.order() == added.order() == want
        assert all(chain_contains(closed, g) for g in chain_generators(added))
        assert all(chain_contains(added, g) for g in chain_generators(closed))
    assert closed.base == list(group.base)
