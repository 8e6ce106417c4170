"""Graph automorphism groups via individualization and refinement.

Vertices are 0..n-1 and graphs enter as adjacency lists (tuple of
sorted neighbor tuples).  Closed twins are quotiented out first, and
their symmetric groups multiplied back in.  The search refines vertex
colors with the iterated neighborhood color multiset, individualizes
inside the smallest cell, and prunes with refinement traces plus the
orbits of the automorphisms found so far.  Refinement after an
individualization recounts only the arcs out of the cells that just
split, and gives exactly the coloring of a full recount.  A candidate
permutation is accepted only if it maps each vertex's neighborhood
onto its image's.
The group order is read off the search tree: the product, over the
first path, of the orbit length of each individualized vertex under the
automorphisms fixing the ones before it (McKay, "Practical graph
isomorphism", 1981).  Known automorphisms are sifted into a
Schreier-Sims chain on the search base, closed up to a known order;
its orbit lengths give the order they generate, which certifies the
induced group, and each level merges its strong generators that fix
the base points before it.  Stabilizer chains also certify isometry
generators and serve the oracles; orders are exact integers.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from math import prod
from operator import itemgetter


# the default search tree node budget
NODE_BUDGET = 2_000_000


class BudgetExceededError(RuntimeError):
    """The search tree outgrew the node budget; `nodes` were searched."""

    def __init__(self, nodes):
        super().__init__(f"automorphism search exceeded {nodes} nodes")
        self.nodes = nodes


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """Apply q first, then p."""
    if len(q) < 2:
        # itemgetter needs an index, and returns a bare item for one
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def is_automorphism(adjlist, perm):
    """A permutation that maps each vertex's neighborhood onto its
    image's: injective, and into a neighborhood of the same size."""
    n = len(adjlist)
    if sorted(perm) != list(range(n)):
        return False
    image = perm.__getitem__
    for v, w in enumerate(perm):
        nbrs = adjlist[w]
        if (len(adjlist[v]) != len(nbrs)
                or not set(nbrs).issuperset(map(image, adjlist[v]))):
            return False
    return True


class StabChain:
    """Schreier-Sims stabilizer chain.

    `close` sifts a generating set in and then checks the Schreier
    generators once.

    `orbits[l][x]` holds the inverse u_x^-1 of the transversal element
    u_x that sends base[l] to x, so sifting composes and never inverts.
    Transversal entries are never rewritten once discovered, so the
    per-level record of already-verified Schreier generators stays
    valid as the chain grows.

    `known_order`, when given, must be an upper bound on the order of
    the group the closed elements generate.  The product of the basic
    orbit lengths is a lower bound at every stage, so once it reaches
    `known_order` the chain is a complete base and strong generating
    set and closure stops there.

    `base`, when given, presets the first levels in that order; a
    residue that fixes all of them extends the base as usual.  `strip`
    skips the levels whose base point the residue fixes, and `order()`
    reads a product of the orbit lengths kept up to date as orbits grow,
    so a long preset base costs little where it is not moved.
    """

    def __init__(self, n, known_order=None, base=()):
        self.n = n
        self.identity = identity_perm(n)
        self.known_order = known_order
        self.base = []
        self.gens = []
        self.gens_inv = []
        self.orbits = []
        self._done = []
        self._order = 1
        for b in base:
            self._new_level(b)

    def order(self):
        return self._order

    def _extend_orbit(self, l):
        """Grow the level-l orbit in place under the current generators."""
        tr = self.orbits[l]
        before = len(tr)
        pairs = list(zip(self.gens[l], self.gens_inv[l]))
        frontier = list(tr)
        while frontier:
            x = frontier.pop()
            tx = tr[x]
            for g, g_inv in pairs:
                y = g[x]
                if y not in tr:
                    tr[y] = compose(tx, g_inv)
                    frontier.append(y)
        self._order = self._order // before * len(tr)

    def strip(self, g):
        for l, b in enumerate(self.base):
            x = g[b]
            if x == b:
                # u_b is the identity
                continue
            tr = self.orbits[l]
            if x not in tr:
                return g, l
            g = compose(tr[x], g)
        return g, len(self.base)

    def _new_level(self, b):
        self.base.append(b)
        self.gens.append([])
        self.gens_inv.append([])
        self.orbits.append({b: self.identity})
        self._done.append(set())

    def _append_gen(self, h, l):
        """Record h as a generator at levels 0..l, extending the base if needed."""
        if l == len(self.base):
            self._new_level(min(x for x in range(self.n) if h[x] != x))
        h_inv = inverse(h)
        for k in range(l + 1):
            self.gens[k].append(h)
            self.gens_inv[k].append(h_inv)

    def close(self, gens):
        """Close the chain over `gens`, stopping at `known_order` if set.

        Each generator is sifted in and the orbits its residue reaches
        are extended; no Schreier generator is checked yet.  Then, if
        any residue was new, the deterministic closure runs from the
        deepest level, and returns at its first check when the order
        already equals `known_order`.

        Every residue is a word in `gens`, so `order()` is a lower bound
        on the order of the group they generate, and `known_order` must
        be an upper bound; equality certifies a complete base and strong
        generating set (Seress, "Permutation Group Algorithms", 2003,
        section 4.3).  Short of it, or without `known_order`, the
        closure checks Schreier generators at every level until the
        order reaches `known_order` or none is left, so the order it
        leaves is exact.
        """
        grew = False
        for g in gens:
            h, l = self.strip(tuple(g))
            if h != self.identity:
                grew = True
                self._append_gen(h, l)
                for k in range(l + 1):
                    self._extend_orbit(k)
        if grew:
            self._close()

    def _close(self):
        """Verify Schreier generators until the chain is consistent.

        Every (orbit point, generator) pair is checked at most once per
        level; residuals that fail to strip become new generators and
        the scan restarts from the deepest level.  Stops early once the
        order reaches `known_order`.
        """
        level = len(self.base) - 1
        while level >= 0:
            self._extend_orbit(level)
            if (self.known_order is not None
                    and self.order() >= self.known_order):
                return
            tr = self.orbits[level]
            gens = self.gens[level]
            done = self._done[level]
            dirty = False
            for x in sorted(tr):
                tx = None
                for gi in range(len(gens)):
                    if (x, gi) in done:
                        continue
                    done.add((x, gi))
                    if tx is None:
                        tx = inverse(tr[x])
                    s = gens[gi]
                    schreier = compose(tr[s[x]], compose(s, tx))
                    if schreier == self.identity:
                        continue
                    h, hl = self.strip(schreier)
                    if h == self.identity:
                        continue
                    self._append_gen(h, hl)
                    dirty = True
                    break
                if dirty:
                    break
            if dirty:
                level = len(self.base) - 1
            else:
                level -= 1


def refine_colors(adjlist, colors, _split=None):
    """Canonical stable coloring from iterated neighbor color multisets.

    Each round gives every vertex the signature (color, sorted counts of
    its neighbors' colors) and recolors it by the signature's rank, so a
    cell splits into consecutive ids.  The first round counts every arc,
    since the vertices of one input cell may differ even in degree.
    After it, the vertices of a cell agree on their counts over the
    previous round's cells, so they can differ only over the sub-cells
    of a cell that just split, and the last of those is fixed by the
    others.  A later round counts only the arcs out of the other
    sub-cells (McKay & Piperno, "Practical graph isomorphism, II",
    2014) and ends each vertex's counts with a sentinel above every
    (color, count) pair.  Two vertices of a cell first differ at a
    counted color; where one of them has no neighbor there, its next
    pair or the sentinel sorts higher, as its next pair does in the
    full signature.  So the coloring is exactly the full recount's.

    `_split`, the sub-cells to count (vertex lists in color order),
    says that `colors` splits an equitable coloring, and makes the
    first round incremental too.
    """
    n = len(adjlist)
    colors = list(colors)
    cells = len(set(colors))
    end = (n,)
    while True:
        if _split is None:
            sigs = [(c, tuple(sorted(Counter(colors[u] for u in adjlist[v]).items())))
                    for v, c in enumerate(colors)]
        else:
            rows = defaultdict(list)
            # sub-cells in color order, so every row comes out sorted
            for cell in _split:
                c = colors[cell[0]]
                arcs = Counter(chain.from_iterable(map(adjlist.__getitem__, cell)))
                for w, k in arcs.items():
                    rows[w].append((c, k))
            sigs = [(c, (end,)) for c in colors]
            for w, row in rows.items():
                row.append(end)
                sigs[w] = (colors[w], tuple(row))
        keys = sorted(set(sigs))
        rank = {s: k for k, s in enumerate(keys)}
        new = [rank[s] for s in sigs]
        # each round refines the last, so an equal cell count means an
        # equal (hence equitable) partition, and one more round would
        # return `new` unchanged
        if len(keys) == cells:
            return new
        # the sub-cells of each split cell, all but the last
        split = {k: [] for k in range(len(keys) - 1) if keys[k][0] == keys[k + 1][0]}
        for v, c in enumerate(new):
            if c in split:
                split[c].append(v)
        _split = split.values()
        colors = new
        cells = len(keys)


def _target_cell(colors):
    """Smallest non-singleton color class, ties by color id; None if discrete."""
    best = min(((k, c) for c, k in Counter(colors).items() if k > 1), default=None)
    if best is None:
        return None
    return [v for v, c in enumerate(colors) if c == best[1]]


def _partition_shape(colors):
    return tuple(sorted(Counter(colors).items()))


def _individualize(adjlist, colors, v):
    """Refine `colors`, an equitable coloring, with v in a new cell."""
    child = list(colors)
    # {v} sorts first; the rest of its cell is the last sub-cell
    child[v] = -1
    return refine_colors(adjlist, child, _split=[(v,)])


def _leaf_order(colors):
    n = len(colors)
    out = [0] * n
    for v, c in enumerate(colors):
        out[c] = v
    return out


class AutomorphismGroup:
    """What the search proves about Aut(G).

    `base` is the first path's individualized vertices, so only the
    identity fixes all of them.  `orbit_sizes[d]` is the length of the
    orbit of base[d] under the automorphisms fixing base[:d], and the
    order is their product (orbit-stabilizer).  `known_orbit_sizes` are
    the same lengths for the group the known generators generate.
    `nodes` counts the search nodes used against the budget.
    """

    __slots__ = ("base", "orbit_sizes", "known_orbit_sizes", "nodes",
                 "_generators")

    def __init__(self, base, orbit_sizes, known_orbit_sizes, generators,
                 nodes):
        self.base = tuple(base)
        self.orbit_sizes = tuple(orbit_sizes)
        self.known_orbit_sizes = tuple(known_orbit_sizes)
        self._generators = tuple(generators)
        self.nodes = nodes

    def order(self):
        return prod(self.orbit_sizes)

    def generators(self):
        return list(self._generators)


def twin_classes(adjlist):
    """The closed-twin classes: vertices with equal closed neighborhoods
    N[v], each class sorted, the classes ordered by least member.

    Vertices are grouped by degree and the hash of N[v], then each group
    is split by comparing the neighborhoods themselves, so at most one
    group's distinct neighborhoods are held at a time.
    """
    groups = defaultdict(list)
    for v, nbrs in enumerate(adjlist):
        groups[len(nbrs), hash(_closed_neighborhood(adjlist, v))].append(v)
    classes = []
    for group in groups.values():
        if len(group) == 1:
            classes.append(group)
            continue
        split = {}
        for v in group:
            split.setdefault(_closed_neighborhood(adjlist, v), []).append(v)
        classes.extend(split.values())
    return sorted(classes)


def _closed_neighborhood(adjlist, v):
    return tuple(sorted((v, *adjlist[v])))


def automorphism_group(adjlist, known_generators=(), known_order=None,
                       node_budget=NODE_BUDGET):
    """Generators and exact order of the automorphism group.

    Closed twins (`twin_classes`) are interchangeable, so Aut(G) is the
    product of the symmetric groups on the classes, extended by the
    automorphisms of the quotient Q on the classes that keep class
    sizes (McKay & Piperno, "Practical graph isomorphism, II", 2014).
    Without twins G is searched as it is.  Otherwise each known
    generator must map every class into one class, in O(n), and Q,
    colored by class size, is searched seeded with their actions on the
    classes, which it verifies: no arc of G is read.  Each generator
    found on Q is lifted by mapping the members of a class onto those
    of its image in sorted order; each class T of two or more adds the
    transposition of its two least members, and the |T|-cycle when
    |T| >= 3.  The base is the least member of each class on Q's base,
    with Q's orbit length times |T|, then every class's other members
    but its last, with orbit lengths counting down, so the order is
    |Aut(Q)| times the product of the |T|!.  The known generators are
    closed into a chain on that base, as in the search, for
    `known_orbit_sizes`, and `nodes` counts Q's search nodes.

    The known generators come first among the returned ones, which
    generate the whole group.  Returns an AutomorphismGroup.
    """
    n = len(adjlist)
    adjlist = tuple(tuple(sorted(u)) for u in adjlist)
    known = [tuple(g) for g in known_generators]
    classes = twin_classes(adjlist)
    if len(classes) == n:
        return _search(adjlist, [0] * n, known, known_order, node_budget)
    owner = [0] * n
    for i, T in enumerate(classes):
        for v in T:
            owner[v] = i
    # the search verifies that the images permute the classes, so each
    # class then goes onto one of its own size
    if not all(sorted(g) == list(range(n)) and all(
            owner[g[v]] == owner[g[T[0]]] for T in classes for v in T)
            for g in known):
        raise ValueError("known generator is not an automorphism")
    quotient = [tuple(sorted({owner[u] for u in adjlist[T[0]]} - {i}))
                for i, T in enumerate(classes)]
    sizes = [len(T) for T in classes]
    images = [tuple(owner[g[T[0]]] for T in classes) for g in known]
    # refinement ranks the sizes into colors
    q = _search(quotient, sizes, images, None, node_budget)

    lifted = []
    for h in q.generators()[len(images):]:
        g = [0] * n
        for T, i in zip(classes, h):
            # equal sizes: the search keeps its initial coloring
            for v, w in zip(T, classes[i], strict=True):
                g[v] = w
        lifted.append(tuple(g))
    twins = []
    for T in classes:
        if len(T) >= 2:
            g = list(range(n))
            g[T[0]], g[T[1]] = T[1], T[0]
            twins.append(tuple(g))
        if len(T) >= 3:
            g = list(range(n))
            for v, w in zip(T, T[1:] + T[:1]):
                g[v] = w
            twins.append(tuple(g))

    base = [classes[i][0] for i in q.base]
    orbit_sizes = [k * sizes[i] for i, k in zip(q.base, q.orbit_sizes)]
    on_base = set(q.base)
    for i, T in enumerate(classes):
        rest = T[1:] if i in on_base else T
        base.extend(rest[:-1])
        orbit_sizes.extend(range(len(rest), 1, -1))
    known_chain = StabChain(n, known_order, base=base)
    known_chain.close(known)
    return AutomorphismGroup(base, orbit_sizes,
                             [len(tr) for tr in known_chain.orbits],
                             known + lifted + twins, q.nodes)


def _search(adjlist, colors, known, known_order, node_budget):
    """The search of `automorphism_group` from an initial coloring,
    over the automorphisms that keep it.

    The first path (leftmost descent) fixes the base, the first leaf
    and the trace.  Its levels are then finished deepest first: level
    d searches each sibling of base[d] whose subtree may hold a leaf
    equivalent to the first one, and stops in a subtree at its first
    verified automorphism.  Such an automorphism fixes base[:d], so it
    joins one union-find of orbits shared by level d and every level
    above it; a sibling that is not the least vertex of its orbit is
    skipped.  When level d is done, the orbit of base[d] is the whole
    orbit under the stabilizer of base[:d], and the order is the
    product of these orbit lengths.

    The known automorphisms, which must keep `colors`, are verified and
    closed into a stabilizer chain on the search base, stopping at
    `known_order` if given (exact Schreier-Sims without it).  Level d
    merges the chain's strong generators that fix base[:d], so no
    sibling in the orbit of an earlier one under the known stabilizer
    is searched.  Every merged element is a product of verified
    automorphisms fixing base[:d], so a `known_order` below the truth
    only prunes less and never changes the order.
    """
    n = len(adjlist)
    nodes = 0

    def count_node():
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(node_budget)

    # the leftmost descent, kept level by level
    path = []
    first_trace = []
    colors = refine_colors(adjlist, colors)
    count_node()
    while (cell := _target_cell(colors)) is not None:
        path.append((colors, cell))
        colors = _individualize(adjlist, colors, min(cell))
        first_trace.append(_partition_shape(colors))
        count_node()
    base = [min(cell) for _, cell in path]
    first_leaf_inv = inverse(tuple(_leaf_order(colors)))

    if not all(is_automorphism(adjlist, g) for g in known):
        raise ValueError("known generator is not an automorphism")
    # only the identity automorphism fixes the whole base, so the chain
    # keeps exactly the search's levels; its transversals are dropped,
    # since the search needs only the strong generators
    known_chain = StabChain(n, known_order, base=base)
    known_chain.close(known)
    strong = known_chain.gens
    known_orbit_sizes = [len(tr) for tr in known_chain.orbits]
    del known_chain

    # orbits of the automorphisms merged so far; each class is rooted
    # at its least vertex
    parent = list(range(n))
    size = [1] * n

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def merge(g):
        for x, y in enumerate(g):
            rx, ry = find(x), find(y)
            if rx != ry:
                if ry < rx:
                    rx, ry = ry, rx
                parent[ry] = rx
                size[rx] += size[ry]

    found = []

    def subtree_automorphism(colors, depth):
        """Search below a first-path sibling until a leaf gives an automorphism."""
        count_node()
        cell = _target_cell(colors)
        if cell is None:
            g = compose(tuple(_leaf_order(colors)), first_leaf_inv)
            if not is_automorphism(adjlist, g):
                return False
            found.append(g)
            merge(g)
            return True
        for v in sorted(cell):
            child = _individualize(adjlist, colors, v)
            if (_partition_shape(child) == first_trace[depth]
                    and subtree_automorphism(child, depth + 1)):
                return True
        return False

    orbit_sizes = [1] * len(base)
    merged = set()
    for depth in reversed(range(len(base))):
        # strong[depth] holds strong[depth + 1]: merge each generator once
        for g in strong[depth]:
            if g not in merged:
                merged.add(g)
                merge(g)
        colors, cell = path[depth]
        for v in sorted(cell):
            # an orbit's least vertex is visited before the rest of it
            if v == base[depth] or find(v) != v:
                continue
            child = _individualize(adjlist, colors, v)
            if _partition_shape(child) == first_trace[depth]:
                subtree_automorphism(child, depth + 1)
        orbit_sizes[depth] = size[find(base[depth])]
    return AutomorphismGroup(base, orbit_sizes, known_orbit_sizes,
                             known + found, nodes)


def backtracking_order(adjlist):
    """Exhaustive backtracking count of automorphisms.

    Assigns images vertex by vertex, pruning assignments that break
    adjacency with any already-assigned vertex.  Exact, no refinement
    heuristics; usable as an independent oracle up to a few dozen
    vertices.
    """
    n = len(adjlist)
    adjsets = [set(u) for u in adjlist]
    degrees = [len(u) for u in adjlist]
    image = [-1] * n
    used = [False] * n
    count = 0

    def place(v):
        nonlocal count
        if v == n:
            count += 1
            return
        for w in range(n):
            if used[w] or degrees[w] != degrees[v]:
                continue
            ok = True
            for u in range(v):
                if (u in adjsets[v]) != (image[u] in adjsets[w]):
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
                image[v] = -1

    place(0)
    return count
