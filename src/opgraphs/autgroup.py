"""Graph automorphism groups via individualization and refinement.

Vertices are 0..n-1 and graphs enter as adjacency lists (tuple of
sorted neighbor tuples).  The search refines vertex colors with the
iterated neighborhood color multiset, individualizes inside the
smallest cell, and prunes with refinement traces plus the orbits of the
group found so far.  Every candidate permutation is verified against
the edge set before it is accepted, so pruning can only cost time,
never correctness.  Group orders come from a deterministic stabilizer
chain (Schreier-Sims); orders are exact integers.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from operator import itemgetter


class BudgetExceededError(RuntimeError):
    """The search tree outgrew the node budget."""


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


def adjacency_masks(adjlist):
    masks = []
    for nbrs in adjlist:
        m = 0
        for u in nbrs:
            m |= 1 << u
        masks.append(m)
    return masks


def is_automorphism(adjlist, perm, masks=None):
    """Edge set preserved in both directions."""
    n = len(adjlist)
    if sorted(perm) != list(range(n)):
        return False
    if masks is None:
        masks = adjacency_masks(adjlist)
    for v in range(n):
        img = 0
        for u in adjlist[v]:
            img |= 1 << perm[u]
        if img != masks[perm[v]]:
            return False
    return True


class StabChain:
    """Deterministic incremental Schreier-Sims stabilizer chain.

    `orbits[l][x]` holds the inverse u_x^-1 of the transversal element
    u_x that sends base[l] to x, so sifting composes and never inverts.
    Transversal entries are never rewritten once discovered, so the
    per-level record of already-verified Schreier generators stays
    valid as the chain grows.

    `known_order`, when given, must be an upper bound on the order of
    the group the added elements generate.  The product of the basic
    orbit lengths is a lower bound at every stage, so once it reaches
    `known_order` the chain is a complete base and strong generating
    set and closure stops there.
    """

    def __init__(self, n, base=(), known_order=None):
        self.n = n
        self.identity = identity_perm(n)
        self.known_order = known_order
        self.base = list(base)
        self.gens = [[] for _ in self.base]
        self.gens_inv = [[] for _ in self.base]
        self.orbits = [{b: self.identity} for b in self.base]
        self._done = [set() for _ in self.base]

    def order(self):
        out = 1
        for tr in self.orbits:
            out *= len(tr)
        return out

    def _extend_orbit(self, l):
        """Grow the level-l orbit in place under the current generators."""
        tr = self.orbits[l]
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

    def strip(self, g):
        for l in range(len(self.base)):
            x = g[self.base[l]]
            tr = self.orbits[l]
            if x not in tr:
                return g, l
            g = compose(tr[x], g)
        return g, len(self.base)

    def contains(self, g):
        h, _ = self.strip(tuple(g))
        return h == self.identity

    def _append_gen(self, h, l):
        """Record h as a generator at levels 0..l, extending the base if needed."""
        if l == len(self.base):
            moved = min(x for x in range(self.n) if h[x] != x)
            self.base.append(moved)
            self.gens.append([])
            self.gens_inv.append([])
            self.orbits.append({moved: self.identity})
            self._done.append(set())
        h_inv = inverse(h)
        for k in range(l + 1):
            self.gens[k].append(h)
            self.gens_inv[k].append(h_inv)

    def add(self, g):
        """Extend the chain with g; returns True when the group grew."""
        h, l = self.strip(tuple(g))
        if h == self.identity:
            return False
        self._append_gen(h, l)
        self._close(l)
        return True

    def _close(self, start):
        """Verify Schreier generators until the chain is consistent.

        Every (orbit point, generator) pair is checked at most once per
        level; residuals that fail to strip become new generators and
        the scan restarts from the deepest level.  Stops early once the
        order reaches `known_order`.
        """
        level = min(start, len(self.base) - 1)
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

    def level_orbit(self, l, point):
        """Orbit of a point under the generators fixing base[:l]."""
        if l >= len(self.gens):
            return {point}
        gens = self.gens[l]
        seen = {point}
        queue = [point]
        while queue:
            x = queue.pop()
            for g in gens:
                y = g[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return seen

    def generators(self):
        return list(self.gens[0]) if self.gens else []


def refine_colors(adjlist, colors):
    """Canonical stable coloring from iterated neighbor color multisets."""
    n = len(adjlist)
    colors = list(colors)
    while True:
        sigs = []
        for v in range(n):
            cnt = Counter(colors[u] for u in adjlist[v])
            sigs.append((colors[v], tuple(sorted(cnt.items()))))
        order = {s: k for k, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        # each round refines the last, so an equal cell count means an
        # equal (hence equitable) partition, and one more round would
        # return `new` unchanged
        if len(order) == len(set(colors)):
            return new
        colors = new


def _target_cell(colors):
    """Smallest non-singleton color class, ties by color id; None if discrete."""
    cells = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    best = None
    for c in sorted(cells):
        vs = cells[c]
        if len(vs) > 1 and (best is None or len(vs) < len(best[1])):
            best = (c, vs)
    return None if best is None else best[1]


def _partition_shape(colors):
    return tuple(sorted(Counter(colors).items()))


def _individualize(adjlist, colors, v):
    child = list(colors)
    child[v] = -1
    return refine_colors(adjlist, child)


def _leaf_order(colors):
    n = len(colors)
    out = [0] * n
    for v, c in enumerate(colors):
        out[c] = v
    return out


def automorphism_group(adjlist, known_generators=(), node_budget=2_000_000):
    """Generators and exact order of the automorphism group.

    Optional known automorphisms seed the stabilizer chain; they are
    verified first and the search still proves the final group is the
    whole automorphism group.  Returns a StabChain.
    """
    n = len(adjlist)
    if n == 0:
        return StabChain(n)
    adjlist = tuple(tuple(sorted(u)) for u in adjlist)
    masks = adjacency_masks(adjlist)

    root = refine_colors(adjlist, [0] * n)

    # leftmost descent fixes the base, the first leaf, and the trace
    first_trace = []
    first_choices = []
    colors = root
    while True:
        cell = _target_cell(colors)
        if cell is None:
            break
        v = min(cell)
        first_choices.append(v)
        colors = _individualize(adjlist, colors, v)
        first_trace.append(_partition_shape(colors))
    first_leaf = _leaf_order(colors)
    first_leaf_inv = inverse(tuple(first_leaf))

    # the discrete leaf coloring pins every vertex, so the first-path
    # choices form a base; seeding it keeps orbit pruning aligned with
    # the stabilizers of first-path prefixes
    chain = StabChain(n, base=first_choices)
    for g in known_generators:
        g = tuple(g)
        if not is_automorphism(adjlist, g, masks):
            raise ValueError("known generator is not an automorphism")
        chain.add(g)

    nodes = 0

    def descend(colors, depth, on_first_path):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(f"automorphism search exceeded {node_budget} nodes")
        cell = _target_cell(colors)
        if cell is None:
            if on_first_path:
                return False
            leaf = _leaf_order(colors)
            g = compose(tuple(leaf), first_leaf_inv)
            if is_automorphism(adjlist, g, masks) and chain.add(g):
                return True
            return False
        first_v = first_choices[depth] if on_first_path else None
        processed = []
        for v in sorted(cell):
            if on_first_path and v != first_v:
                # skip branches equivalent to an explored one under the
                # group found so far (orbits in the stabilizer of the
                # first-path prefix)
                skip = False
                for u in processed:
                    if v in chain.level_orbit(depth, u):
                        skip = True
                        break
                if skip:
                    processed.append(v)
                    continue
            child = _individualize(adjlist, colors, v)
            if on_first_path and v == first_v:
                descend(child, depth + 1, True)
                processed.append(v)
                continue
            if _partition_shape(child) != first_trace[depth]:
                processed.append(v)
                continue
            found = descend(child, depth + 1, False)
            processed.append(v)
            if found and not on_first_path:
                return True
        return False

    descend(root, 0, True)
    return chain


def brute_force_order(adjlist):
    """Filter all vertex permutations; intended for graphs with <= 8 vertices."""
    n = len(adjlist)
    if n > 8:
        raise ValueError("brute force capped at 8 vertices")
    masks = adjacency_masks(adjlist)
    count = 0
    for p in permutations(range(n)):
        if is_automorphism(adjlist, p, masks):
            count += 1
    return count


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
