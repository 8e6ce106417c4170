"""Adjacency graphs of operator classes, plus small reference graphs.

The vertex set of a class graph is the set of eigen-flags; an edge
joins two flags exactly when their operators differ by a rank-two
perturbation with invariant image and kernel, which happens exactly
when the flags move two slots against each other.  Each edge carries
the pair of moved slots as its label.
"""

from __future__ import annotations

from itertools import combinations

from .constructions import orbit_class, projective_points, slot_hyperplanes


class TypeMapError(RuntimeError):
    """A vertex permutation does not act coherently on edge labels."""


def other_slots(form, *slots):
    """A point form with the given slots left out."""
    return tuple(ids for t, ids in enumerate(form) if t not in slots)


def _partition(keys):
    """Positions grouped by equal key: a sorted tuple of sorted tuples."""
    groups = {}
    for v, key in enumerate(keys):
        groups.setdefault(key, []).append(v)
    return tuple(sorted(map(tuple, groups.values())))


class LabeledGraph:
    """Finite class graph stored as `cliques`: (slot pair, sorted vertex
    tuple) per key of `build`, every edge in exactly one clique.  Each
    vertex is keyed by its point form (`forms`, as `orbit_class` returns
    them), and `form_index` maps a form back to its vertex; a flag built
    elsewhere is found through `constructions.point_form`.

    The slots of a flag are nondegenerate, mutually orthogonal and span
    the space, so X_i + X_j is the orthocomplement of the other slots:
    the partitions below are read off the forms, with no linear
    algebra."""

    def __init__(self, vertices, cliques, forms):
        self.vertices = tuple(vertices)
        self.cliques = tuple(cliques)
        self.forms = tuple(forms)
        self.form_index = {form: v for v, form in enumerate(self.forms)}
        self._adjlist = None
        self._cliques_at = None

    @classmethod
    def build(cls, signature):
        """Enumerate the class with its certified orbit walk and connect it.

        Two flags can only be adjacent when they agree on every slot
        but two, so candidates are bucketed by the frozen slots.  Two
        flags X, Y of one (i, j) bucket share the nondegenerate summand
        W = X_i + X_j, so X_j ∩ Y_j = (X_i + Y_i)^⊥ ∩ W and the slot-j
        spaces meet in a hyperplane exactly when the slot-i spaces do.
        The flags of a bucket sharing a hyperplane of the smaller slot
        form a clique, and distinct spaces share at most one.  A
        hyperplane is named by the sorted ids of its projective points
        (`constructions.slot_hyperplanes`), read once per slot space,
        and the frozen slots by their point forms.
        """
        flags, forms = orbit_class(signature)
        k, dims = signature.k, signature.dims
        _, index = projective_points(signature.field, signature.ambient)
        hyperplanes = {}
        cliques = []
        for i, j in combinations(range(k), 2):
            s = i if dims[i] <= dims[j] else j
            keys = {}
            for v, flag in enumerate(flags):
                frozen = other_slots(forms[v], i, j)
                S = flag.spaces[s]
                if S not in hyperplanes:
                    hyperplanes[S] = slot_hyperplanes(S, index)
                for H in hyperplanes[S]:
                    keys.setdefault((frozen, H), []).append(v)
            cliques.extend(((i, j), tuple(vs)) for vs in keys.values() if len(vs) > 1)
        return cls(flags, cliques, forms)

    @property
    def n(self):
        return len(self.vertices)

    @property
    def edges(self):
        """Every edge (u, v) with u < v, sorted."""
        return tuple(sorted(e for _, vs in self.cliques for e in combinations(vs, 2)))

    def adjacency(self):
        if self._adjlist is None:
            nbrs = [[] for _ in range(self.n)]
            for _, vs in self.cliques:
                for v in vs:
                    nbrs[v] += vs
            self._adjlist = tuple(tuple(sorted(w for w in x if w != v))
                                  for v, x in enumerate(nbrs))
        return self._adjlist

    def label(self, u, v):
        """The slot pair of the edge {u, v}, or None for a non-edge."""
        if self._cliques_at is None:
            self._cliques_at = [[] for _ in range(self.n)]
            for t, vs in self.cliques:
                c = (t, frozenset(vs))
                for w in vs:
                    self._cliques_at[w].append(c)
        if u != v:
            for t, vs in self._cliques_at[u]:
                if v in vs:
                    return t
        return None

    def components(self, keep=None):
        """Connected components, optionally restricted by edge label.

        A union-find over the cliques whose label passes `keep`.
        Returns a sorted tuple of sorted vertex tuples.
        """
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        for t, vs in self.cliques:
            if keep is None or keep(t):
                root = find(vs[0])
                for v in vs[1:]:
                    parent[find(v)] = root
        return _partition(map(find, range(self.n)))

    def ij_components(self, i, j):
        """Components of the subgraph keeping only (i, j)-labeled edges."""
        want = tuple(sorted((i, j)))
        return self.components(lambda t: t == want)

    def avoiding_components(self, i):
        """Components after deleting every edge whose label touches slot i."""
        return self.components(lambda t: i not in t)

    def eigenspace_blocks(self, i):
        """Vertices grouped by their slot-i space, in the shape of
        components()."""
        return _partition(form[i] for form in self.forms)

    def fiber_partition(self, i, j):
        """Vertices grouped by their (i, j)-contraction, which their
        other slots fix; in the shape of components().  Refuses the
        slot pairs `ClassSignature.contracted` refuses."""
        self.vertices[0].signature.contracted(i, j)
        return _partition(other_slots(form, i, j) for form in self.forms)


def induced_type_map(graph, perm):
    """How a vertex permutation moves edge labels.

    For an automorphism of the labeled graph the image of an edge is an
    edge, and the map on labels must not depend on which edge of a given
    label is examined.  Raises TypeMapError otherwise; returns the dict
    label -> label.
    """
    tau = {}
    for t, vs in graph.cliques:
        for u, v in combinations(vs, 2):
            t2 = graph.label(perm[u], perm[v])
            if t2 is None:
                raise TypeMapError(
                    f"image of edge {(u, v)} under the permutation is not an edge")
            if t in tau and tau[t] != t2:
                raise TypeMapError(
                    f"label {t} maps to both {tau[t]} and {t2}")
            tau[t] = t2
    return tau


def classify_type_map(tau, k):
    """Recognize a label map as slot-permutation induced or not.

    Each label is an unordered slot pair.  The map is
    permutation-induced when some permutation d of the slots sends
    every pair {i, j} to {d(i), d(j)}; with four slots the complement
    map on pairs commutes with that action and gives a second family.
    Returns ("permutation", d), ("complement-composed", d) or
    ("other", None), taking the lexicographically least witness d.
    """
    from itertools import permutations

    def pair_image(d, t):
        return tuple(sorted((d[t[0]], d[t[1]])))

    def complement(t):
        return tuple(sorted(set(range(k)) - set(t)))

    for d in permutations(range(k)):
        if all(tau[t] == pair_image(d, t) for t in tau):
            return ("permutation", d)
    if k == 4:
        for d in permutations(range(k)):
            if all(tau[t] == complement(pair_image(d, t)) for t in tau):
                return ("complement-composed", d)
    return ("other", None)


# ---------------------------------------------------------------------------
# plain reference graphs


class SimpleGraph:
    """Unlabeled graph on 0..n-1 with optional vertex labels."""

    def __init__(self, adjlist, labels=None):
        self.adjlist = tuple(tuple(sorted(x)) for x in adjlist)
        self.labels = tuple(labels) if labels is not None else None

    @property
    def n(self):
        return len(self.adjlist)

    @classmethod
    def from_edges(cls, n, edges, labels=None):
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u != v:
                nbrs[u].add(v)
                nbrs[v].add(u)
        return cls([sorted(x) for x in nbrs], labels)


def johnson_graph(k):
    """Two-element subsets of a k-set, joined when they meet."""
    labels = list(combinations(range(k), 2))
    pos = {t: v for v, t in enumerate(labels)}
    edges = []
    for s, t in combinations(labels, 2):
        if set(s) & set(t):
            edges.append((pos[s], pos[t]))
    return SimpleGraph.from_edges(len(labels), edges, labels)


def petersen_graph():
    """Complement of the k=5 pair graph: pairs joined when disjoint."""
    labels = list(combinations(range(5), 2))
    pos = {t: v for v, t in enumerate(labels)}
    edges = []
    for s, t in combinations(labels, 2):
        if not set(s) & set(t):
            edges.append((pos[s], pos[t]))
    return SimpleGraph.from_edges(len(labels), edges, labels)


def pair_complement_map(k):
    """The complement permutation on 2-subsets of a 4-set, as vertex indices."""
    if k != 4:
        raise ValueError("pair complement needs exactly four points")
    labels = list(combinations(range(k), 2))
    pos = {t: v for v, t in enumerate(labels)}
    return tuple(pos[tuple(sorted(set(range(4)) - set(t)))] for t in labels)
