"""Brute-force oracles that left the production path.

`subspaces` lists every subspace of one dimension through its reduced
row echelon basis, and `subspaces_within` every subspace of a given
one; `orthogonal_decompositions` enumerates a finite class slot by slot
inside the running orthocomplement; `semilinear_image` maps a flag
through row-reduced subspaces; `unitary_group` lists every isometry
in row order over the `norm_one_vectors`, and holds the named
generators of `constructions.unitary_generators`.  The production
paths (the point ids of `constructions.projective_points`,
`constructions.slot_hyperplanes`, `constructions.orbit_class` and the
point permutations) are checked against them, and `permute_slots`
relabels a flag's slots for `constructions.slot_permutation_vertex_map`.
`projection` builds P_X = B^T conj(G)^-1 conj(B) from products of whole
matrices (with `transpose`), and `operator` sums a_i P_{X_i} over every
slot: the oracle of `EigenFlag.matrix`, which skips one slot's
projection and works on dot products.
`key_index` finds a class graph's vertices by their flags' rref keys,
apart from the point forms the graph is keyed by.

`classify_pairs` gives both readings of adjacency on every pair of a
flag list, the census that `constructions.orbit_census` reads off one
row.  `mask_is_automorphism` compares a permutation's image of each
neighborhood with the target's as n-bit masks, the oracle of
`autgroup.is_automorphism`, and `brute_force_order` counts
automorphisms with it over every vertex permutation.
`chain_contains` sifts a permutation through a `StabChain` and
`chain_generators` lists its strong generators.  `complete_graph`,
`cycle_graph` and `path_graph` are the small reference graphs;
`canonical_json` is the compact sorted rendering that report digests
are taken over.
"""

import json
from dataclasses import dataclass
from itertools import combinations, permutations, product

from opgraphs.graphs import SimpleGraph
from opgraphs.linalg import (DegenerateSubspaceError, Matrix, Subspace,
                             herm_form, relative_orthocomplement)
from opgraphs.spectral import ADJACENT, RANK_OTHER, EigenFlag, pair_verdict


def _require_finite(field):
    if not field.is_finite:
        raise ValueError("enumeration requires a finite backend")


def subspaces(field, ambient, k):
    """All k-dimensional subspaces of field^ambient, once each: pick
    pivot columns, then run over all assignments of the free entries."""
    _require_finite(field)
    if k < 0 or k > ambient:
        return
    if k == 0:
        yield Subspace(field, ambient, [])
        return
    els = field.elements()
    zero, one = field.zero, field.one
    for pivots in combinations(range(ambient), k):
        pivot_set = set(pivots)
        free = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivot_set
        ]
        for values in product(els, repeat=len(free)):
            rows = [[zero] * ambient for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            yield Subspace(field, ambient, rows)


def subspaces_within(W: Subspace, k):
    """All k-dimensional subspaces of the given subspace."""
    f = W.field
    _require_finite(f)
    for S in subspaces(f, W.dim, k):
        yield Subspace(f, W.ambient, [W.vector_at(c) for c in S.rows])


def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of an m-dimensional space."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for t in range(k):
        num *= q ** (m - t) - 1
        den *= q ** (t + 1) - 1
    return num // den


def nondegenerate_subspaces_within(W: Subspace, k):
    for S in subspaces_within(W, k):
        if S.is_nondegenerate():
            yield S


def orthogonal_decompositions(field, ambient, dims):
    """Ordered tuples of mutually orthogonal nondegenerate subspaces.

    Slot t gets dimension dims[t]; the parts sum to the whole space.
    Works slot by slot inside the running orthocomplement, so every
    decomposition appears exactly once.
    """
    _require_finite(field)
    if sum(dims) != ambient:
        raise ValueError("dimensions must sum to the ambient dimension")

    def rec(W, remaining):
        if not remaining:
            yield ()
            return
        k = remaining[0]
        if k == W.dim:
            if W.is_nondegenerate():
                for rest in rec(Subspace(field, ambient, []), remaining[1:]):
                    yield (W,) + rest
            return
        for X in nondegenerate_subspaces_within(W, k):
            R = relative_orthocomplement(X, W)
            for rest in rec(R, remaining[1:]):
                yield (X,) + rest

    full = Subspace(field, ambient, Matrix.identity(field, ambient).rows)
    yield from rec(full, tuple(dims))


def semilinear_image(flag, M, phi):
    """The flag with every row r of every slot sent to M phi(r), slot
    labels kept.  Isometries pass the identity automorphism for phi,
    field automorphisms the identity matrix for M."""
    return EigenFlag(flag.signature, [
        S.map_rows(lambda row: tuple(M.apply(tuple(phi(x) for x in row))))
        for S in flag.spaces], check=False)


def permute_slots(flag, delta):
    """The flag whose slot i is the old slot delta(i)."""
    delta.validate_for(flag.signature)
    return EigenFlag(flag.signature,
                     [flag.spaces[delta(i)] for i in range(flag.signature.k)],
                     check=False)


def transpose(M):
    return Matrix(M.field, list(zip(*M.rows)))


def projection(X):
    """Orthogonal projection onto X, as a matrix; X must be nondegenerate.

    With basis rows B and Gram G[r][s] = h(b_r, b_s) the projection is
    P = B^T conj(G)^{-1} conj(B); it is hermitian and idempotent.
    """
    f = X.field
    conj = f.conj
    conj_gram = Matrix(f, [[conj(x) for x in row] for row in X.gram().rows])
    try:
        ginv = conj_gram.inverse()
    except ValueError:
        raise DegenerateSubspaceError(
            "projection onto a degenerate subspace"
        ) from None
    bconj = Matrix(f, [[conj(x) for x in row] for row in X.rows])
    return transpose(Matrix(f, X.rows)) @ ginv @ bconj


def operator(flag):
    """sum a_i P_{X_i} over every slot, projections included."""
    sig = flag.signature
    acc = Matrix.zero(sig.field, sig.ambient)
    for a, X in zip(sig.sigma, flag.spaces):
        acc = acc + projection(X).scale(a)
    return acc


def norm_one_vectors(field, n):
    """Vectors v with h(v, v) = 1, in lexicographic order."""
    return [v for v in product(field.elements(), repeat=n)
            if herm_form(field, v, v) == field.one]


def unitary_group(field, n):
    """All isometries of the standard form on field^n, lazily in row order.

    Rows grow depth-first over the norm-one vectors, each new row
    orthogonal to the earlier ones.
    """
    _require_finite(field)

    def grow(rows, candidates):
        if len(rows) == n:
            yield Matrix(field, rows)
            return
        for v in candidates:
            yield from grow(rows + (v,), [
                c for c in candidates if herm_form(field, c, v) == field.zero])

    return grow((), norm_one_vectors(field, n))


def key_index(graph):
    """Each vertex of a class graph under its flag's rref key."""
    return {flag.key(): v for v, flag in enumerate(graph.vertices)}


@dataclass
class PairCensus:
    """Dual classification of every unordered pair of a flag list."""

    total: int
    rank_other: int          # rank of the difference is not 2
    adjacent_count: int      # rank and invariance conditions both hold
    rank_only: list          # rank 2 but invariance fails, as index pairs
    edges: list              # ((u, v), (i, j)) for adjacent pairs
    mismatches: list         # pairs where conditions and geometry disagree

    @property
    def rank_only_count(self):
        return len(self.rank_only)


def classify_pairs(flags) -> PairCensus:
    """Compare the condition-based and geometric adjacency on all pairs.

    Every pair gets both verdicts computed independently; a disagreement
    lands in `mismatches` (none are expected, the tests assert so).
    `constructions.orbit_census` reads the same counts off one row.
    """
    flags = list(flags)
    n = len(flags)
    census = PairCensus(n * (n - 1) // 2, 0, 0, [], [], [])
    for u, fu in enumerate(flags):
        for v in range(u + 1, n):
            kind, slots, mismatch = pair_verdict(fu, flags[v])
            if kind == RANK_OTHER:
                census.rank_other += 1
            elif kind == ADJACENT:
                census.adjacent_count += 1
                census.edges.append(((u, v), slots))
            else:
                census.rank_only.append((u, v))
            if mismatch:
                census.mismatches.append((u, v))
    return census


def adjacency_masks(adjlist):
    """One n-bit integer per vertex, bit u set for each neighbor u."""
    masks = []
    for nbrs in adjlist:
        m = 0
        for u in nbrs:
            m |= 1 << u
        masks.append(m)
    return masks


def mask_is_automorphism(adjlist, perm, masks=None):
    """The edge set preserved, compared as bit masks; the oracle for
    `autgroup.is_automorphism`."""
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


def chain_contains(chain, g):
    """Whether the permutation g sifts to the identity through a
    `StabChain`, that is, lies in the group it holds."""
    h, _ = chain.strip(tuple(g))
    return h == chain.identity


def chain_generators(chain):
    """The strong generators of a `StabChain`: those of its first level."""
    return list(chain.gens[0]) if chain.gens else []


def brute_force_order(adjlist):
    """Filter all vertex permutations; intended for graphs with <= 8 vertices."""
    n = len(adjlist)
    if n > 8:
        raise ValueError("brute force capped at 8 vertices")
    masks = adjacency_masks(adjlist)
    count = 0
    for p in permutations(range(n)):
        if mask_is_automorphism(adjlist, p, masks):
            count += 1
    return count


def complete_graph(n):
    return SimpleGraph.from_edges(n, combinations(range(n), 2))


def cycle_graph(n):
    return SimpleGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n):
    return SimpleGraph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
