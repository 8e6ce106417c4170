"""Natural vertex maps of class graphs and the groups they generate.

The natural maps of a class are the semilinear isometries x -> M phi(x)
(M an isometry of the form, phi a star-field automorphism) applied to
every slot, and the dimension-preserving slot permutations.  Over a
finite field each semilinear map is one permutation of the points of
PG(n-1, q^2), and a flag is the tuple of its slots' sorted point ids,
so a finite class is enumerated as one certified orbit (`orbit_class`)
and the maps act on vertices by lookup.  Four isometries in closed
form (`unitary_generators`) are certified on the same points to
generate U(n,q) modulo the norm-one scalars, which fix every subspace.
A hyperplane of a slot is the sorted ids of its points, read off one
incidence table per field and dimension (`slot_hyperplanes`); the class
graph keys its edges on them.
The group they generate is closed on the chain of the automorphism
search they seed and certified against its closed-form order.  The
isometries' transitive action, certified by the orbit walk, reduces a
finite class's pair census to one row.  The module also carries the
two-slot orthocomplement twist, the tilt scan that proposes two-slot
moves, the independent-pair swap, and the one-sided path obstruction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import factorial, prod

from .autgroup import NODE_BUDGET, StabChain, automorphism_group
from .linalg import Matrix, Subspace, matvec
from .spectral import (ADJACENT, RANK_ONLY, RANK_OTHER, EigenFlag,
                       SdPermutation, coordinate_flag, enumerate_class,
                       pair_verdict)


class ConstructionError(RuntimeError):
    """A construction's preconditions fail on the given data."""


def is_isometry(field, M: Matrix) -> bool:
    """Whether M preserves the form: M* M = I."""
    n = len(M.rows)
    return (M.conj_transpose() @ M) == Matrix.identity(field, n)


def unitary_order(q, n):
    """|U(n,q)| = q^(n(n-1)/2) * prod_{i=1..n} (q^i - (-1)^i)  (Taylor 1992)."""
    out = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        out *= q ** i - (-1) ** i
    return out


def _named_isometries(field, n):
    """diag(zeta, 1, ..., 1) with zeta the first element of order q+1,
    the n-cycle, the transposition (0 1), and a block B on the leading
    coordinates (Taylor 1992): [[a, b], [-conj b, conj a]], N(a) the
    first norm outside {0, 1} and N(b) = 1 - N(a), so B* B = I; U(2,2)
    is monomial, so for q = 2, [[1, 1, 1], [1, w, w^2], [1, w^2, w]]."""
    zero, one, mul, conj = field.zero, field.one, field.mul, field.conj
    els, e = field.elements(), Matrix.identity(field, n).rows

    def order(x):
        k, y = 1, x
        while y != one:
            k, y = k + 1, mul(y, x)
        return k

    zeta = next(x for x in els if x != zero and order(x) == field.q + 1)
    if field.q == 2:
        w = next(x for x in els if x not in (zero, one))
        block = [[one, one, one], [one, w, mul(w, w)], [one, mul(w, w), w]]
    else:
        norm = {x: mul(x, conj(x)) for x in els}
        a = next(x for x in els if norm[x] not in (zero, one))
        b = next(x for x in els if norm[x] == field.sub(one, norm[a]))
        block = [[a, b], [field.neg(conj(b)), conj(a)]]
    k = len(block)
    D = ((zeta, *e[0][1:]), *e[1:])
    C = e[1:] + e[:1]
    T = (e[1], e[0], *e[2:])
    B = [(*row, *e[i][k:]) for i, row in enumerate(block)] + [*e[k:]]
    return tuple(Matrix(field, rows) for rows in (D, C, T, B))


@lru_cache(maxsize=None)
def unitary_generators(field, n):
    """The `_named_isometries`, each checked to be an isometry (an orbit
    of a class flag stays in the class only under isometries), certified
    to generate U(n,q) modulo its norm-one scalars, which fix every
    subspace: their chain on the points of PG(n-1, q^2), an action whose
    kernel is those scalars, must reach |PU(n,q)|."""
    if not field.is_finite:
        raise ConstructionError("the isometry generators need a finite star-field")
    if n < 3:
        raise ConstructionError(f"the isometry generators need n >= 3, got {n}")
    gens = _named_isometries(field, n)
    for M in gens:
        if not is_isometry(field, M):
            raise ConstructionError(f"generator {M!r} is not an isometry")
    target = unitary_order(field.q, n) // (field.q + 1)
    chain = StabChain(len(projective_points(field, n)[0]), known_order=target)
    id_map = field.automorphisms()[0]
    chain.close([point_permutation(field, M, id_map) for M in gens])
    if chain.order() != target:
        raise ConstructionError(
            f"isometries generate order {chain.order()}, expected {target}")
    return gens


def class_size(sig):
    """|U(n,q)| / prod_i |U(d_i,q)|, the number of flags of a finite class:
    U(n,q) is transitive on them (Witt), and the stabilizer of a flag is
    the product of the unitary groups of its slots."""
    q = sig.field.q
    stabilizer = 1
    for d in sig.dims:
        stabilizer *= unitary_order(q, d)
    return unitary_order(q, sig.ambient) // stabilizer


# ---------------------------------------------------------------------------
# projective point ids: the natural maps as point permutations


@lru_cache(maxsize=None)
def projective_points(field, n):
    """The points of PG(n-1, q^2): the normalised vectors of field^n
    (first nonzero coordinate one), which are the rref rows of the
    lines, in increasing order, so a line's point id sorts like its row.
    Returns (rows, ids): ids[v] is the id of the line through v, for
    every nonzero vector v of field^n."""
    zero, one, mul = field.zero, field.one, field.mul
    rows = tuple(sorted((zero,) * p + (one,) + tail for p in range(n)
                        for tail in product(field.elements(), repeat=n - 1 - p)))
    units = [c for c in field.elements() if c != zero]
    return rows, {tuple(mul(c, x) for x in v): i
                  for i, v in enumerate(rows) for c in units}


@lru_cache(maxsize=None)
def _hyperplane_incidence(field, d):
    """For each point c of PG(d-1, q^2), the positions in
    `projective_points(field, d)` of the points of the hyperplane
    {a : a·c = 0}; every hyperplane of field^d is one of these."""
    rows, _ = projective_points(field, d)
    zero = field.zero
    return tuple(tuple(i for i, x in enumerate(matvec(field, rows, c)) if x == zero)
                 for c in rows)


def point_permutation(field, M: Matrix, phi):
    """The point ids moved by x -> M phi(x), as a tuple: point i goes to
    the result's entry i.  Raises ConstructionError when a point maps to
    zero, that is when M is singular."""
    rows, ids = projective_points(field, M.ncols)
    try:
        return tuple(ids[M.apply(tuple(map(phi, v)))] for v in rows)
    except KeyError:
        raise ConstructionError(f"{M!r} sends a point to zero") from None


def _slot_points(S, index):
    """The ids of the points of the subspace S, listed like their
    coordinates on the rref basis of S in `projective_points(field, S.dim)`."""
    # normalised coefficients on the rref rows give normalised vectors
    coeffs, _ = projective_points(S.field, S.dim)
    return tuple(index[S.vector_at(c)] for c in coeffs)


def slot_hyperplanes(S, index):
    """The hyperplanes of the subspace S, each as the sorted ids of its
    points: () for a line, one point each for a plane."""
    ids = _slot_points(S, index)
    return [tuple(sorted(map(ids.__getitem__, pos)))
            for pos in _hyperplane_incidence(S.field, S.dim)]


def point_form(flag):
    """The point form of a flag: per slot, its sorted point ids."""
    sig = flag.signature
    _, index = projective_points(sig.field, sig.ambient)
    return tuple(tuple(sorted(_slot_points(S, index))) for S in flag.spaces)


def _image(form, perm):
    """A point form moved by a point permutation."""
    return tuple((perm[ids[0]],) if len(ids) == 1
                 else tuple(sorted(map(perm.__getitem__, ids))) for ids in form)


def _orbit(start, field, generators):
    """The orbit of the point form `start` under the point permutations
    of the matrices `generators`, as a set of point forms."""
    id_map = field.automorphisms()[0]
    perms = [point_permutation(field, M, id_map) for M in generators]
    seen = {start}
    frontier = [start]
    while frontier:
        form = frontier.pop()
        for perm in perms:
            image = _image(form, perm)
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


def orbit_class(sig):
    """Every flag of a finite class, as the orbit of `coordinate_flag`
    under the `unitary_generators` point permutations.  Returns (flags,
    forms): the flags sorted by key, and the point form of each.

    Each generator is checked to be an isometry, so the orbit lies in
    the class; U(n,q) is transitive on the class (Witt), so the orbit is
    the class exactly when its size equals `class_size`.  Both are
    certified on every call, and ConstructionError is raised otherwise.
    Each distinct slot space is rebuilt once, by one rref of one point
    per leading column (a basis).
    """
    field, n, zero = sig.field, sig.ambient, sig.field.zero
    if not field.is_finite:
        raise ValueError("class enumeration requires a finite backend")
    rows, _ = projective_points(field, n)
    seen = _orbit(point_form(coordinate_flag(sig)), field,
                  unitary_generators(field, n))
    closed = class_size(sig)
    if len(seen) != closed:
        raise ConstructionError(
            f"U(n,q) is not certified transitive: the orbit of the "
            f"coordinate flag has {len(seen)} flags, the closed form {closed}")

    spaces = {}

    def space(ids):
        if ids not in spaces:
            basis = {}
            for p in ids:
                v = rows[p]
                basis.setdefault(next(c for c, x in enumerate(v) if x != zero), v)
            spaces[ids] = Subspace(field, n, basis.values())
        return spaces[ids]

    walk = sorted(((EigenFlag(sig, map(space, form), check=False), form)
                   for form in seen), key=lambda pair: pair[0].key())
    flags, forms = zip(*walk)
    return flags, forms


def pairs_from_row(n, count):
    """n * count / 2, the unordered pairs of a class of n flags whose
    every row holds `count` of them; raises ConstructionError when
    n * count is odd."""
    if n * count % 2:
        raise ConstructionError(f"{n} flags times a row count of {count} is odd")
    return n * count // 2


@dataclass
class OrbitCensus:
    """Pair counts of a finite class, read off one row and scaled.

    Counts are over unordered pairs, as in the all-pairs census the
    tests keep as its oracle; `rank_only` holds only the first `limit`
    rank-only pairs, as indices into `flags`.
    """

    flags: tuple             # the class, as `spectral.enumerate_class` lists it
    total: int
    rank_other: int
    adjacent_count: int
    rank_only_count: int
    mismatch_count: int
    rank_only: list          # first rank-only pairs, in (u, v) order
    orbit_size: int
    class_size_closed_form: int
    pairs_classified: int    # pairs given the per-pair tests

    def work_counters(self):
        return {"orbit_size": self.orbit_size,
                "class_size_closed_form": self.class_size_closed_form,
                "pairs_classified": self.pairs_classified}


def orbit_census(sig, limit=0) -> OrbitCensus:
    """The counts of every pair's `pair_verdict` on the class `sig`,
    read off the row of flag 0.

    Conjugation by an isometry U keeps both readings of adjacency:
    rank(U D U*) = rank D, Img(U D U*) = U Img D, and slots move to
    slots.  U(n,q) is transitive on the class, so every row has the
    counts of row 0, and each total is n * (row count) / 2.  The class
    is the orbit that `enumerate_class` walks and certifies before
    anything is scaled.

    `rank_only` holds the first `limit` rank-only pairs in (u, v) order:
    row 0 first, then rows 1, 2, ... over v > u while more are wanted.
    """
    flags = enumerate_class(sig)
    n = len(flags)
    row = Counter()
    mismatches = 0
    rank_only = []
    for v in range(1, n):
        kind, _, mismatch = pair_verdict(flags[0], flags[v])
        row[kind] += 1
        mismatches += mismatch
        if kind == RANK_ONLY and len(rank_only) < limit:
            rank_only.append((0, v))

    census = OrbitCensus(
        flags, n * (n - 1) // 2, pairs_from_row(n, row[RANK_OTHER]),
        pairs_from_row(n, row[ADJACENT]), pairs_from_row(n, row[RANK_ONLY]),
        pairs_from_row(n, mismatches), rank_only, n, class_size(sig), n - 1)
    wanted = min(limit, census.rank_only_count)
    later = ((u, v) for u in range(1, n) for v in range(u + 1, n))
    while len(rank_only) < wanted:
        u, v = next(later)
        census.pairs_classified += 1
        if pair_verdict(flags[u], flags[v])[0] == RANK_ONLY:
            rank_only.append((u, v))
    return census


# ---------------------------------------------------------------------------
# vertex maps of a finite class graph


def _form_perm(graph, move):
    """The permutation v -> the vertex whose point form is move(form of
    v); the image of each vertex must be a vertex."""
    out = []
    for form in graph.forms:
        v = graph.form_index.get(move(form))
        if v is None:
            raise ConstructionError("an image is not a flag of the class")
        out.append(v)
    return tuple(out)


def semilinear_vertex_map(graph, M: Matrix, phi):
    """Vertex permutation from x -> M phi(x) applied to every slot, read
    off its point permutation."""
    perm = point_permutation(graph.vertices[0].signature.field, M, phi)
    return _form_perm(graph, lambda form: _image(form, perm))


def slot_permutation_vertex_map(graph, delta: SdPermutation):
    """Vertex permutation from a dimension-preserving slot relabeling:
    slot i of the image is the old slot delta(i), as in the oracle
    `permute_slots` of `tests/oracles.py`."""
    delta.validate_for(graph.vertices[0].signature)
    return _form_perm(graph, lambda form: tuple(map(form.__getitem__, delta.images)))


def sd_generators(sig):
    """Transpositions generating the dimension-preserving slot permutations."""
    gens = []
    by_dim = {}
    for i, d in enumerate(sig.dims):
        by_dim.setdefault(d, []).append(i)
    for slots in by_dim.values():
        for a, b in zip(slots, slots[1:]):
            images = list(range(sig.k))
            images[a], images[b] = images[b], images[a]
            gens.append(SdPermutation(tuple(images)))
    return gens


def sd_group_order(sig):
    """|S_d|, the number of slot permutations that keep dimensions."""
    return prod(factorial(c) for c in Counter(sig.dims).values())


def induced_order(sig):
    """|PGammaU(n,q)| * |S_d| = |U(n,q)| / (q+1) * 2e * |S_d|.

    The q+1 scalars of norm one fix every subspace and the Galois group
    of GF(q^2) has order 2e.  Slotwise semilinear maps commute with slot
    permutations and meet them only in the identity, so the orders
    multiply.
    """
    field = sig.field
    return (unitary_order(field.q, sig.ambient) // (field.q + 1)
            * field.degree * sd_group_order(sig))


def induced_generators(graph):
    """Labeled vertex permutations of the natural maps.

    Isometry generators (phi the identity), every non-identity
    star-field automorphism (M the identity), and slot-permutation
    generators.  Returns a list of (kind, data, perm) triples.
    """
    sig = graph.vertices[0].signature
    field = sig.field
    id_map, *galois = field.automorphisms()
    id_matrix = Matrix.identity(field, sig.ambient)
    out = [("isometry", M.rows, semilinear_vertex_map(graph, M, id_map))
           for M in unitary_generators(field, sig.ambient)]
    out += [("field-automorphism", phi.name,
             semilinear_vertex_map(graph, id_matrix, phi)) for phi in galois]
    out += [("slot-permutation", delta.images,
             slot_permutation_vertex_map(graph, delta))
            for delta in sd_generators(sig)]
    return out


def induced_subgroup(graph, node_budget=NODE_BUDGET):
    """The automorphism search seeded with the natural maps, certified.

    The graph must hold the whole class (`class_size`), and the order
    the maps generate, read off the search's chain on them as the
    product of `known_orbit_sizes`, must equal `induced_order`, which
    bounds it (GammaU(n,q) x S_d acts with the scalars trivial).
    Otherwise ConstructionError is raised; a natural map that is no
    automorphism fails the search's check (ValueError).  Returns
    (AutomorphismGroup, labeled generators), the natural maps first
    among the group's.
    """
    sig = graph.vertices[0].signature
    closed = class_size(sig)
    if graph.n != closed:
        raise ConstructionError(
            f"the graph has {graph.n} vertices, the class {closed}")
    gens = induced_generators(graph)
    want = induced_order(sig)
    group = automorphism_group(
        graph.adjacency(), known_generators=[p for _, _, p in gens],
        known_order=want, node_budget=node_budget)
    got = prod(group.known_orbit_sizes)
    if got != want:
        raise ConstructionError(
            f"the natural maps generate order {got}, expected {want}")
    return group, gens


# ---------------------------------------------------------------------------
# orthocomplement twist on two-slot classes


def chow_image(flag: EigenFlag, M: Matrix) -> EigenFlag:
    """Two-slot twist: first slot maps through M, second is replaced by
    the orthocomplement of the image.

    M need not be an isometry; the image is a class member whenever the
    mapped first slot stays nondegenerate.  Raises ConstructionError
    when it degenerates.
    """
    if flag.signature.k != 2:
        raise ConstructionError("the orthocomplement twist needs exactly two slots")
    img = flag.spaces[0].map_rows(lambda r: tuple(M.apply(r)))
    if not img.is_nondegenerate():
        raise ConstructionError("mapped first slot is degenerate")
    # `move` gives None only when the image is the old first slot
    return flag.move(0, 1, img) or flag


# ---------------------------------------------------------------------------
# two-slot moves: candidates, the independent-pair swap, the obstruction


def tilts(flag: EigenFlag, i, j):
    """Slot i with its last basis row tilted toward the first row of
    slot j, one space per nonzero slope, in a fixed order: every field
    element on a finite backend, the slopes 1, 2, 1+i, 1-i, 3 over Q(i).

    Each space shares a hyperplane with slot i, so a successful
    `flag.move(i, j, space)` is adjacent to `flag` at (i, j).
    """
    field = flag.signature.field
    Xi, w = flag.spaces[i], flag.spaces[j].rows[0]
    slopes = (field.elements() if field.is_finite
              else [field.scalar(1), field.scalar(2), field.scalar(1, 1),
                    field.scalar(1, -1), field.scalar(3)])
    for lam in slopes:
        if lam != field.zero:
            tilted = tuple(field.add(a, field.mul(lam, b))
                           for a, b in zip(Xi.rows[-1], w))
            yield Subspace(field, Xi.ambient, Xi.rows[:-1] + (tilted,))


def swap_flag(A: EigenFlag, B: EigenFlag, pair1, pair2) -> EigenFlag:
    """Mix two flags that move two independent slot pairs.

    A and B must agree on every slot outside pair1 and pair2, and must
    redistribute the same orthogonal summand inside each pair.  The
    result keeps A's spaces on pair1 and B's on pair2; it is a class
    member by construction.
    """
    i, j = sorted(pair1)
    i2, j2 = sorted(pair2)
    if len({i, j, i2, j2}) != 4:
        raise ConstructionError("the two slot pairs must be disjoint")
    if A.signature != B.signature:
        raise ConstructionError("flags come from different classes")
    k = A.signature.k
    for t in range(k):
        if t in (i, j, i2, j2):
            continue
        if A.spaces[t] != B.spaces[t]:
            raise ConstructionError(f"flags differ at frozen slot {t}")
    for a, b in ((i, j), (i2, j2)):
        if A.spaces[a].plus(A.spaces[b]) != B.spaces[a].plus(B.spaces[b]):
            raise ConstructionError(
                f"slots {a},{b} redistribute different summands")
    # B's slot j2 is the complement of its slot i2 in the shared summand
    return A.move(i2, j2, B.spaces[i2]) or A


def obstruction_witness(A: EigenFlag, i, j, t):
    """Two flags reachable from A by ordered two-slot moves but not in
    the other order.

    Produces B and a middle flag C with C adjacent to A at (i, j) and
    adjacent to B at (j, t); the deliberate failure of orthogonality
    between the untouched slot i space of A and the moved slot t space
    of B blocks any middle flag adjacent to A at (j, t) and to B at
    (i, j).  Slots j and t must be one-dimensional.  Deterministic:
    moves (i, j) along `tilts`, then trades the lines of slots j and t.
    """
    sig = A.signature
    if sig.dims[j] != 1 or sig.dims[t] != 1:
        raise ConstructionError("the obstruction recipe moves one-dimensional slots")
    if len({i, j, t}) != 3:
        raise ConstructionError("three distinct slots are required")
    for Yi in tilts(A, i, j):
        C = A.move(i, j, Yi)
        # slot t of B is C's slot j, which sits inside the old (i, j)
        # summand; it must not be orthogonal to the untouched slot i
        if C is None or A.spaces[i].is_orthogonal_to(C.spaces[j]):
            continue
        B = C.move(t, j, C.spaces[j])
        return {"start": A, "end": B, "middle": C, "blocking": (i, t)}
    raise ConstructionError("no obstruction configuration found from this flag")


def reverse_middle_flags(graph, A, B, i, j, t):
    """All vertices adjacent to A at (j, t) and to B at (i, j).

    Read off the labelled edges at A; exhaustive over the finite class.
    The obstruction claim is that this list is empty for the
    constructed pair.
    """
    va = graph.form_index[point_form(A)]
    vb = graph.form_index[point_form(B)]
    first = tuple(sorted((j, t)))
    second = tuple(sorted((i, j)))
    return [v for v in graph.adjacency()[va]
            if graph.label(v, va) == first and graph.label(v, vb) == second]
