"""Checkable statements about class graphs, one verifier per claim.

Each verifier returns a report dict with a "holds" flag.  Finite
backends cover the whole class where feasible, reading a count that
isometries keep off one row certified by the transitivity of U(n,q);
the rational backend works on pinned instances and seeded samples.  A
verifier that finds the claim false on a finite backend reports the
exact failure pattern rather than hiding it: the rank-plus-invariance
reading and the two-slot-move reading of adjacency agree everywhere,
but the fiber lift claim genuinely splits along degeneracy of the meet
line, which cannot happen when the form is definite.
"""

from __future__ import annotations

from math import prod
from random import Random

from .constructions import (ConstructionError, class_size, induced_order,
                            induced_subgroup, obstruction_witness,
                            orbit_census, pairs_from_row,
                            reverse_middle_flags, swap_flag, tilts)
from .graphs import (LabeledGraph, TypeMapError, classify_type_map,
                     induced_type_map, johnson_graph, other_slots,
                     pair_complement_map)
from .autgroup import (NODE_BUDGET, automorphism_group, backtracking_order,
                       is_automorphism)
from .linalg import Subspace, relative_orthocomplement
from .sampling import random_flag, random_vector
from .spectral import (ClassSignature, EigenFlag, adjacency_slots, adjacent,
                       contract, coordinate_flag)


def _rotated_pair_flag(sig, base, i, j, rng=None):
    """A flag agreeing with `base` outside slots i, j, with those two
    slots replaced by a fresh orthogonal splitting of the same summand.

    Deterministic mode (rng None) takes the first `tilts` candidate that
    moves; random mode resamples subspaces of the summand until the
    splitting is nondegenerate.
    """
    if rng is None:
        for X in tilts(base, i, j):
            got = base.move(i, j, X)
            if got is not None:
                return got
        raise RuntimeError("no alternative splitting exists")
    f = sig.field
    W = base.spaces[i].plus(base.spaces[j])
    for _ in range(500):
        coeffs = [random_vector(f, W.dim, rng, height=2)
                  for _ in range(sig.dims[i])]
        rows = [W.vector_at(cs) for cs in coeffs]
        if any(all(x == f.zero for x in r) for r in rows):
            continue
        X = Subspace(f, sig.ambient, rows)
        if X.dim != sig.dims[i]:
            continue
        got = base.move(i, j, X)
        if got is not None:
            return got
    raise RuntimeError("could not resplit the two-slot summand")


# ---------------------------------------------------------------------------
# adjacency has two equivalent readings


def verify_move_equivalence(sig, samples=40, seed=0):
    """Rank-two-with-invariance versus two-slot move, on every pair of a
    finite class (read off one row by `orbit_census`) or on seeded
    samples over the rationals."""
    report = {"lemma": "a1a2-equiv", "field": sig.field.descriptor(),
              "signature": sig.to_json()}
    if sig.field.is_finite:
        census = orbit_census(sig)
        report.update({
            "mode": "exhaustive",
            "pairs": census.total,
            "adjacent": census.adjacent_count,
            "rank_without_invariance": census.rank_only_count,
            "mismatches": census.mismatch_count,
            "holds": not census.mismatch_count,
            **census.work_counters(),
        })
        return report
    rng = Random(seed)
    checked = 0
    mismatches = 0
    k = sig.k
    for s in range(samples):
        A = random_flag(sig, rng, height=2)
        i, j = sorted(rng.sample(range(k), 2))
        B = _rotated_pair_flag(sig, A, i, j, rng)
        C = random_flag(sig, rng, height=2)
        for other in (B, C):
            if other.key() == A.key():
                continue
            operator_reading = adjacent(A, other)
            move_reading = adjacency_slots(A, other) is not None
            checked += 1
            if operator_reading != move_reading:
                mismatches += 1
    report.update({
        "mode": "sampled", "pairs": checked,
        "mismatches": mismatches, "holds": mismatches == 0,
    })
    return report


# ---------------------------------------------------------------------------
# lifting adjacency through a contraction


def _lift_pair_from_meet(T, S, i, j, sig):
    """Adjacent members of the two fibers, built on the meet line.

    T and S are adjacent flags of the contracted class; when the meet
    of their merged-slot spaces is nondegenerate, splitting both merged
    slots against it produces adjacent lifts.  Returns (A, B) or None
    when the meet is degenerate.
    """
    pos = sig.slot_after_contraction(i, j)
    L = T.spaces[pos].intersect(S.spaces[pos])
    if L.dim != sig.dims[j] or not L.is_nondegenerate():
        return None
    lifts = []
    for Tc in (T, S):
        W = Tc.spaces[pos]
        X = relative_orthocomplement(L, W)
        spaces = list(Tc.spaces)
        spaces[pos] = L
        spaces.insert(i, X)
        lifts.append(EigenFlag(sig, spaces))
    return tuple(lifts)


def verify_fiber_lift(sig, i=None, j=None):
    """Adjacent contracted flags and whether their fibers stay adjacent.

    Over a finite backend every contracted edge is classified: a lift
    pair is constructed when the meet of the merged slots is
    nondegenerate, and when it is degenerate the class graph is checked
    to have no edge between the two fibers, a fiber being the vertices
    with one (i, j)-contraction.  An isometry commutes with contraction
    and keeps meet lines, their nondegeneracy, lift pairs and class-graph
    edges, so an edge's outcome is constant on U(n,q)-orbits.  Only the
    edges at contracted vertex 0 are classified, and each count is
    scaled by the n2 vertices of the contracted graph, whose orbit walk
    certifies that U(n,q) is transitive on the contracted class;
    n2 * deg(0) / 2 must also equal the contracted edge count.  The
    unconditional claim holds over a definite form, where degenerate
    meets cannot occur, and fails over finite backends exactly on the
    degenerate-meet pairs.  Slot i merges into slot j; the pair defaults to (k - 1, 0)
    and is given whole or not at all.
    """
    if (i is None) != (j is None):
        raise ValueError("give both merged slots i and j, or neither")
    if i is None:
        i, j = sig.k - 1, 0
    report = {"lemma": "lift", "field": sig.field.descriptor(),
              "signature": sig.to_json(), "merged_slots": [i, j]}
    sig2 = sig.contracted(i, j)
    pos = sig.slot_after_contraction(i, j)
    if not sig.field.is_finite:
        # pinned instance: the coordinate contracted flag against the
        # splitting that trades the merged slot's last line for the
        # other slot's line
        other = 1 if pos != 1 else 0
        if sig2.dims[pos] != 2 or sig2.dims[other] != 1:
            report.update({"mode": "unavailable", "holds": False,
                           "reason": "the pinned lift instance needs a (2, 1) split"})
            return report
        T = contract(coordinate_flag(sig), i, j)
        plane, line = T.spaces[pos], T.spaces[other]
        S = T.move(pos, other, Subspace(sig.field, sig.ambient,
                                        [plane.rows[0], line.rows[0]]))
        pair = _lift_pair_from_meet(T, S, i, j, sig)
        ok = pair is not None and adjacency_slots(*pair) is not None
        report.update({
            "mode": "pinned",
            "contracted_adjacent": adjacency_slots(T, S) is not None,
            "lift_constructed": pair is not None,
            "lift_adjacent": ok,
            "holds": ok,
        })
        return report
    graph = LabeledGraph.build(sig)
    graph2 = LabeledGraph.build(sig2)
    # a contraction is fixed by its unmerged slots
    fiber = {other_slots(form, pos): v for v, form in enumerate(graph2.forms)}
    owner = [fiber[other_slots(form, i, j)] for form in graph.forms]
    # the contracted vertices joined to vertex 0 by an edge of the class graph
    lifted = {owner[w] for v in range(graph.n) if owner[v] == 0
              for w in graph.adjacency()[v]}
    row = graph2.adjacency()[0]
    edges2 = sum(map(len, graph2.adjacency())) // 2
    if pairs_from_row(graph2.n, len(row)) != edges2:
        raise ConstructionError(
            f"{graph2.n} rows of degree {len(row)} do not give the "
            f"{edges2} contracted edges")
    passes = 0
    failures = 0
    exceptions = 0
    T = graph2.vertices[0]
    for v in row:
        pair = _lift_pair_from_meet(T, graph2.vertices[v], i, j, sig)
        if pair is not None:
            if adjacency_slots(*pair) is not None:
                passes += 1
            else:
                exceptions += 1
        # degenerate meet: no class-graph edge may join the two fibers
        elif v in lifted:
            exceptions += 1
        else:
            failures += 1
    report.update({
        "mode": "exhaustive",
        "contracted_edges": edges2,
        "liftable": pairs_from_row(graph2.n, passes),
        "blocked_by_degenerate_meet": pairs_from_row(graph2.n, failures),
        "exceptions_to_dichotomy": pairs_from_row(graph2.n, exceptions),
        "holds": failures == 0 and exceptions == 0,
        "orbit_size": graph2.n,
        "class_size_closed_form": class_size(sig2),
        "pairs_classified": len(row),
    })
    return report


# ---------------------------------------------------------------------------
# mixing two independent moves


def verify_swap_lemma(field, sigma):
    """Pinned four-slot instance of the independent-pair mix.

    The base flag is coordinate; the second flag resplits slots {0,1}
    and {2,3} inside their planes.  The mixed flag must be adjacent to
    the base exactly at {2,3} and to the second flag exactly at {0,1}.
    sigma must be exactly four distinct eigenvalues.
    """
    if len(sigma) != 4 or len(set(sigma)) < 4:
        raise ValueError("the swap move needs exactly four distinct eigenvalues")
    sig = ClassSignature(field, tuple(sigma), (1, 1, 1, 1))
    A = coordinate_flag(sig)
    B = _rotated_pair_flag(sig, A, 0, 1)
    B = _rotated_pair_flag(sig, B, 2, 3)
    C = swap_flag(A, B, (0, 1), (2, 3))
    to_a, to_b = adjacency_slots(C, A), adjacency_slots(C, B)
    return {
        "lemma": "swap", "field": field.descriptor(),
        "signature": sig.to_json(), "mode": "pinned",
        "adjacent_to_first": list(to_a or ()),
        "adjacent_to_second": list(to_b or ()),
        "holds": to_a == (2, 3) and to_b == (0, 1),
    }


# ---------------------------------------------------------------------------
# ordered moves do not commute


def verify_obstruction_lemma(sig):
    """Ordered two-slot moves with no reverse-order middle flag.

    Builds the witness pair on slots (i, j, t) = (0, 1, 2), checks both
    adjacencies, and checks the blocking non-orthogonality that rules
    out any middle flag in the other order (slot i of such a flag would
    have to stay the base space while slot t carries a space not
    orthogonal to it).  Finite backends additionally scan the whole
    class for reverse middles.  Unavailable unless slots 1 and 2 are
    lines.
    """
    report = {"lemma": "obstruction", "field": sig.field.descriptor(),
              "signature": sig.to_json(), "slots": [0, 1, 2]}
    if sig.k < 3 or sig.dims[1:3] != (1, 1):
        report.update({"mode": "unavailable", "holds": False,
                       "reason": "the obstruction recipe moves one-dimensional slots"})
        return report
    A = coordinate_flag(sig)
    data = obstruction_witness(A, 0, 1, 2)
    B, C = data["end"], data["middle"]
    i, t = data["blocking"]
    checks = {
        "middle_adjacent_to_start": adjacency_slots(C, A) == (0, 1),
        "middle_adjacent_to_end": adjacency_slots(C, B) == (1, 2),
        "blocking_nonorthogonality":
            not data["start"].spaces[i].is_orthogonal_to(B.spaces[t]),
    }
    report["checks"] = checks
    if sig.field.is_finite:
        graph = LabeledGraph.build(sig)
        reverse = reverse_middle_flags(graph, A, B, 0, 1, 2)
        report["mode"] = "pinned+exhaustive"
        report["reverse_middles"] = len(reverse)
        report["holds"] = all(checks.values()) and not reverse
    else:
        report["mode"] = "pinned"
        report["holds"] = all(checks.values())
    return report


# ---------------------------------------------------------------------------
# automorphisms act on edge labels


def verify_type_action(sig=None, node_budget=NODE_BUDGET):
    """Every automorphism moves edge labels coherently.

    Reference side: the pair graphs J(k,2) have the expected
    automorphism counts, and for k=4 the complement map is an
    automorphism that no point permutation induces.  Class side (finite
    backends): the full automorphism group is computed, and each of its
    generators, the natural ones (tagged by kind) and the ones the
    search found (tagged "search"), must carry a well-defined label
    map, which is classified.  Coherent label maps compose, so these
    generators cover all of Aut.
    """
    report = {"lemma": "johnson-tau"}
    expected = {3: 6, 4: 48, 5: 120}
    johnson = {}
    for k, want in expected.items():
        g = johnson_graph(k)
        got = automorphism_group(g.adjlist, node_budget=node_budget).order()
        johnson[k] = {"order": got, "expected": want,
                      "backtrack": backtracking_order(g.adjlist)}
    j4 = johnson_graph(4)
    cm = pair_complement_map(4)
    complement_ok = is_automorphism(j4.adjlist, cm)
    ok = (all(v["order"] == v["expected"] == v["backtrack"]
              for v in johnson.values()) and complement_ok)
    report["pair_graphs"] = {str(k): v for k, v in johnson.items()}
    report["complement_is_automorphism"] = complement_ok
    if sig is not None and sig.field.is_finite:
        graph = LabeledGraph.build(sig)
        full, gens = induced_subgroup(graph, node_budget=node_budget)
        perms = full.generators()
        # the known generators come first, in the order given
        kinds = [kind for kind, _, _ in gens]
        kinds += ["search"] * (len(perms) - len(gens))
        label_maps = []
        well_defined = True
        for kind, perm in zip(kinds, perms):
            try:
                tau = induced_type_map(graph, perm)
            except TypeMapError:
                well_defined = False
                continue
            cls, d = classify_type_map(tau, sig.k)
            label_maps.append({
                "generator": kind,
                "map": {f"{a},{b}": list(tau[(a, b)]) for a, b in tau},
                "classified": cls,
                "slot_permutation": list(d) if d else None,
            })
        report["class_graph"] = {
            "signature": sig.to_json(),
            "induced_order": str(prod(full.known_orbit_sizes)),
            "induced_order_closed_form": str(induced_order(sig)),
            "automorphism_order": str(full.order()),
            "generators": label_maps,
        }
        ok = ok and well_defined and all(
            m["classified"] in ("permutation", "complement-composed")
            for m in label_maps)
    report["holds"] = ok
    return report
