"""Acceptance gate: eleven criteria, one test and one summary line each.

Each test performs its own hard assertions and records a one-line
verdict that the session hook prints at the end of the run.
"""

import json
import time
from fractions import Fraction
from itertools import permutations
from math import prod

from opgraphs.autgroup import (
    automorphism_group,
    backtracking_order,
    is_automorphism,
)
from opgraphs.cli import main
from opgraphs.constructions import (
    semilinear_vertex_map,
    slot_permutation_vertex_map,
    unitary_generators,
)
from opgraphs.counterexamples import (
    census_certificates,
    find_rank_only_pair,
    verify_certificate,
)
from opgraphs.graphs import (
    LabeledGraph,
    classify_type_map,
    johnson_graph,
    pair_complement_map,
    petersen_graph,
)
from opgraphs.lemmas import verify_obstruction_lemma, verify_swap_lemma
from opgraphs.linalg import Matrix, Subspace
from opgraphs.report import stable_view
from opgraphs.spectral import (
    ClassSignature,
    EigenFlag,
    SdPermutation,
    adjacency_slots,
    adjacent,
    coordinate_flag,
    difference_rows,
    invariance_condition,
    rank_condition,
)
from opgraphs.starfield import QI
from tests.conftest import diag
from tests.oracles import (brute_force_order, complete_graph, cycle_graph,
                           path_graph)

from pathlib import Path

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def signature(field, sigma_texts, dims):
    sigma = tuple(field.parse_fixed(t) for t in sigma_texts)
    return ClassSignature(field, sigma, tuple(dims))


def qi(re, im=0):
    return QI.scalar(Fraction(re), Fraction(im))


def test_criterion_01_adjacency_equivalence(flagship_census, acceptance):
    c = flagship_census
    assert c.total == 378 * 377 // 2 == 71253
    assert len(c.mismatches) == 0
    assert c.adjacent_count == 2835
    assert c.elapsed < 60.0
    acceptance(
        f"criterion 01: conditions equal the two-slot move on all 71253 "
        f"GF(9)^3 pairs, 0 discrepancies, {c.elapsed:.1f}s",
        c.total == 71253 and not c.mismatches and c.elapsed < 60.0)


def test_criterion_02_two_eigenvalue_collapse(grassmann_census, grassmann_graph, acceptance):
    c = grassmann_census
    assert grassmann_graph.n == 63
    assert c.rank_only == []          # zero invariance violations
    assert len(c.mismatches) == 0
    predicted_complete = grassmann_graph.vertices[0].signature.dims[0] == 1
    complete = len(grassmann_graph.edges) == 63 * 62 // 2
    assert predicted_complete and complete
    acceptance(
        "criterion 02: two-eigenvalue class has zero invariance violations "
        "on 63 vertices and is complete as the line-slot rule predicts",
        c.rank_only == [] and complete)


def test_criterion_03_rational_worked_examples(qi_sig, acceptance):
    a = coordinate_flag(qi_sig)

    def line(*entries):
        return Subspace.line(QI, tuple(qi(Fraction(e)) for e in entries))

    rotated = EigenFlag(qi_sig, (line(1, 1, 0), line(1, -1, 0), line(0, 0, 1)))
    half = Fraction(1, 2)
    d = Matrix(QI, difference_rows(a, rotated))
    ok1 = (rank_condition(a, rotated)
           and d == Matrix(QI, [[qi(half), qi(-half), qi(0)],
                                [qi(-half), qi(-half), qi(0)],
                                [qi(0), qi(0), qi(0)]])
           and Matrix(QI, [r[:2] for r in d.rows[:2]]).det() == qi(-half)
           and adjacency_slots(a, rotated) == (0, 1))
    cycled = EigenFlag(qi_sig, (line(0, 1, 0), line(0, 0, 1), line(1, 0, 0)))
    d2 = Matrix(QI, difference_rows(a, cycled))
    ok2 = (not rank_condition(a, cycled)
           and d2 == diag(QI, [qi(2), qi(-1), qi(-1)])
           and d2.rank() == 3)
    swapped = EigenFlag(qi_sig, (line(0, 1, 0), line(1, 0, 0), line(0, 0, 1)))
    ok3 = adjacency_slots(a, swapped) == (0, 1) and adjacent(a, swapped)
    assert ok1 and ok2 and ok3
    acceptance(
        "criterion 03: the three pinned diag(1,2,3) adjacency examples "
        "reproduce exactly in exact arithmetic",
        ok1 and ok2 and ok3)


def test_criterion_04_counterexamples_on_both_backends(
        f9, qi_sig, flagship_flags, flagship_census, acceptance):
    # finite scan: pairs satisfying the rank condition but not invariance
    # exist, so certified instances are produced and re-verified
    count = flagship_census.rank_only_count
    assert count == 33264
    certs = census_certificates(flagship_flags, flagship_census, limit=3)
    gf_ok = all(verify_certificate(f9, c)["ok"] for c in certs)
    assert gf_ok
    # rational search: fixed seed, bounded entries, well under a minute
    base = coordinate_flag(qi_sig)
    start = time.perf_counter()
    found, cert = find_rank_only_pair(base, seed=0)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert rank_condition(base, found)
    assert not invariance_condition(base, found)
    qi_ok = verify_certificate(QI, cert)["ok"]
    assert qi_ok
    acceptance(
        f"criterion 04: certified rank-without-invariance pairs on both "
        f"backends (33264 exist over GF(9)^3; rational search {elapsed:.2f}s)",
        gf_ok and qi_ok and count == 33264 and elapsed < 60.0)


def test_criterion_05_components_inside_fibers(flagship_graph, acceptance):
    comps = flagship_graph.ij_components(1, 2)
    fibers = flagship_graph.fiber_partition(1, 2)
    owner = {v: t for t, part in enumerate(fibers) for v in part}
    contained = all(len({owner[v] for v in comp}) == 1 for comp in comps)
    assert contained                      # hard assertion
    assert len(fibers) == 63              # hard, derived count
    assert all(len(p) == 6 for p in fibers)
    equality = comps == fibers
    connected = len(flagship_graph.components()) == 1
    acceptance(
        f"criterion 05: pair components sit inside contraction fibers "
        f"(63 fibers of size 6); equality={equality}, connected={connected}",
        contained and len(fibers) == 63 and equality and connected)


def test_criterion_06_pair_graph_layer(acceptance):
    orders = {}
    for k, want in ((3, 6), (4, 48), (5, 120)):
        g = johnson_graph(k)
        engine = automorphism_group(g.adjlist).order()
        oracle = (brute_force_order(g.adjlist) if g.n <= 8
                  else backtracking_order(g.adjlist))
        assert engine == oracle == want
        orders[k] = engine
    j4 = johnson_graph(4)
    cm = pair_complement_map(4)
    detected = is_automorphism(j4.adjlist, cm)
    tau = {t: j4.labels[cm[v]] for v, t in enumerate(j4.labels)}
    kind, witness = classify_type_map(tau, 4)
    classified = kind == "complement-composed" and witness == (0, 1, 2, 3)
    assert detected and classified
    acceptance(
        "criterion 06: pair graphs have automorphism counts 6/48/120 "
        "(oracle-matched) and the four-label complement map is detected "
        "and classified",
        orders == {3: 6, 4: 48, 5: 120} and detected and classified)


def test_criterion_07_engine_fixtures(acceptance):
    cases = [
        (complete_graph(4), 24),
        (cycle_graph(5), 10),
        (petersen_graph(), 120),
        (path_graph(4), 2),
        (cycle_graph(6), 12),
        (johnson_graph(3), 6),
        (johnson_graph(4), 48),
    ]
    ok = True
    for g, want in cases:
        engine = automorphism_group(g.adjlist).order()
        assert engine == want
        if g.n <= 8:
            assert brute_force_order(g.adjlist) == want
        else:
            assert backtracking_order(g.adjlist) == want
        ok = ok and engine == want
    acceptance(
        "criterion 07: engine returns 24/10/120 on the classic fixtures and "
        "matches brute force on every graph with at most eight vertices",
        ok)


def test_criterion_08_induced_automorphisms(
        f9, flagship_graph, flagship_groups, acceptance):
    adj = flagship_graph.adjacency()
    checked = 0
    identity = f9.automorphisms()[0]
    for m in unitary_generators(f9, 3):
        assert is_automorphism(
            adj, semilinear_vertex_map(flagship_graph, m, identity))
        checked += 1
    frob = next(phi for phi in f9.automorphisms() if phi.name != "id")
    assert is_automorphism(
        adj, semilinear_vertex_map(flagship_graph, Matrix.identity(f9, 3), frob))
    checked += 1
    for images in permutations(range(3)):
        perm = slot_permutation_vertex_map(
            flagship_graph, SdPermutation(images))
        assert is_automorphism(adj, perm)
        checked += 1
    assert checked == 4 + 1 + 6
    group, _ = flagship_groups
    induced, full = prod(group.known_orbit_sizes), group.order()
    ratio = full / induced
    acceptance(
        f"criterion 08: all 11 induced maps are automorphisms; induced "
        f"order {induced} vs full {full} (ratio {ratio:g}, exploratory)",
        checked == 11 and induced > 0 and full >= induced)


def test_criterion_09_swap_and_obstruction(
        qi_sig, obstruction_report_gf9, acceptance):
    swap = verify_swap_lemma(QI, tuple(QI.parse_fixed(t) for t in "1234"))
    swap_ok = (swap["holds"]
               and swap["adjacent_to_first"] == [2, 3]
               and swap["adjacent_to_second"] == [0, 1])
    assert swap_ok
    pinned = verify_obstruction_lemma(qi_sig)
    assert pinned["holds"] and all(pinned["checks"].values())
    exhaustive = obstruction_report_gf9
    assert exhaustive["holds"]
    assert exhaustive["reverse_middles"] == 0
    acceptance(
        "criterion 09: pinned rational swap and obstruction instances "
        "verify, and no reverse-order middle flag exists anywhere in the "
        "GF(9)^3 class",
        swap_ok and pinned["holds"] and exhaustive["reverse_middles"] == 0)


def test_criterion_10_eigenvalue_relabel_isomorphism(
        f9, flagship_graph, acceptance):
    relabeled_sig = signature(f9, ("1", "2", "0"), (1, 1, 1))
    relabeled = LabeledGraph.build(relabeled_sig)
    same_vertices = ([f.key() for f in relabeled.vertices]
                     == [f.key() for f in flagship_graph.vertices])
    same_edges = relabeled.edges == flagship_graph.edges
    same_types = all(relabeled.label(u, v) == flagship_graph.label(u, v)
                     for u, v in flagship_graph.edges)
    assert same_vertices and same_edges and same_types
    acceptance(
        "criterion 10: relabeling the spectrum (0,1,2)->(1,2,0) leaves the "
        "edge set and edge labels fixed under the identity correspondence",
        same_vertices and same_edges and same_types)


def test_criterion_11_deterministic_reports(capsys, acceptance):
    runs = [
        ("enumerate", "--fixture", str(FIXTURES / "flagship.json")),
        ("enumerate", "--fixture", str(FIXTURES / "grassmann.json")),
        ("counterexample", "--fixture", str(FIXTURES / "qi3.json")),
        ("adjacency", "--pair-file", str(FIXTURES / "pair-rotated.json")),
        ("adjacency", "--pair-file", str(FIXTURES / "pair-swapped.json")),
        ("adjacency", "--pair-file", str(FIXTURES / "pair-identical.json")),
        ("adjacency", "--pair-file", str(FIXTURES / "pair-rank-only.json")),
    ]
    all_same = True
    for argv in runs:
        code1 = main(list(argv))
        out1 = capsys.readouterr().out
        code2 = main(list(argv))
        out2 = capsys.readouterr().out
        assert code1 == code2
        v1 = json.dumps(stable_view(json.loads(out1)), sort_keys=True)
        v2 = json.dumps(stable_view(json.loads(out2)), sort_keys=True)
        assert v1 == v2, argv[0]
        all_same = all_same and v1 == v2
    acceptance(
        "criterion 11: every fixture config yields byte-identical reports "
        "across repeated runs, up to the timing field",
        all_same)
