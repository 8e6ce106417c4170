"""One verifier per structural claim, on both scalar backends.

Frozen facts: the flagship census splits 71253 = 2835 + 33264 + 35154
with zero mismatches; the contracted grassmann graph has 1953 edges of
which 945 lift and 1008 are blocked by a degenerate meet line; the
pair graphs have automorphism counts 6, 48, 120.
"""

from collections import Counter

import pytest

from opgraphs import constructions, lemmas
from opgraphs.constructions import ConstructionError, unitary_generators
from opgraphs.graphs import LabeledGraph
from opgraphs.lemmas import (
    _lift_pair_from_meet,
    _rotated_pair_flag,
    verify_fiber_lift,
    verify_move_equivalence,
    verify_obstruction_lemma,
    verify_swap_lemma,
    verify_type_action,
)
from opgraphs.spectral import adjacency_slots, contract, coordinate_flag
from opgraphs.starfield import QI, galois_field
from tests.conftest import signature
from tests.oracles import key_index


def test_move_equivalence_sampled_over_the_rationals(qi_sig):
    report = verify_move_equivalence(qi_sig, samples=6, seed=1)
    assert report["mode"] == "sampled"
    assert report["holds"]
    assert report["mismatches"] == 0
    assert report["pairs"] > 0


def test_move_equivalence_exhaustive_over_gf9(flagship_sig):
    report = verify_move_equivalence(flagship_sig)
    assert report["mode"] == "exhaustive"
    assert report["holds"]
    assert report["pairs"] == 71253
    assert report["adjacent"] == 2835
    assert report["rank_without_invariance"] == 33264
    assert report["mismatches"] == 0


def test_rotated_pair_flag_moves_exactly_two_slots(qi_sig):
    base = coordinate_flag(qi_sig)
    other = _rotated_pair_flag(qi_sig, base, 0, 1)
    assert adjacency_slots(base, other) == (0, 1)
    assert other.spaces[2] == base.spaces[2]
    # the tilt scan resplits a plane slot too
    sig = signature(QI, ("1", "2", "3"), (2, 1, 1))
    plane = coordinate_flag(sig)
    assert adjacency_slots(plane, _rotated_pair_flag(sig, plane, 0, 1)) == (0, 1)


def test_fiber_lift_unavailable_without_a_pinned_split():
    # merging slot 2 into slot 0 leaves a 3-space, not the pinned plane
    report = verify_fiber_lift(signature(QI, ("1", "2", "3"), (2, 1, 1)))
    assert report["mode"] == "unavailable"
    assert not report["holds"]


def test_fiber_lift_pinned_over_the_rationals(qi_sig):
    report = verify_fiber_lift(qi_sig)
    assert report["mode"] == "pinned"
    assert report["merged_slots"] == [2, 0]
    assert report["contracted_adjacent"]
    assert report["lift_constructed"]
    assert report["lift_adjacent"]
    assert report["holds"]


LIFT_COUNTS = ("contracted_edges", "liftable", "blocked_by_degenerate_meet",
               "exceptions_to_dichotomy")


def all_edges_lift_counts(graph, i, j):
    """The lift counts with every contracted edge classified: the oracle
    of the one-row count of `verify_fiber_lift`."""
    sig = graph.vertices[0].signature
    graph2 = LabeledGraph.build(sig.contracted(i, j))
    index = key_index(graph2)
    owner = [index[contract(flag, i, j).key()] for flag in graph.vertices]
    lifted = {tuple(sorted((owner[u], owner[v]))) for u, v in graph.edges}
    counts = Counter(contracted_edges=len(graph2.edges))
    for u, v in graph2.edges:
        pair = _lift_pair_from_meet(graph2.vertices[u], graph2.vertices[v],
                                    i, j, sig)
        if pair is not None and adjacency_slots(*pair) is not None:
            counts["liftable"] += 1
        elif pair is None and (u, v) not in lifted:
            counts["blocked_by_degenerate_meet"] += 1
        else:
            counts["exceptions_to_dichotomy"] += 1
    return {key: counts[key] for key in LIFT_COUNTS}


@pytest.mark.parametrize("i,j", [(2, 0), (2, 1), (0, 1), (0, 2), (1, 0), (1, 2)])
def test_fiber_lift_splits_over_gf9(flagship_sig, flagship_graph, i, j):
    report = verify_fiber_lift(flagship_sig, i, j)
    assert report["mode"] == "exhaustive"
    assert report["merged_slots"] == [i, j]
    assert report["contracted_edges"] == 1953
    assert report["liftable"] == 945
    assert report["blocked_by_degenerate_meet"] == 1008
    assert report["exceptions_to_dichotomy"] == 0
    assert not report["holds"]
    assert report["liftable"] + report["blocked_by_degenerate_meet"] == 1953
    # one certified row of the contracted class K63
    assert report["orbit_size"] == report["class_size_closed_form"] == 63
    assert report["pairs_classified"] == 62
    assert ({key: report[key] for key in LIFT_COUNTS}
            == all_edges_lift_counts(flagship_graph, i, j))


def test_fiber_lift_matches_the_all_edges_oracle_over_gf16(f16):
    sig = signature(f16, ("0", "1", "2"), (1, 1, 1))
    report = verify_fiber_lift(sig)
    oracle = all_edges_lift_counts(LabeledGraph.build(sig), 2, 0)
    assert oracle == {"contracted_edges": 21528, "liftable": 13728,
                      "blocked_by_degenerate_meet": 7800,
                      "exceptions_to_dichotomy": 0}
    assert {key: report[key] for key in LIFT_COUNTS} == oracle
    assert report["orbit_size"] == report["class_size_closed_form"] == 208
    assert report["pairs_classified"] == 207


@pytest.mark.parametrize("attribute, value", [
    ("unitary_generators", lambda field, n: unitary_generators(field, n)[:1]),
    ("class_size", lambda sig: 64),
], ids=["one-generator", "wrong-closed-form"])
def test_fiber_lift_refuses_to_scale_uncertified(
        flagship_sig, monkeypatch, attribute, value):
    monkeypatch.setattr(constructions, attribute, value)
    with pytest.raises(ConstructionError, match="not certified transitive"):
        verify_fiber_lift(flagship_sig)


def test_fiber_lift_checks_the_contracted_edge_count(flagship_sig, monkeypatch):
    # vertex 0 keeps degree 60 in a contracted K63 short of two vertices'
    # edges, so 63 rows of 60 edges overcount its 1830 edges
    class ShortContraction(LabeledGraph):
        @classmethod
        def build(cls, sig):
            graph = LabeledGraph.build(sig)
            if sig.k == 2:
                (label, vs), = graph.cliques
                graph = LabeledGraph(graph.vertices, [(label, vs[:-2])],
                                     graph.forms)
            return graph

    monkeypatch.setattr(lemmas, "LabeledGraph", ShortContraction)
    with pytest.raises(ConstructionError, match="1830 contracted edges"):
        verify_fiber_lift(flagship_sig)


def test_fiber_lift_takes_both_slots_or_neither(flagship_sig):
    with pytest.raises(ValueError):
        verify_fiber_lift(flagship_sig, 1)
    with pytest.raises(ValueError):
        verify_fiber_lift(flagship_sig, j=1)


def fixed_sigma(field, texts):
    return tuple(field.parse_fixed(t) for t in texts)


def test_swap_over_the_rationals():
    report = verify_swap_lemma(QI, fixed_sigma(QI, "1234"))
    assert report["mode"] == "pinned"
    assert report["holds"]
    assert report["adjacent_to_first"] == [2, 3]
    assert report["adjacent_to_second"] == [0, 1]


def test_swap_over_gf16(f16):
    report = verify_swap_lemma(f16, fixed_sigma(f16, "0123"))
    assert report["mode"] == "pinned"
    assert report["holds"]


def test_swap_unavailable_over_gf9(f9):
    # the fixed subfield GF(3) cannot seat four distinct eigenvalues
    with pytest.raises(ValueError):
        verify_swap_lemma(f9, sigma=tuple(f9.fixed_elements()))


def test_swap_refuses_a_sigma_that_is_not_four_values():
    five = tuple(QI.parse_fixed(str(t)) for t in (1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="exactly four"):
        verify_swap_lemma(QI, sigma=five)


def test_obstruction_pinned_over_the_rationals(qi_sig):
    report = verify_obstruction_lemma(qi_sig)
    assert report["mode"] == "pinned"
    assert report["holds"]
    assert all(report["checks"].values())
    assert report["slots"] == [0, 1, 2]


def test_obstruction_fails_on_an_orthogonal_witness(qi_sig, monkeypatch):
    # a witness whose moved slot t is orthogonal to the base slot i
    # blocks nothing, so the lemma must not hold on it
    real = lemmas.obstruction_witness

    def orthogonal_witness(A, i, j, t):
        data = real(A, i, j, t)
        B = data["end"]
        data["end"] = B.move(t, j, coordinate_flag(qi_sig).spaces[t])
        assert data["end"] is not None
        assert A.spaces[i].is_orthogonal_to(data["end"].spaces[t])
        return data

    monkeypatch.setattr(lemmas, "obstruction_witness", orthogonal_witness)
    report = verify_obstruction_lemma(qi_sig)
    assert not report["checks"]["blocking_nonorthogonality"]
    assert not report["holds"]


def test_obstruction_unavailable_without_line_slots(f9):
    report = verify_obstruction_lemma(signature(f9, ("0", "1", "2"), (1, 1, 2)))
    assert report["mode"] == "unavailable"
    assert not report["holds"]


def test_obstruction_exhaustive_over_gf9(obstruction_report_gf9):
    report = obstruction_report_gf9
    assert report["mode"] == "pinned+exhaustive"
    assert report["holds"]
    assert report["reverse_middles"] == 0
    assert all(report["checks"].values())


def test_type_action_reference_layer():
    report = verify_type_action()
    assert report["holds"]
    assert report["complement_is_automorphism"]
    for k, want in (("3", 6), ("4", 48), ("5", 120)):
        row = report["pair_graphs"][k]
        assert row["order"] == want
        assert row["expected"] == want
        assert row["backtrack"] == want
    assert "class_graph" not in report


def test_type_action_reports_orders_as_strings(flagship_sig):
    graph = verify_type_action(flagship_sig)["class_graph"]
    assert (graph["induced_order"] == graph["induced_order_closed_form"]
            == graph["automorphism_order"] == "72576")


def test_type_action_classifies_every_generator_of_the_full_group(
        flagship_sig, grassmann_sig):
    # the natural generators hold by construction; the ones the search
    # found are what the class-side check is for
    report = verify_type_action(flagship_sig)
    maps = report["class_graph"]["generators"]
    assert [m["generator"] == "search" for m in maps] == [False] * 7
    assert {m["classified"] for m in maps} == {"permutation"}
    assert report["holds"]
    # at index > 1 the search still finds generators of its own
    maps = verify_type_action(grassmann_sig)["class_graph"]["generators"]
    assert any(m["generator"] == "search" for m in maps)


def test_type_action_lets_unexpected_errors_through(monkeypatch):
    # only an incoherent label map (TypeMapError) reads as "does not hold"
    def broken(graph, perm):
        raise RuntimeError("bug in the label map")

    monkeypatch.setattr(lemmas, "induced_type_map", broken)
    sig = signature(galois_field(2, 1), ("0", "1"), (1, 2))
    with pytest.raises(RuntimeError, match="bug in the label map"):
        verify_type_action(sig)
