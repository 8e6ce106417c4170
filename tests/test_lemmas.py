"""One verifier per structural claim, on both scalar backends.

Frozen facts: the flagship census splits 71253 = 2835 + 33264 + 35154
with zero mismatches; the contracted grassmann graph has 1953 edges of
which 945 lift and 1008 are blocked by a degenerate meet line; the
pair graphs have automorphism counts 6, 48, 120.
"""

import pytest

from opgraphs import lemmas
from opgraphs.lemmas import (
    _rotated_pair_flag,
    verify_fiber_lift,
    verify_move_equivalence,
    verify_obstruction_lemma,
    verify_swap_lemma,
    verify_type_action,
)
from opgraphs.spectral import adjacency_slots, coordinate_flag
from opgraphs.starfield import QI, galois_field
from tests.conftest import signature


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


@pytest.mark.parametrize("i,j", [(2, 0), (2, 1), (0, 1), (0, 2), (1, 0), (1, 2)])
def test_fiber_lift_splits_over_gf9(flagship_sig, i, j):
    report = verify_fiber_lift(flagship_sig, i, j)
    assert report["mode"] == "exhaustive"
    assert report["merged_slots"] == [i, j]
    assert report["contracted_edges"] == 1953
    assert report["liftable"] == 945
    assert report["blocked_by_degenerate_meet"] == 1008
    assert report["exceptions_to_dichotomy"] == 0
    assert not report["holds"]
    assert report["liftable"] + report["blocked_by_degenerate_meet"] == 1953


def test_fiber_lift_takes_both_slots_or_neither(flagship_sig):
    with pytest.raises(ValueError):
        verify_fiber_lift(flagship_sig, 1)
    with pytest.raises(ValueError):
        verify_fiber_lift(flagship_sig, j=1)


def test_swap_over_the_rationals():
    report = verify_swap_lemma(QI)
    assert report["mode"] == "pinned"
    assert report["holds"]
    assert report["adjacent_to_first"] == [2, 3]
    assert report["adjacent_to_second"] == [0, 1]


def test_swap_over_gf16(f16):
    report = verify_swap_lemma(f16)
    assert report["mode"] == "pinned"
    assert report["holds"]


def test_swap_unavailable_over_gf9(f9):
    # the fixed subfield GF(3) cannot seat four distinct eigenvalues
    report = verify_swap_lemma(f9)
    assert report["mode"] == "unavailable"
    assert not report["holds"]
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
        flagship_sig):
    # the natural generators hold by construction; the ones the search
    # found are what the class-side check is for
    report = verify_type_action(flagship_sig)
    maps = report["class_graph"]["generators"]
    assert ([m["generator"] == "search" for m in maps]
            == [False] * 10 + [True] * 6)
    assert {m["classified"] for m in maps} == {"permutation"}
    assert report["holds"]


def test_type_action_lets_unexpected_errors_through(monkeypatch):
    # only an incoherent label map (TypeMapError) reads as "does not hold"
    def broken(graph, perm):
        raise RuntimeError("bug in the label map")

    monkeypatch.setattr(lemmas, "induced_type_map", broken)
    sig = signature(galois_field(2, 1), ("0", "1"), (1, 2))
    with pytest.raises(RuntimeError, match="bug in the label map"):
        verify_type_action(sig)
