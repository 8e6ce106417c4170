"""End-to-end command-line runs, in process.

Exit codes: 0 verified, 1 usage or unavailable or exhausted search,
2 a finite backend genuinely diverges from the definite-form claim.
"""

import hashlib
import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import factorial, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgraphs import autgroup, cli, constructions
from opgraphs.autgroup import StabChain, is_automorphism
from opgraphs.cli import LEMMAS, _resolve, _signature, build_parser, main
from opgraphs.graphs import LabeledGraph
from opgraphs.report import stable_view
from opgraphs.serialize import load_json
from tests.oracles import canonical_json

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_enumerate_default_flagship(capsys):
    code, rep = run(capsys, "enumerate")
    assert code == 0
    assert rep["command"] == "enumerate"
    assert rep["results"]["vertex_count"] == 378
    # the class is walked as one certified orbit
    assert rep["results"]["orbit_size"] == 378
    assert rep["results"]["class_size_closed_form"] == 378
    assert rep["config"]["dims"] == [1, 1, 1]
    assert rep["config"]["backend"]["order"] == 9
    assert rep["config"]["sigma"] == ["0", "1", "2"]


def test_enumerate_fixture_config(capsys):
    code, rep = run(capsys, "enumerate", "--fixture", str(FIXTURES / "grassmann.json"))
    assert code == 0
    assert rep["results"]["vertex_count"] == 63


def test_enumerate_dump_flags(capsys):
    code, rep = run(capsys, "enumerate", "--sigma", "0,1", "--dims", "1,2",
                    "--dump-flags")
    assert code == 0
    flags = rep["results"]["flags"]
    assert len(flags) == 63
    # one entry per slot: a line and a plane
    assert [len(space["rows"]) for space in flags[0]] == [1, 2]
    assert all(space["ambient"] == 3 for space in flags[0])


def test_enumerate_rejects_rational_backend(capsys):
    code, rep = run(capsys, "enumerate", "--backend", "qi", "--sigma", "1,2,3")
    assert code == 1
    assert "finite" in rep["results"]["error"]


def test_enumerate_rejects_malformed_sigma(capsys):
    code, rep = run(capsys, "enumerate", "--sigma", "0,0,1")
    assert code == 1
    assert "error" in rep["results"]


@pytest.mark.parametrize("name,a1,a2,verdict", [
    ("pair-rotated", True, True, "adjacent"),
    ("pair-swapped", True, True, "adjacent"),
    ("pair-identical", False, True, "not adjacent"),
    ("pair-rank-only", True, False, "A1∧¬A2"),
])
def test_adjacency_fixture_pairs(capsys, name, a1, a2, verdict):
    code, rep = run(capsys, "adjacency", "--pair-file",
                    str(FIXTURES / f"{name}.json"))
    assert code == 0
    res = rep["results"]
    assert res["a1_rank"] == a1
    assert res["a2_invariance"] == a2
    assert res["verdict"] == verdict
    assert res["conditions_match_geometry"]
    if verdict == "adjacent":
        assert res["type"] == [0, 1]


def test_adjacency_requires_pair_file(capsys):
    code, rep = run(capsys, "adjacency")
    assert code == 1
    assert "pair" in rep["results"]["error"]


def test_components_pair_subgraph(capsys, tmp_path):
    dot = tmp_path / "comps.dot"
    code, rep = run(capsys, "components", "--type", "ij", "--i", "1", "--j", "2",
                    "--dot", str(dot))
    assert code == 0
    res = rep["results"]
    assert res["slot_pair"] == [1, 2]
    assert res["component_count"] == 63
    assert res["component_sizes"] == [6]
    assert res["fiber_count"] == 63
    assert res["fiber_sizes"] == [6]
    assert res["every_component_in_a_fiber"]
    assert res["components_equal_fibers"]
    assert dot.read_text().startswith("graph")


def test_components_eigenspace_blocks(capsys):
    code, rep = run(capsys, "components", "--type", "ibar", "--i", "2")
    assert code == 0
    res = rep["results"]
    assert res["slot"] == 2
    assert res["component_count"] == 63
    assert res["block_count"] == 63
    assert res["every_component_in_a_block"]
    assert res["components_equal_blocks"]


def test_components_global_connectivity(capsys):
    code, rep = run(capsys, "components", "--type", "global")
    assert code == 0
    assert rep["results"]["component_count"] == 1
    assert rep["results"]["connected"]


def test_automorphisms_petersen(capsys):
    code, rep = run(capsys, "automorphisms", "--graph", "petersen")
    assert code == 0
    assert rep["results"]["automorphism_order"] == "120"
    assert rep["results"]["vertex_count"] == 10


def test_automorphisms_johnson(capsys):
    code, rep = run(capsys, "automorphisms", "--graph", "johnson", "--n", "5")
    assert code == 0
    assert rep["results"]["automorphism_order"] == "120"


def test_automorphisms_compare_induced_on_flagship(capsys):
    code, rep = run(capsys, "automorphisms", "--fixture",
                    str(FIXTURES / "flagship.json"), "--compare-induced")
    assert code == 0
    res = rep["results"]
    assert res["induced_order"] == res["induced_order_closed_form"] == "72576"
    assert res["induced_generator_count"] == 7
    assert res["index_of_induced"] == 1
    assert res["induced_equals_full"] is True


K40 = ("--p", "2", "--e", "1", "--sigma", "0,1", "--dims", "1,3")
GF4_22 = ("--p", "2", "--e", "1", "--sigma", "0,1", "--dims", "2,2")
FLAGSHIP_INDUCED = ("--fixture", str(FIXTURES / "flagship.json"),
                    "--compare-induced")
GRASSMANN_INDUCED = ("--fixture", str(FIXTURES / "grassmann.json"),
                     "--compare-induced")

# SHA-256 of `automorphisms --generators-out` files, pinned so that a
# faster chain or refinement cannot change which generators are found
GENERATOR_FILES = [
    (GF4_22, "4138a4240e36af9ea42545cee6652eb2f80c0ccd3324547352cde6b99f9d7686"),
    (FLAGSHIP_INDUCED,
     "08a5345bece7549dace92e3e147e76599c939fb5aaf7df35e9457fff190e374d"),
    (K40, "96603aea7b1e2049b7e6fe8264d412dbaee100cf645fc6a4dd04b225b54991df"),
    (GRASSMANN_INDUCED,
     "42feb57dc02681b9271a2d3b229929da3087c5246999c29ad90884a3e0647136"),
]
GENERATOR_IDS = ["GF(4)^4 2,2", "flagship compare-induced", "K40",
                 "grassmann compare-induced"]


@pytest.mark.parametrize("argv, digest", GENERATOR_FILES, ids=GENERATOR_IDS)
def test_generator_files_are_pinned(capsys, tmp_path, argv, digest):
    out = tmp_path / "group.json"
    code, _ = run(capsys, "automorphisms", *argv, "--generators-out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# grassmann (63!) is left out: closing S_63 with the deterministic chain
# takes tens of seconds
@pytest.mark.parametrize("argv", [argv for argv, _ in GENERATOR_FILES[:3]],
                         ids=GENERATOR_IDS[:3])
def test_generator_files_generate_the_reported_group(capsys, tmp_path, argv):
    # the deterministic stabilizer chain is the oracle for the order the
    # search reads off its first path
    out = tmp_path / "group.json"
    code, rep = run(capsys, "automorphisms", *argv, "--generators-out", str(out))
    assert code == 0
    field, sigma, dims, _, _ = _resolve(build_parser().parse_args(
        ["automorphisms", *argv]))
    adj = LabeledGraph.build(_signature(field, sigma, dims)).adjacency()
    group = load_json(out)
    chain = StabChain(len(adj))
    for g in group["generators"]:
        assert is_automorphism(adj, tuple(g))
        chain.close([g])
    res = rep["results"]
    assert str(chain.order()) == group["order"] == res["automorphism_order"]
    assert str(prod(res["first_path_orbits"])) == group["order"]


# the search tree's shape, pinned so that a faster refinement cannot
# change it: K_n is one class of closed twins, so its quotient is one
# vertex and costs one node
SEARCH_TREES = [
    (K40, 1, list(range(40, 1, -1))),
    (GF4_22, 7, [240, 4, 2, 9, 2, 3]),
    (FLAGSHIP_INDUCED, 7, [378, 2, 3, 4, 2, 4]),
    (GRASSMANN_INDUCED, 1, list(range(63, 1, -1))),
]


@pytest.mark.parametrize("argv, nodes, orbits", SEARCH_TREES,
                         ids=["K40", "GF(4)^4 2,2", "flagship compare-induced",
                              "grassmann compare-induced"])
def test_search_trees_are_pinned(capsys, argv, nodes, orbits):
    code, rep = run(capsys, "automorphisms", *argv)
    assert code == 0
    assert rep["results"]["search_nodes"] == nodes
    assert rep["results"]["first_path_orbits"] == orbits


def test_orders_past_the_int_string_limit_are_reported(capsys, monkeypatch):
    # 2000! has 5736 digits, past the default limit of 4300 on int-to-str
    # conversion; K2107 and K3264 have such orders
    orbits = range(2000, 1, -1)
    real = cli.induced_subgroup

    def huge(graph, node_budget):
        group, gens = real(graph, node_budget=node_budget)
        return autgroup.AutomorphismGroup(
            group.base, orbits, group.known_orbit_sizes, group.generators(),
            group.nodes), gens

    monkeypatch.setattr(cli, "induced_subgroup", huge)
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
    try:
        code, rep = run(capsys, "automorphisms", *K40)
        assert code == 0
        assert int(rep["results"]["automorphism_order"]) == factorial(2000)
    finally:
        if limited:
            sys.set_int_max_str_digits(saved)


def test_automorphisms_report_search_counters(capsys):
    code, rep = run(capsys, "automorphisms", "--graph", "petersen")
    assert code == 0
    res = rep["results"]
    assert res["first_path_orbits"] == [10, 3, 2, 2]
    nodes = res["search_nodes"]
    # the count is exactly what the search charges against --budget
    code, rep = run(capsys, "automorphisms", "--graph", "petersen",
                    "--budget", str(nodes))
    assert code == 0 and rep["results"]["search_nodes"] == nodes
    code, rep = run(capsys, "automorphisms", "--graph", "petersen",
                    "--budget", str(nodes - 1))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("automorphisms", *GF4_22),
    ("automorphisms", *FLAGSHIP_INDUCED),
    ("automorphisms", "--graph", "petersen"),
    ("verify-lemma", "--fixture", str(FIXTURES / "flagship.json"),
     "--lemma", "johnson-tau"),
], ids=["GF(4)^4 2,2", "flagship compare-induced", "petersen", "johnson-tau"])
def test_budget_errors_echo_the_config_and_the_work(capsys, argv):
    code, done = run(capsys, *argv)
    assert code == 0
    code, rep = run(capsys, *argv, "--budget", "5")
    assert code == 1
    assert rep["config"] == {**done["config"], "budget": 5}
    res = rep["results"]
    assert res["error"] == "automorphism search exceeded 5 nodes"
    assert res["search_nodes"] == 5
    # what was computed before the search ran out is kept as it was
    kept = {k: v for k, v in res.items() if k not in ("error", "search_nodes")}
    assert kept.items() <= done["results"].items()


def test_verify_lemma_a1a2_equiv(capsys):
    code, rep = run(capsys, "verify-lemma", "--lemma", "a1a2-equiv")
    assert code == 0
    res = rep["results"]
    assert res["holds"]
    assert res["pairs"] == 71253
    assert res["mismatches"] == 0
    assert res["orbit_size"] == res["class_size_closed_form"] == 378
    assert res["pairs_classified"] == 377


def test_verify_lemma_lift_diverges_on_gf9(capsys):
    code, rep = run(capsys, "verify-lemma", "--lemma", "lift")
    assert code == 2
    res = rep["results"]
    assert not res["holds"]
    assert res["liftable"] == 945
    assert res["blocked_by_degenerate_meet"] == 1008


def test_verify_lemma_lift_holds_over_qi(capsys):
    code, rep = run(capsys, "verify-lemma", "--lemma", "lift",
                    "--backend", "qi", "--sigma", "1,2,3")
    assert code == 0
    assert rep["results"]["holds"]


def test_verify_lemma_swap_unavailable_on_gf9(capsys):
    code, rep = run(capsys, "verify-lemma", "--lemma", "swap")
    assert code == 1
    assert "error" in rep["results"]


def test_verify_lemma_swap_over_qi_and_gf16(capsys):
    code, rep = run(capsys, "verify-lemma", "--lemma", "swap", "--backend", "qi")
    assert code == 0
    assert rep["results"]["holds"]
    assert rep["results"]["adjacent_to_first"] == [2, 3]
    code, rep = run(capsys, "verify-lemma", "--lemma", "swap",
                    "--p", "2", "--e", "2")
    assert code == 0
    assert rep["results"]["holds"]


def test_verify_lemma_swap_takes_its_own_class(capsys):
    # the class it runs is the one the config echoes, given or not
    for argv in (("--p", "2", "--e", "2", "--sigma", "0,1,2,3", "--dims", "1,1,1,1"),
                 ("--p", "2", "--e", "2"),
                 ("--backend", "qi")):
        code, rep = run(capsys, "verify-lemma", "--lemma", "swap", *argv)
        assert code == 0
        assert rep["config"]["dims"] == rep["results"]["signature"]["dims"] == [1, 1, 1, 1]
        assert len(rep["config"]["sigma"]) == 4


def test_verify_lemma_obstruction(capsys):
    code, rep = run(capsys, "verify-lemma", "--lemma", "obstruction")
    assert code == 0
    assert rep["results"]["holds"]
    assert rep["results"]["reverse_middles"] == 0


def test_counterexample_exhaustive_on_gf9(capsys):
    code, rep = run(capsys, "counterexample")
    assert code == 0
    res = rep["results"]
    assert res["mode"] == "exhaustive"
    assert res["outcome"] == "certified"
    assert res["rank_only_count"] == 33264
    assert res["total_pairs"] == 71253
    assert res["condition_mismatches"] == 0
    assert len(res["certificates"]) == 3
    assert all(c["ok"] for c in res["verification"])


@pytest.mark.parametrize("limit, pairs_classified", [(3, 377), (200, 477)])
def test_counterexample_counts_its_work(capsys, limit, pairs_classified):
    code, rep = run(capsys, "counterexample", "--limit", str(limit))
    assert code == 0
    res = rep["results"]
    assert res["orbit_size"] == res["class_size_closed_form"] == 378
    assert res["pairs_classified"] == pairs_classified
    assert len(res["certificates"]) == limit


@pytest.mark.parametrize("argv", [
    ("counterexample",),
    ("verify-lemma", "--lemma", "a1a2-equiv"),
    ("verify-lemma", "--lemma", "lift"),
    ("enumerate",),
    ("automorphisms", "--compare-induced"),
], ids=" ".join)
def test_uncertified_transitivity_is_an_error_report(capsys, monkeypatch, argv):
    first = constructions.unitary_generators
    monkeypatch.setattr(constructions, "unitary_generators",
                        lambda field, n: first(field, n)[:1])
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["results"]["error"].startswith(
        "ConstructionError: U(n,q) is not certified transitive")


def test_counterexample_rational_search(capsys):
    code, rep = run(capsys, "counterexample", "--backend", "qi",
                    "--sigma", "1,2,3", "--seed", "0")
    assert code == 0
    res = rep["results"]
    assert res["mode"] == "randomized"
    assert res["outcome"] == "certified"
    assert res["verification"]["ok"]
    assert res["certificate"]["rank_witness"]["determinant"] == ["-936/27637", "0"]


# SHA-256 of the stable view of Q(i) reports, pinned so that a change
# of the scalar representation cannot move a single byte of them
QI_REPORTS = [
    (("counterexample", "--fixture", "qi3.json", "--seed", "0"),
     "72a928723426bbba503d99a04745b54b3ec56ac1c5f25e62e42cdcfe52cb5616"),
    (("counterexample", "--fixture", "qi3.json", "--seed", "3"),
     "5124627288350b2dcf2e42a723ced4fc37777350f3c40c503220d6a972be9558"),
    (("verify-lemma", "--fixture", "qi3.json", "--lemma", "a1a2-equiv",
      "--samples", "40", "--seed", "0"),
     "167bc84f2c37dfedba21ad0c0f8841d25a1fc8e4829b3ee8b4a3d005141cd913"),
    (("adjacency", "--pair-file", "pair-rank-only.json"),
     "3ba407a44bd422e2935c684a68ac717ebafed0bcb95c3a5920e8837741228055"),
]


@pytest.mark.parametrize("argv, digest", QI_REPORTS,
                         ids=["counterexample seed 0", "counterexample seed 3",
                              "a1a2-equiv", "adjacency rank-only"])
def test_qi_reports_are_pinned(capsys, argv, digest):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, rep = run(capsys, *argv)
    assert code == 0
    stable = canonical_json(stable_view(rep))
    assert hashlib.sha256(stable.encode()).hexdigest() == digest


def test_counterexample_budget_exhaustion(capsys):
    code, rep = run(capsys, "counterexample", "--backend", "qi",
                    "--sigma", "1,2,3", "--budget", "1")
    assert code == 1
    assert rep["results"]["outcome"] == "budget-exhausted"
    assert rep["results"]["attempts"] == 1
    assert rep["results"]["error"] == "no certified pair within 1 attempts"


def test_counterexample_two_eigenvalues_is_vacuous(capsys):
    code, rep = run(capsys, "counterexample", "--sigma", "0,1", "--dims", "1,2")
    assert code == 1
    assert "invariant" in rep["results"]["error"]


def test_reports_are_deterministic(capsys):
    c1, r1 = run(capsys, "counterexample", "--backend", "qi", "--sigma", "1,2,3")
    c2, r2 = run(capsys, "counterexample", "--backend", "qi", "--sigma", "1,2,3")
    assert c1 == c2 == 0
    assert stable_view(r1) == stable_view(r2)
    assert r1["results"] == r2["results"]


def test_out_writes_the_same_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, rep = run(capsys, "enumerate", "--sigma", "0,1", "--dims", "1,2",
                    "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text()) == rep


# malformed input files, written under tmp_path by the test below
BAD_FILES = {
    "not-json.json": "{not json",
    "list.json": "[1, 2]",
    "p-text.json": '{"p": "x"}',
    "e-float.json": '{"e": 1.5}',
    "seed-list.json": '{"seed": [1]}',
    "dims-text.json": '{"dims": "1,y"}',
}
NO_DIR = "no-such-dir/report.json"    # under tmp_path, so never writable


@pytest.mark.parametrize("argv", [
    ("enumerate", "--p", "4"),
    ("enumerate", "--p", "2", "--e", "5"),
    ("automorphisms", "--fixture", "flagship.json", "--budget", "3"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "lift",
     "--i", "5", "--j", "0"),
    ("components", "--fixture", "flagship.json", "--i", "0", "--j", "0"),
    ("components", "--fixture", "flagship.json", "--type", "ibar", "--i", "3"),
    ("counterexample", "--fixture", "flagship.json", "--limit", "-1"),
    ("enumerate", "--dims", "1,x"),
    ("enumerate", "--fixture", "not-json.json"),
    ("enumerate", "--fixture", "list.json"),
    ("enumerate", "--fixture", "p-text.json"),
    ("enumerate", "--fixture", "e-float.json"),
    ("enumerate", "--fixture", "seed-list.json"),
    ("enumerate", "--fixture", "dims-text.json"),
    ("adjacency", "--pair-file", "list.json"),
    ("verify-lemma", "--backend", "qi", "--lemma", "a1a2-equiv",
     "--samples", "-3"),
    ("automorphisms", "--fixture", "flagship.json", "--budget", "0"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "johnson-tau",
     "--budget", "0"),
    ("automorphisms", "--graph", "johnson", "--n", "1"),
    ("counterexample", "--backend", "qi", "--sigma", "1,2,3", "--budget", "-5"),
    ("counterexample", "--backend", "qi", "--sigma", "1,2,3", "--budget", "0"),
    ("verify-lemma", "--backend", "qi", "--sigma", "1,1,2",
     "--lemma", "johnson-tau"),
    # rejected by argparse itself
    ("enumerate", "--p", "x"),
    ("adjacency", "--pair-file", "pair-rank-only.json",
     "--fixture", "no-such.json", "--dims", "7", "--seed", "3"),
    ("adjacency", "--pair-file", "pair-rank-only.json", "--backend", "qi"),
    ("enumerate", "--dims", "-1,4"),
    ("verify-lemma", "--lemma", "nonsense"),
    (),
    # exceptions no command anticipates
    ("verify-lemma", "--p", "2", "--e", "1", "--sigma", "0,1", "--dims", "2,1",
     "--lemma", "obstruction"),
    ("enumerate", "--sigma", "0,1", "--dims", "1,2", "--out", NO_DIR),
], ids=lambda argv: " ".join(argv) or "(no arguments)")
def test_bad_input_ends_in_one_error_report(capsys, tmp_path, argv):
    for name, text in BAD_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str((tmp_path if a in BAD_FILES or a == NO_DIR else FIXTURES) / a)
            if a.endswith(".json") else a for a in argv]
    code = main(argv)
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["results"]["error"]


def test_error_reports_name_unexpected_exceptions(capsys, tmp_path,
                                                  monkeypatch):
    def broken(sig):
        raise ValueError("enumeration failed")

    monkeypatch.setattr("opgraphs.cli.enumerate_class", broken)
    out = tmp_path / "error.json"
    code, rep = run(capsys, "enumerate", "--sigma", "0,1", "--dims", "1,2",
                    "--out", str(out))
    assert code == 1
    assert rep["command"] == "enumerate"
    assert rep["results"]["error"] == "ValueError: enumeration failed"
    # a failed run still writes its report to a writable --out
    assert json.loads(out.read_text()) == rep
    code, rep = run(capsys, "counterexample", "--sigma", "0,1",
                    "--dims", "1,2")
    assert rep["results"]["error"].startswith("a rank-two difference")


@pytest.mark.parametrize("argv", [
    ("enumerate", "--p", "4"),
    ("enumerate", "--p", "2", "--e", "5"),
    ("enumerate", "--sigma", "0,1,9"),
    ("enumerate", "--sigma", "0,0,1"),
    ("enumerate", "--p", "2", "--e", "1", "--sigma", "0,1", "--dims", "1,1"),
    ("verify-lemma", "--lemma", "swap", "--backend", "qi", "--sigma", "1,2,x,4"),
    ("verify-lemma", "--lemma", "swap", "--sigma", "0,1,2"),
    ("verify-lemma", "--fixture", "grassmann.json", "--lemma", "lift"),
    ("components", "--fixture", "grassmann.json", "--type", "ij",
     "--i", "0", "--j", "1"),
    ("enumerate", "--backend", "qi", "--sigma", "1,2,3"),
    ("components", "--backend", "qi", "--sigma", "1,2,3"),
    ("automorphisms", "--backend", "qi", "--sigma", "1,2,3"),
    ("counterexample", "--backend", "qi", "--sigma", "1,2,3", "--dims", "2,1,1"),
    ("counterexample", "--backend", "qi", "--sigma", "1,2,3,4",
     "--dims", "1,1,1,1"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "lift",
     "--i", "1"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "lift",
     "--j", "1"),
    ("automorphisms", "--graph", "petersen", "--compare-induced"),
    ("automorphisms", "--graph", "petersen", "--fixture", "no-such.json",
     "--p", "7"),
    ("automorphisms", "--graph", "petersen", "--seed", "1"),
    ("automorphisms", "--graph", "petersen", "--n", "9"),
    ("automorphisms", "--graph", "johnson", "--dims", "1,1,1"),
    ("automorphisms", "--graph", "johnson", "--fixture", "flagship.json"),
    ("automorphisms", "--fixture", "flagship.json", "--n", "9"),
    ("verify-lemma", "--backend", "qi", "--sigma", "1,2,3", "--dims", "2,1,1",
     "--lemma", "lift"),
    ("verify-lemma", "--p", "3", "--e", "1", "--sigma", "0,1,2",
     "--dims", "1,1,2", "--lemma", "obstruction"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "a1a2-equiv",
     "--i", "0", "--j", "1"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "obstruction",
     "--i", "0"),
    ("verify-lemma", "--fixture", "flagship.json", "--lemma", "johnson-tau",
     "--j", "1"),
    ("verify-lemma", "--p", "2", "--e", "2", "--lemma", "swap", "--i", "0"),
    ("components", "--fixture", "flagship.json", "--type", "global", "--i", "0"),
    ("components", "--fixture", "flagship.json", "--type", "global", "--j", "1"),
    ("components", "--fixture", "flagship.json", "--type", "ibar", "--j", "1"),
    ("verify-lemma", "--lemma", "swap", "--p", "2", "--e", "2",
     "--sigma", "0,1,2,3", "--dims", "1,1"),
    ("verify-lemma", "--lemma", "swap", "--backend", "qi", "--sigma", "1,2,3,4,5"),
    ("verify-lemma", "--lemma", "swap", "--p", "2", "--e", "2",
     "--sigma", "0,0,1,2,3"),
    ("adjacency", "--pair-file", "missing.json"),
    ("enumerate", "--fixture", "missing.json"),
], ids=" ".join)
def test_bad_field_or_class_is_a_usage_error(capsys, argv):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, rep = run(capsys, *argv)
    assert code == 1
    error = rep["results"]["error"]
    assert error and not re.match(r"\w+: ", error)   # no `<Type>: ` prefix


def test_unreadable_input_files_are_usage_errors(capsys, tmp_path):
    for option in (("enumerate", "--fixture"), ("adjacency", "--pair-file")):
        code, rep = run(capsys, *option, str(tmp_path))   # a directory
        assert code == 1
        assert rep["results"]["error"].startswith("cannot read")


@pytest.mark.parametrize("argv, exit_code, walks", [
    (("counterexample", "--fixture", "flagship.json", "--limit", "3"), 0, 1),
    (("verify-lemma", "--fixture", "flagship.json", "--lemma", "a1a2-equiv"),
     0, 1),
    (("automorphisms", "--fixture", "flagship.json", "--compare-induced"),
     0, 1),
    # the class and the contracted class
    (("verify-lemma", "--fixture", "flagship.json", "--lemma", "lift"), 2, 2),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x))
def test_each_class_is_walked_once(capsys, monkeypatch, argv, exit_code, walks):
    calls = []
    walk = constructions._orbit

    def counted(*args):
        calls.append(args[0])
        return walk(*args)

    monkeypatch.setattr(constructions, "_orbit", counted)
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    code, _ = run(capsys, *argv)
    assert code == exit_code
    assert len(calls) == walks


INDUCED_COMMANDS = [
    ("automorphisms", *FLAGSHIP_INDUCED),
    ("verify-lemma", "--fixture", str(FIXTURES / "flagship.json"),
     "--lemma", "johnson-tau"),
]
INDUCED_IDS = ["flagship compare-induced", "johnson-tau"]


@pytest.mark.parametrize("argv", INDUCED_COMMANDS, ids=INDUCED_IDS)
def test_the_natural_maps_are_verified_and_closed_once(capsys, monkeypatch,
                                                       argv):
    # only the seeded search verifies the natural maps and closes them
    # (into its chain on the class's vertices): 4 isometries, 1 Frobenius
    # map and 2 slot transpositions, and at index 1 no leaf is checked
    n = 378
    chains, checks = [], []
    init, real_check = autgroup.StabChain.__init__, autgroup.is_automorphism

    def counted_init(self, points, *args, **kwargs):
        chains.append(points)
        init(self, points, *args, **kwargs)

    def counted_check(adjlist, perm):
        checks.append(len(adjlist))
        return real_check(adjlist, perm)

    monkeypatch.setattr(autgroup.StabChain, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("opgraphs.") and hasattr(module, "is_automorphism"):
            monkeypatch.setattr(module, "is_automorphism", counted_check)
    code, _ = run(capsys, *argv)
    assert code == 0
    assert chains.count(n) == 1
    assert checks.count(n) == 7


@pytest.mark.parametrize("argv", INDUCED_COMMANDS, ids=INDUCED_IDS)
def test_a_broken_natural_map_ends_in_one_error_report(
        capsys, broken_natural_map, argv):
    code, rep = run(capsys, *argv)
    assert code == 1
    assert rep["results"] == {
        "error": "ValueError: known generator is not an automorphism"}


# An argv grammar for the fuzz below: a well-formed command line, with
# one value replaced by a malformed one in about half of the draws.
# Every class is GF(4) or Q(i) with its options spelled out, so no draw
# falls back to the GF(9) defaults.  Output paths are placed in a fresh
# directory per draw; NO_DIR there is never writable.
MISSING = str(FIXTURES / "no-such-dir" / "missing.json")
MALFORMED = ("x", "-1", "0", "1,x", "", MISSING)
OUTPUTS = ("report.json", "graph.dot", "group.json", NO_DIR)
CLASSES = [{"--p": "2", "--e": "1", "--sigma": sigma, "--dims": dims}
           for sigma in ("0,1", "1,0") for dims in ("1,2", "2,1", "1,1")]
CLASSES += [{"--backend": "qi", "--sigma": "1,2,3", "--dims": dims}
            for dims in ("1,1,1", "2,1,1")]
SLOTS = ("0", "1", "2", "5")
COMMANDS = {    # option -> its well-formed values; None marks a flag
    "enumerate": {"--dump-flags": (None,)},
    "adjacency": {"--pair-file": tuple(
        str(FIXTURES / f"pair-{name}.json")
        for name in ("rotated", "swapped", "identical", "rank-only"))},
    "components": {"--type": ("ij", "ibar", "global"), "--i": SLOTS,
                   "--j": SLOTS, "--dot": ("graph.dot", NO_DIR)},
    "automorphisms": {"--graph": ("class", "petersen", "johnson"),
                      "--n": ("2", "4", "6"), "--compare-induced": (None,),
                      "--budget": ("1", "3", "100000"),
                      "--generators-out": ("group.json", NO_DIR),
                      "--dot": ("graph.dot", NO_DIR)},
    "verify-lemma": {"--lemma": LEMMAS, "--i": SLOTS, "--j": SLOTS,
                     "--budget": ("1", "100000")},
    "counterexample": {"--budget": ("0", "1", "5"),
                       "--limit": ("0", "1", "3")},
}
COMMON = {"--seed": ("0", "3"), "--out": ("report.json", NO_DIR)}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = dict(draw(st.sampled_from(CLASSES)))
    if command == "verify-lemma":
        options["--samples"] = draw(st.sampled_from(("1", "5")))
    for flag, values in {**COMMANDS[command], **COMMON}.items():
        if draw(st.booleans()):
            options[flag] = draw(st.sampled_from(values))
    if draw(st.booleans()):
        spoil = sorted(flag for flag, value in options.items()
                       if value is not None and value not in OUTPUTS)
        flag = draw(st.sampled_from(spoil))
        options[flag] = draw(st.sampled_from(MALFORMED))
    argv = [command]
    for flag, value in draw(st.permutations(sorted(options.items()))):
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=80)
@given(argv=argvs())
def test_any_argv_ends_in_one_report(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("fuzz")
    argv = [str(work / a) if a in OUTPUTS else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    rep = json.loads(out.getvalue())
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    if "error" in rep["results"]:
        assert code == 1 and rep["results"]["error"]
    written = work / "report.json"
    if written.exists():
        assert json.loads(written.read_text()) == rep
