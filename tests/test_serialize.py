"""JSON and DOT round trips, plus the shipped fixture files."""

from pathlib import Path

from opgraphs.serialize import (
    EDGE_PALETTE,
    adjacency_to_dot,
    graph_to_dot,
    group_to_json,
    load_json,
    load_pair,
    pair_from_json,
    pair_to_json,
    partition_to_json,
    save_json,
    save_pair,
)
from opgraphs.graphs import petersen_graph
from opgraphs.spectral import (
    adjacency_slots,
    coordinate_flag,
    invariance_condition,
    rank_condition,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_save_and_load_json(tmp_path):
    path = tmp_path / "blob.json"
    save_json(path, {"b": [1, 2], "a": {"x": "y"}})
    assert load_json(path) == {"a": {"x": "y"}, "b": [1, 2]}
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')  # keys are sorted


def test_pair_roundtrip(tmp_path, qi_sig):
    from opgraphs.counterexamples import find_rank_only_pair

    a = coordinate_flag(qi_sig)
    b, _ = find_rank_only_pair(a, seed=0)
    blob = pair_to_json(a, b)
    a2, b2 = pair_from_json(blob)
    assert a2 == a and b2 == b
    path = tmp_path / "pair.json"
    save_pair(path, a, b)
    a3, b3 = load_pair(path)
    assert a3 == a and b3 == b


def test_fixture_configs_parse():
    for name in ("flagship", "grassmann", "qi3"):
        cfg = load_json(FIXTURES / f"{name}.json")
        assert cfg["backend"] in ("gf", "qi")
        assert "sigma" in cfg and "dims" in cfg


def test_fixture_pairs_reproduce_worked_examples():
    a, b = load_pair(FIXTURES / "pair-rotated.json")
    assert rank_condition(a, b) and invariance_condition(a, b)
    assert adjacency_slots(a, b) == (0, 1)
    a, b = load_pair(FIXTURES / "pair-swapped.json")
    assert adjacency_slots(a, b) == (0, 1)
    a, b = load_pair(FIXTURES / "pair-identical.json")
    assert a == b
    assert not rank_condition(a, b)
    a, b = load_pair(FIXTURES / "pair-rank-only.json")
    assert rank_condition(a, b)
    assert not invariance_condition(a, b)


def test_group_to_json():
    blob = group_to_json(72576, [(1, 0, 2), (0, 2, 1)])
    assert blob["order"] == "72576"
    assert blob["generators"] == [[1, 0, 2], [0, 2, 1]]


def test_partition_to_json():
    assert partition_to_json(((0, 2), (1,))) == [[0, 2], [1]]


def test_graph_to_dot_palette(flagship_graph):
    dot = graph_to_dot(flagship_graph)
    assert dot.startswith("graph classgraph {")
    assert dot.rstrip().endswith("}")
    for i in range(3):
        assert EDGE_PALETTE[i] in dot
    assert dot.count(" -- ") == 2835
    # one legend comment per edge label
    assert dot.count("// slots") == 3


def test_adjacency_to_dot():
    pet = petersen_graph()
    dot = adjacency_to_dot(pet.adjlist, labels=pet.labels)
    assert dot.count(" -- ") == 15
    assert dot.count("label=") == 10
    plain = adjacency_to_dot(pet.adjlist)
    assert plain.count("label=") == 0
