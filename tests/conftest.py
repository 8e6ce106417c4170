"""Shared session fixtures.

The flagship class (GF(9)^3, three simple eigenvalues) is enumerated,
censused, and analyzed once per session; the heavier verifier reports
are cached the same way so module tests and the acceptance gate share
one run each.  Acceptance verdicts collect in a summary block printed
at the end of the run, one line per criterion.
"""

import time

import pytest
from hypothesis import settings

from opgraphs import constructions
from opgraphs.autgroup import is_automorphism
from opgraphs.constructions import induced_subgroup
from opgraphs.graphs import LabeledGraph
from opgraphs.lemmas import verify_obstruction_lemma
from opgraphs.linalg import Matrix
from opgraphs.spectral import ClassSignature, enumerate_class
from opgraphs.starfield import QI, galois_field
from tests.oracles import classify_pairs

settings.register_profile("suite", deadline=None, max_examples=40)
settings.load_profile("suite")

_ACCEPTANCE = []


def signature(field, sigma_texts, dims):
    sigma = tuple(field.parse_fixed(t) for t in sigma_texts)
    return ClassSignature(field, sigma, tuple(dims))


def diag(field, entries):
    """The diagonal matrix with the given entries."""
    n = len(entries)
    return Matrix(field, [[entries[i] if i == j else field.zero
                           for j in range(n)] for i in range(n)])


@pytest.fixture(scope="session")
def f9():
    return galois_field(3, 1)


@pytest.fixture(scope="session")
def f16():
    return galois_field(2, 2)


@pytest.fixture(scope="session")
def qi_sig():
    return signature(QI, ("1", "2", "3"), (1, 1, 1))


@pytest.fixture(scope="session")
def flagship_sig(f9):
    return signature(f9, ("0", "1", "2"), (1, 1, 1))


@pytest.fixture(scope="session")
def flagship_flags(flagship_sig):
    return enumerate_class(flagship_sig)


@pytest.fixture(scope="session")
def flagship_census(flagship_flags):
    start = time.perf_counter()
    census = classify_pairs(flagship_flags)
    census.elapsed = time.perf_counter() - start
    return census


@pytest.fixture(scope="session")
def flagship_graph(flagship_sig):
    return LabeledGraph.build(flagship_sig)


@pytest.fixture(scope="session")
def flagship_groups(flagship_graph):
    """(full automorphism group seeded with the natural maps, labeled
    natural maps); the induced order is the product of the group's
    `known_orbit_sizes`."""
    return induced_subgroup(flagship_graph)


@pytest.fixture
def broken_natural_map(monkeypatch):
    """`induced_generators` with its first map, an isometry, replaced by
    the transposition of vertices 0 and 1, which is no automorphism."""
    real = constructions.induced_generators

    def broken(graph):
        gens = real(graph)
        swap = (1, 0, *range(2, graph.n))
        assert not is_automorphism(graph.adjacency(), swap)
        kind, data, _ = gens[0]
        gens[0] = (kind, data, swap)
        return gens

    monkeypatch.setattr(constructions, "induced_generators", broken)


@pytest.fixture(scope="session")
def grassmann_sig(f9):
    return signature(f9, ("0", "1"), (1, 2))


@pytest.fixture(scope="session")
def grassmann_flags(grassmann_sig):
    return enumerate_class(grassmann_sig)


@pytest.fixture(scope="session")
def grassmann_census(grassmann_flags):
    return classify_pairs(grassmann_flags)


@pytest.fixture(scope="session")
def grassmann_graph(grassmann_sig):
    return LabeledGraph.build(grassmann_sig)


@pytest.fixture(scope="session")
def obstruction_report_gf9(flagship_sig):
    return verify_obstruction_lemma(flagship_sig)


@pytest.fixture
def acceptance():
    def record(line, ok):
        _ACCEPTANCE.append((line, bool(ok)))
        assert ok, line
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for line, ok in sorted(_ACCEPTANCE):
        terminalreporter.write_line(("PASS  " if ok else "FAIL  ") + line)
