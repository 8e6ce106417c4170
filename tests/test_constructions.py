"""Maps into class graphs: isometries, field maps, slot moves, the
orbit-reduced pair census, the orthocomplement twist, the
independent-pair swap, and the one-sided path obstruction."""

import hashlib
import json
from fractions import Fraction
from itertools import islice, permutations, product
from math import prod
from random import Random

import pytest

from opgraphs import constructions
from opgraphs.autgroup import StabChain, is_automorphism
from opgraphs.constructions import (
    ConstructionError,
    chow_image,
    induced_generators,
    induced_order,
    induced_subgroup,
    is_isometry,
    obstruction_witness,
    orbit_census,
    point_form,
    point_permutation,
    projective_points,
    reverse_middle_flags,
    sd_generators,
    sd_group_order,
    semilinear_vertex_map,
    slot_hyperplanes,
    slot_permutation_vertex_map,
    swap_flag,
    unitary_generators,
    unitary_order,
)
from opgraphs.graphs import LabeledGraph
from opgraphs.lemmas import _rotated_pair_flag
from opgraphs.linalg import Matrix, Subspace
from opgraphs.spectral import (EigenFlag, SdPermutation, adjacency_slots,
                               coordinate_flag, enumerate_class)
from opgraphs.starfield import QI, galois_field
from tests.conftest import diag, signature
from tests.oracles import (chain_contains, chain_generators, classify_pairs,
                           gaussian_binomial, key_index, norm_one_vectors,
                           permute_slots, semilinear_image, subspaces,
                           subspaces_within, unitary_group)

# D = diag(zeta, 1, ...), the n-cycle C, the transposition T and the
# block B, as `constructions._named_isometries` builds them
GEN_ROWS_U3_GF9 = (
    ((3, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((4, 4, 0), (5, 7, 0), (0, 0, 1)),
)

GEN_ROWS_U3_GF4 = (
    ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    ((1, 1, 1), (1, 2, 3), (1, 3, 2)),
)

GEN_ROWS_U4_GF4 = (
    ((2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0)),
    ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, 1, 1, 0), (1, 2, 3, 0), (1, 3, 2, 0), (0, 0, 0, 1)),
)


def qi(re, im=0):
    return QI.scalar(Fraction(re), Fraction(im))


def test_isometry_group_orders(f9):
    assert len(norm_one_vectors(f9, 3)) == 252
    assert sum(1 for _ in unitary_group(f9, 2)) == 96
    assert sum(1 for _ in unitary_group(f9, 3)) == 24192
    for m in islice(unitary_group(f9, 3), 50):
        assert is_isometry(f9, m)


@pytest.mark.parametrize("field, n, message", [
    (QI, 3, "need a finite star-field"),
    (galois_field(3, 1), 2, "need n >= 3, got 2"),
], ids=["Q(i)", "n=2"])
def test_unitary_generators_refuse_what_they_cannot_certify(field, n, message):
    with pytest.raises(ConstructionError, match=message):
        unitary_generators(field, n)


NAMED_CASES = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 3),
               (2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 5), (2, 1, 6)]


@pytest.mark.parametrize("p, e, n", NAMED_CASES,
                         ids=[f"U({n},{p ** e})" for p, e, n in NAMED_CASES])
def test_named_isometries_certify(p, e, n):
    # the call itself certifies the point chain at |PU(n,q)|, or raises
    field = galois_field(p, e)
    zero, one = field.zero, field.one
    D, C, T, B = unitary_generators(field, n)
    assert all(is_isometry(field, M) for M in (D, C, T, B))
    identity = Matrix.identity(field, n).rows
    # D = diag(zeta, 1, ...) with zeta of order q+1
    zeta = D.rows[0][0]
    assert D.rows[1:] == identity[1:] and D.rows[0][1:] == identity[0][1:]
    powers = [one]
    while (x := field.mul(powers[-1], zeta)) != one:
        powers.append(x)
    assert len(powers) == field.q + 1
    # C and T permute coordinates: the n-cycle and the transposition (0 1)
    assert C.rows == identity[1:] + identity[:1]
    assert T.rows == (identity[1], identity[0]) + identity[2:]
    # B is no monomial matrix, and fixes every coordinate past the third
    assert any(sum(x != zero for x in row) > 1 for row in B.rows)
    assert B.rows[3:] == identity[3:]
    assert all(row[3:] == (zero,) * (n - 3) for row in B.rows[:3])


@pytest.mark.parametrize("q, n, p, e", [
    (2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 3, 1), (3, 3, 3, 1), (4, 2, 2, 2)])
def test_unitary_order_counts_the_scan(q, n, p, e):
    field = galois_field(p, e)
    assert field.q == q
    assert sum(1 for _ in unitary_group(field, n)) == unitary_order(q, n)


@pytest.mark.parametrize("char, n, rows, order", [
    (3, 3, GEN_ROWS_U3_GF9, 24192),
    (2, 3, GEN_ROWS_U3_GF4, 648),
    (2, 4, GEN_ROWS_U4_GF4, 77760),
], ids=["GF(9)^3", "GF(4)^3", "GF(4)^4"])
def test_isometry_generators_are_frozen_and_generate(char, n, rows, order):
    field = galois_field(char, 1)
    gens = unitary_generators(field, n)
    assert tuple(m.rows for m in gens) == rows
    if n == 3:
        # each named generator is one of the isometries the oracle lists
        assert {m.rows for m in gens} <= {m.rows for m in unitary_group(field, n)}
    # independent closure: a product walk over matrices recovers the group
    ident = Matrix.identity(field, n)
    seen = {ident.rows}
    frontier = [ident]
    while frontier:
        m = frontier.pop()
        for g in gens:
            p = g @ m
            if p.rows not in seen:
                seen.add(p.rows)
                frontier.append(p)
    assert len(seen) == order


def assert_census_matches_oracle(flags, oracle, limit):
    census = orbit_census(flags[0].signature, limit=limit)
    assert (census.total, census.rank_other, census.adjacent_count,
            census.rank_only_count, census.mismatch_count) == (
        oracle.total, oracle.rank_other, oracle.adjacent_count,
        oracle.rank_only_count, len(oracle.mismatches))
    assert census.rank_only == oracle.rank_only[:limit]
    assert census.orbit_size == census.class_size_closed_form == len(flags)
    assert census.flags == tuple(flags)
    return census


@pytest.mark.parametrize("limit", [0, 3, 200])
def test_orbit_census_matches_the_oracle_on_flagship(
        flagship_flags, flagship_census, limit):
    # row 0 holds 176 rank-only pairs, so limit 200 reads on into row 1
    assert sum(1 for u, _ in flagship_census.rank_only if u == 0) == 176
    census = assert_census_matches_oracle(
        flagship_flags, flagship_census, limit)
    if limit <= 176:
        assert census.pairs_classified == 377
    else:
        assert census.pairs_classified > 377
        assert census.rank_only[-1][0] == 1


def test_orbit_census_matches_the_oracle_on_grassmann(
        grassmann_flags, grassmann_census):
    assert_census_matches_oracle(grassmann_flags, grassmann_census, 3)


@pytest.mark.parametrize("dims", [(1, 2), (2, 2)], ids=["GF(4)^3", "GF(4)^4"])
def test_orbit_census_matches_the_oracle_over_gf4(dims):
    flags = enumerate_class(signature(galois_field(2, 1), ("0", "1"), dims))
    assert_census_matches_oracle(flags, classify_pairs(flags), 3)


@pytest.mark.parametrize("attribute, value", [
    ("unitary_generators", lambda field, n: unitary_generators(field, n)[:1]),
    ("class_size", lambda sig: 379),
], ids=["one-generator", "wrong-closed-form"])
def test_orbit_census_refuses_to_scale_uncertified(
        flagship_sig, monkeypatch, attribute, value):
    monkeypatch.setattr(constructions, attribute, value)
    with pytest.raises(ConstructionError, match="not certified transitive"):
        orbit_census(flagship_sig)


def _shear(f9):
    return Matrix(f9, ((f9.one, f9.one, f9.zero),
                       (f9.zero, f9.one, f9.zero),
                       (f9.zero, f9.zero, f9.one)))


def test_projective_points_are_sorted_rref_rows(f9):
    rows, ids = projective_points(f9, 3)
    assert len(rows) == 91 == gaussian_binomial(3, 1, 9)
    assert list(rows) == sorted(rows)
    assert all(Subspace.line(f9, v).rows == (v,) for v in rows)
    assert all(ids[v] == i for i, v in enumerate(rows))
    # the table names every nonzero vector by the row of its line
    nonzero = [w for w in product(f9.elements(), repeat=3) if any(w)]
    assert len(nonzero) == len(ids) == 728
    assert all(rows[ids[w]] == Subspace.line(f9, w).rows[0] for w in nonzero)
    units = [c for c in f9.elements() if c != f9.zero]
    assert all(ids[tuple(f9.mul(c, x) for x in v)] == i
               for i, v in enumerate(rows) for c in units)


def test_isometry_scan_certifies_on_projective_points(f9, monkeypatch):
    chains = []

    class Recording(StabChain):
        def __init__(self, n, known_order=None, base=()):
            chains.append((n, known_order))
            super().__init__(n, known_order, base)

    monkeypatch.setattr(constructions, "StabChain", Recording)
    unitary_generators.cache_clear()
    try:
        unitary_generators(f9, 3)
        unitary_generators(galois_field(2, 1), 4)
    finally:
        unitary_generators.cache_clear()
    # |PU(3,3)| = 24192 / 4 and |PU(4,2)| = 77760 / 3 on the points of
    # PG(2, 9) and PG(3, 4), not on the 252 and 120 norm-one vectors
    assert chains == [(91, 6048), (85, 25920)]


def test_isometry_scan_refuses_a_subgroup(f9, monkeypatch):
    named = constructions._named_isometries
    # D, C and T without B: the monomial isometries
    monkeypatch.setattr(constructions, "_named_isometries",
                        lambda field, n: named(field, n)[:3])
    unitary_generators.cache_clear()
    try:
        # 3! * 4^3 monomial isometries, 96 modulo the 4 norm-one scalars
        with pytest.raises(ConstructionError,
                           match="^isometries generate order 96, expected 6048$"):
            unitary_generators(f9, 3)
    finally:
        unitary_generators.cache_clear()


@pytest.mark.parametrize("p, e, n", [(3, 1, 3), (2, 1, 4), (2, 2, 3)],
                         ids=["GF(9)^3", "GF(4)^4", "GF(16)^3"])
def test_projective_points_match_the_line_oracle(p, e, n):
    field = galois_field(p, e)
    rows, _ = projective_points(field, n)
    assert rows == tuple(sorted(S.rows[0] for S in subspaces(field, n, 1)))


@pytest.mark.parametrize("p, n", [(3, 3), (2, 4)], ids=["GF(9)^3", "GF(4)^4"])
def test_slot_hyperplanes_match_the_oracle(p, n):
    # every subspace in every dimension, so hyperplanes of 3- and
    # 4-spaces, which no class graph keys on, are covered too
    field = galois_field(p, 1)
    _, index = projective_points(field, n)

    def ids(H):
        return tuple(sorted(index[L.rows[0]] for L in subspaces_within(H, 1)))

    for d in range(1, n + 1):
        for S in subspaces(field, n, d):
            assert (sorted(slot_hyperplanes(S, index))
                    == sorted(map(ids, subspaces_within(S, d - 1))))


def test_point_permutation_refuses_singular_maps(f9):
    singular = Matrix(f9, ((f9.one, f9.zero, f9.zero),
                           (f9.one, f9.zero, f9.zero),
                           (f9.zero, f9.zero, f9.one)))
    with pytest.raises(ConstructionError, match="sends a point to zero"):
        point_permutation(f9, singular, f9.automorphisms()[0])


def test_orbit_walk_refuses_a_generator_that_is_no_isometry(
        flagship_sig, f9, monkeypatch):
    monkeypatch.setattr(constructions, "_named_isometries",
                        lambda field, n: (_shear(f9),))
    unitary_generators.cache_clear()
    try:
        with pytest.raises(ConstructionError, match="is not an isometry"):
            enumerate_class(flagship_sig)
    finally:
        unitary_generators.cache_clear()


def test_orbit_walk_refuses_to_certify_one_generator(
        flagship_sig, monkeypatch):
    monkeypatch.setattr(constructions, "unitary_generators",
                        lambda field, n: unitary_generators(field, n)[:1])
    with pytest.raises(ConstructionError,
                       match="^U\\(n,q\\) is not certified transitive"):
        enumerate_class(flagship_sig)


@pytest.mark.parametrize("p, sigma, dims", [
    (3, ("0", "1", "2"), (1, 1, 1)),
    (3, ("0", "1"), (1, 2)),
    (2, ("0", "1"), (2, 2)),
], ids=["flagship", "grassmann", "GF(4)^4 2,2"])
def test_point_permutation_vertex_maps_match_the_oracle(p, sigma, dims):
    sig = signature(galois_field(p, 1), sigma, dims)
    graph = LabeledGraph.build(sig)
    field = sig.field
    id_map, *galois = field.automorphisms()
    identity = Matrix.identity(field, sig.ambient)
    maps = ([(M, id_map) for M in unitary_generators(field, sig.ambient)]
            + [(identity, phi) for phi in galois])
    index = key_index(graph)
    for M, phi in maps:
        oracle = tuple(index[semilinear_image(flag, M, phi).key()]
                       for flag in graph.vertices)
        assert semilinear_vertex_map(graph, M, phi) == oracle
    for delta in sd_generators(sig):
        oracle = tuple(index[permute_slots(flag, delta).key()]
                       for flag in graph.vertices)
        assert slot_permutation_vertex_map(graph, delta) == oracle
    assert graph.forms == tuple(map(point_form, graph.vertices))


def test_slot_permutation_vertex_map_refuses_dimension_changes(grassmann_graph):
    with pytest.raises(ValueError, match="does not preserve dimensions"):
        slot_permutation_vertex_map(grassmann_graph, SdPermutation((1, 0)))


def test_linear_vertex_maps_from_isometries(flagship_graph, f9):
    identity = f9.automorphisms()[0]
    for m in unitary_generators(f9, 3):
        perm = semilinear_vertex_map(flagship_graph, m, identity)
        assert sorted(perm) == list(range(flagship_graph.n))
        assert is_automorphism(flagship_graph.adjacency(), perm)


def test_linear_vertex_map_rejects_non_isometries(flagship_graph, f9):
    shear = Matrix(f9, ((f9.one, f9.one, f9.zero),
                        (f9.zero, f9.one, f9.zero),
                        (f9.zero, f9.zero, f9.one)))
    assert not is_isometry(f9, shear)
    with pytest.raises(ConstructionError, match="not a flag of the class"):
        semilinear_vertex_map(flagship_graph, shear, f9.automorphisms()[0])


def test_field_automorphism_vertex_map(flagship_graph, f9):
    frob = next(phi for phi in f9.automorphisms() if phi.name != "id")
    perm = semilinear_vertex_map(flagship_graph, Matrix.identity(f9, 3), frob)
    assert is_automorphism(flagship_graph.adjacency(), perm)
    # applying it twice gives the identity: x -> x^9 = x
    n = flagship_graph.n
    assert tuple(perm[perm[v]] for v in range(n)) == tuple(range(n))


def test_field_automorphisms_moving_the_spectrum_act_too(f16):
    # eigenvalues inside GF(4) but outside GF(2) move under x -> x^2,
    # yet applied slotwise, slot labels kept, it maps the class onto itself
    w = f16.fixed_elements()[2]
    sig = signature(f16, ("0", "2"), (1, 2))
    assert sig.sigma[1] == w
    graph = LabeledGraph.build(sig)
    assert graph.n == 208  # 273 lines, 65 isotropic
    galois = f16.automorphisms()[1:]
    assert len(galois) == 3
    assert any(phi(w) != w for phi in galois)
    for phi in galois:
        perm = semilinear_vertex_map(graph, Matrix.identity(f16, 3), phi)
        assert sorted(perm) == list(range(graph.n))
        assert is_automorphism(graph.adjacency(), perm)


def test_slot_permutation_vertex_maps(flagship_graph):
    for delta in sd_generators(flagship_graph.vertices[0].signature):
        perm = slot_permutation_vertex_map(flagship_graph, delta)
        assert is_automorphism(flagship_graph.adjacency(), perm)


def test_sd_group_bookkeeping():
    sig3 = signature(QI, ("1", "2", "3"), (1, 1, 1))
    assert len(sd_generators(sig3)) == 2
    assert sd_group_order(sig3) == 6
    sig_grass = signature(QI, ("1", "2"), (1, 2))
    assert sd_generators(sig_grass) == []
    assert sd_group_order(sig_grass) == 1
    sig_paired = signature(QI, ("1", "2", "3", "4"), (1, 1, 2, 2))
    assert len(sd_generators(sig_paired)) == 2
    assert sd_group_order(sig_paired) == 4


def test_induced_generator_inventory(flagship_graph, flagship_groups):
    group, gens = flagship_groups
    kinds = [kind for kind, _, _ in gens]
    assert kinds.count("isometry") == 4
    assert kinds.count("field-automorphism") == 1
    assert kinds.count("slot-permutation") == 2
    assert len(gens) == 7
    perms = [perm for _, _, perm in gens]
    for perm in perms:
        assert is_automorphism(flagship_graph.adjacency(), perm)
    # the search's generators start with the natural maps, and its chain
    # on them reaches the closed form
    assert group.generators()[:7] == perms
    assert prod(group.known_orbit_sizes) == 72576


def test_induced_generators_take_every_galois_map(flagship_groups, f9):
    _, gens = flagship_groups
    names = [data for kind, data, _ in gens if kind == "field-automorphism"]
    assert names == [phi.name for phi in f9.automorphisms()[1:]] == ["frob^1"]


def natural_closure(graph, base=()):
    """The natural maps closed by `close` up to `induced_order`, as
    the seeded search closes them on its base.  On K208 (GF(16)^3 dims
    (1,2)) the seeded search walks 20720 nodes, so the tests close the
    maps this way there instead of calling `induced_subgroup`."""
    gens = induced_generators(graph)
    chain = StabChain(graph.n, induced_order(graph.vertices[0].signature),
                      base=base)
    chain.close(perm for _, _, perm in gens)
    return chain, gens


@pytest.mark.parametrize("p, e, sigma, dims, order, generators, search", [
    (3, 1, ("0", "1", "2"), (1, 1, 1), 72576, 7, True),
    (3, 1, ("0", "1"), (1, 2), 12096, 5, True),
    (2, 1, ("0", "1"), (1, 2), 432, 5, True),
    (2, 1, ("0", "1"), (1, 3), 51840, 5, True),
    (2, 1, ("0", "1"), (2, 2), 103680, 6, True),
    (2, 2, ("0", "2"), (1, 2), 249600, 7, False),
    (2, 2, ("0", "1", "2"), (1, 1, 1), 1497600, 9, True),
], ids=["GF(9)^3 1,1,1", "GF(9)^3 1,2", "GF(4)^3 1,2", "GF(4)^4 1,3",
        "GF(4)^4 2,2", "GF(16)^3 1,2", "GF(16)^3 1,1,1"])
def test_induced_order_matches_the_closed_form(
        p, e, sigma, dims, order, generators, search):
    sig = signature(galois_field(p, e), sigma, dims)
    assert induced_order(sig) == order
    graph = LabeledGraph.build(sig)
    # the closure is deterministic; GF(4)^4 needs a Schreier generator
    # past the sifted natural maps
    if search:
        group, gens = induced_subgroup(graph)
        assert prod(group.known_orbit_sizes) == order
        again, _ = induced_subgroup(graph)
        assert ((again.base, again.generators(), again.known_orbit_sizes,
                 again.nodes) == (group.base, group.generators(),
                                  group.known_orbit_sizes, group.nodes))
    else:
        chain, gens = natural_closure(graph)
        assert all(is_automorphism(graph.adjacency(), perm)
                   for _, _, perm in gens)
        assert chain.order() == order
        again, _ = natural_closure(graph)
        assert ((again.base, chain_generators(again))
                == (chain.base, chain_generators(chain)))
    assert len(gens) == generators


@pytest.mark.parametrize("p, e, sigma, dims, search", [
    (3, 1, ("0", "1", "2"), (1, 1, 1), True),
    (2, 1, ("0", "1"), (2, 2), True),
    (2, 2, ("0", "2"), (1, 2), False),
], ids=["GF(9)^3 1,1,1", "GF(4)^4 2,2", "GF(16)^3 1,2"])
def test_known_order_stop_matches_the_full_closure(p, e, sigma, dims, search):
    graph = LabeledGraph.build(signature(galois_field(p, e), sigma, dims))
    base = ()
    if search:
        group, _ = induced_subgroup(graph)
        base = group.base
    chain, gens = natural_closure(graph, base)
    if search:
        # the chain the seeded search closed on its base
        assert tuple(map(len, chain.orbits)) == group.known_orbit_sizes
    full = StabChain(graph.n)
    for _, _, perm in gens:
        full.close([perm])
    assert full.order() == chain.order() == induced_order(
        graph.vertices[0].signature)
    assert all(chain_contains(chain, g) for g in chain_generators(full))


@pytest.mark.parametrize("attribute, value, message", [
    ("unitary_generators", lambda field, n: unitary_generators(field, n)[:1],
     "natural maps generate order"),
    ("class_size", lambda sig: 64, "the class 64"),
], ids=["one-generator", "wrong-class-size"])
def test_induced_subgroup_refuses_to_certify(
        grassmann_graph, monkeypatch, attribute, value, message):
    monkeypatch.setattr(constructions, attribute, value)
    with pytest.raises(ConstructionError, match=message):
        induced_subgroup(grassmann_graph)


def test_induced_subgroup_refuses_a_broken_natural_map(
        flagship_graph, broken_natural_map):
    # the grassmann graph is complete, so every permutation is an
    # automorphism there
    with pytest.raises(ValueError,
                       match="known generator is not an automorphism"):
        induced_subgroup(flagship_graph)


def test_chow_image_twists_the_second_slot():
    sig = signature(QI, ("1", "2"), (1, 2))
    flag = EigenFlag(sig, (
        Subspace.line(QI, (qi(1), qi(0), qi(1))),
        Subspace(QI, 3, [(qi(1), qi(0), qi(-1)), (qi(0), qi(1), qi(0))]),
    ))
    m = diag(QI, [qi(1), qi(1), qi(2)])
    img = chow_image(flag, m)
    assert img.spaces[0] == Subspace.line(QI, (qi(1), qi(0), qi(2)))
    assert img.spaces[1] == img.spaces[0].orthocomplement()
    # the twist genuinely differs from the slotwise image of the old slot
    slotwise = flag.spaces[1].map_rows(lambda r: tuple(m.apply(r)))
    assert img.spaces[1] != slotwise
    # isometries never disagree with the slotwise map
    swap01 = Matrix(QI, ((qi(0), qi(1), qi(0)), (qi(1), qi(0), qi(0)), (qi(0), qi(0), qi(1))))
    img2 = chow_image(flag, swap01)
    assert img2.spaces[1] == flag.spaces[1].map_rows(lambda r: tuple(swap01.apply(r)))


def test_chow_image_needs_two_slots(qi_sig):
    with pytest.raises(ConstructionError):
        chow_image(coordinate_flag(qi_sig), Matrix.identity(QI, 3))


def test_chow_image_rejects_degenerating_maps():
    sig = signature(QI, ("1", "2"), (1, 2))
    # send the first slot onto an isotropic line of the twisted form:
    # no isotropic lines exist over the rationals with the definite
    # form, so degeneration cannot happen there; use GF(9) instead
    f9 = galois_field(3, 1)
    gsig = signature(f9, ("0", "1"), (1, 2))
    graph = LabeledGraph.build(gsig)
    # an invertible map sending some nondegenerate line to an isotropic one
    shear = Matrix(f9, ((f9.one, f9.one, f9.zero),
                        (f9.zero, f9.one, f9.zero),
                        (f9.zero, f9.zero, f9.one)))
    with pytest.raises(ConstructionError):
        for flag in graph.vertices:
            chow_image(flag, shear)


def test_unitary_diagonal_vertex_map_is_an_automorphism(grassmann_graph, f9):
    m = diag(f9, [f9.one, f9.one, f9.neg(f9.one)])  # diag(1, 1, -1)
    assert is_isometry(f9, m)
    perm = semilinear_vertex_map(grassmann_graph, m, f9.automorphisms()[0])
    assert is_automorphism(grassmann_graph.adjacency(), perm)


def swap_instance():
    sig = signature(QI, ("1", "2", "3", "4"), (1, 1, 1, 1))
    a = coordinate_flag(sig)
    b = EigenFlag(sig, (
        Subspace.line(QI, (qi(1), qi(1), qi(0), qi(0))),
        Subspace.line(QI, (qi(1), qi(-1), qi(0), qi(0))),
        Subspace.line(QI, (qi(0), qi(0), qi(1), qi(1))),
        Subspace.line(QI, (qi(0), qi(0), qi(1), qi(-1))),
    ))
    return sig, a, b


def test_swap_mixes_independent_pairs():
    sig, a, b = swap_instance()
    mixed = swap_flag(a, b, (0, 1), (2, 3))
    assert mixed.spaces[:2] == a.spaces[:2]
    assert mixed.spaces[2:] == b.spaces[2:]
    assert adjacency_slots(mixed, a) == (2, 3)
    assert adjacency_slots(mixed, b) == (0, 1)


def test_swap_precondition_errors():
    sig, a, b = swap_instance()
    with pytest.raises(ConstructionError):
        swap_flag(a, b, (0, 1), (1, 2))  # overlapping pairs
    # same summand redistributed differently: pairs must carry the
    # same orthogonal pieces
    c = EigenFlag(sig, (
        Subspace.line(QI, (qi(1), qi(0), qi(0), qi(0))),
        Subspace.line(QI, (qi(0), qi(0), qi(1), qi(0))),
        Subspace.line(QI, (qi(0), qi(1), qi(0), qi(0))),
        Subspace.line(QI, (qi(0), qi(0), qi(0), qi(1))),
    ))
    with pytest.raises(ConstructionError):
        swap_flag(a, c, (0, 1), (2, 3))
    other = signature(QI, ("1", "2", "3", "5"), (1, 1, 1, 1))
    with pytest.raises(ConstructionError):
        swap_flag(a, coordinate_flag(other), (0, 1), (2, 3))


def test_obstruction_witness_over_the_rationals(qi_sig):
    a = coordinate_flag(qi_sig)
    w = obstruction_witness(a, 0, 1, 2)
    b, c = w["end"], w["middle"]
    assert adjacency_slots(c, a) == (0, 1)
    assert adjacency_slots(c, b) == (1, 2)
    assert not a.spaces[0].is_orthogonal_to(b.spaces[2])


def test_obstruction_witness_requires_line_slots():
    sig = signature(QI, ("1", "2", "3"), (1, 2, 1))
    a = coordinate_flag(sig)
    with pytest.raises(ConstructionError):
        obstruction_witness(a, 0, 1, 2)  # slot j is a plane
    with pytest.raises(ConstructionError):
        obstruction_witness(a, 0, 0, 2)  # slots not distinct


def test_no_reverse_middle_exists_in_the_finite_class(flagship_graph):
    a = flagship_graph.vertices[0]
    w = obstruction_witness(a, 0, 1, 2)
    b, c = w["end"], w["middle"]
    assert c.key() in key_index(flagship_graph)
    assert reverse_middle_flags(flagship_graph, a, b, 0, 1, 2) == []


def test_reverse_middles_match_a_scan_of_the_class(flagship_graph):
    graph = flagship_graph
    a = graph.vertices[0]
    to_a = [adjacency_slots(d, a) for d in graph.vertices]
    nonempty = 0
    for vb in range(0, graph.n, 7):
        b = graph.vertices[vb]
        to_b = [adjacency_slots(d, b) for d in graph.vertices]
        for i, j, t in permutations(range(3)):
            first, second = tuple(sorted((j, t))), tuple(sorted((i, j)))
            scan = [v for v in range(graph.n) if v not in (0, vb)
                    and to_a[v] == first and to_b[v] == second]
            assert reverse_middle_flags(graph, a, b, i, j, t) == scan
            nonempty += bool(scan)
    assert nonempty == 22


# SHA-256 of the flags the two-slot constructions build, over every
# slot order, on the Q(i) coordinate flag and on every 37th flagship
# flag.  The digests were taken from the hand-written splittings that
# `EigenFlag.move` and `tilts` replaced, so they pin that nothing moved.
OBSTRUCTION_DIGESTS = {
    "qi": "9d3064b3313e0ca204b3fa0e6699a540f0aacccacd75c5734b302c005dcf0e50",
    "flagship": "8cbd663d0abee23cf053f114b352997655e4594b2141f29e2b138b71b0db1ed1",
}
ROTATED_DIGESTS = {
    "qi": "96220904d7cd4932a45ed44243391b7920c2d7844a8776e1646eebd4839a628d",
    "flagship": "90ef31c1395461257133ce35cd17fcc929c3b33e26fe2b72005721df0991c738",
}


def _digest(items):
    """Flags as JSON, a failed construction as its exception type."""
    text = json.dumps([x if isinstance(x, str) else
                       {"signature": x.signature.to_json(),
                        "spaces": [X.to_json() for X in x.spaces]}
                       for x in items], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _built(construct):
    try:
        return construct()
    except RuntimeError as e:
        return type(e).__name__


def _pinned_bases(qi_sig, flagship_flags):
    return {"qi": [coordinate_flag(qi_sig)], "flagship": flagship_flags[::37]}


def test_obstruction_witness_flags_are_pinned(qi_sig, flagship_flags):
    for name, bases in _pinned_bases(qi_sig, flagship_flags).items():
        items = []
        for a in bases:
            for i, j, t in permutations(range(3)):
                w = _built(lambda: obstruction_witness(a, i, j, t))
                items += [w] if isinstance(w, str) else [w["end"], w["middle"]]
        assert _digest(items) == OBSTRUCTION_DIGESTS[name], name


def test_rotated_pair_flags_are_pinned(qi_sig, flagship_flags):
    for name, bases in _pinned_bases(qi_sig, flagship_flags).items():
        rng = Random(5)
        items = []
        for a in bases:
            for i, j in permutations(range(3), 2):
                items.append(_built(
                    lambda: _rotated_pair_flag(a.signature, a, i, j)))
                items.append(_built(
                    lambda: _rotated_pair_flag(a.signature, a, i, j, rng)))
        assert _digest(items) == ROTATED_DIGESTS[name], name
