"""Exhaustive subspace generators, with counts checked against
Gaussian binomials, and the class orbit walk against the slot-by-slot
decomposition oracle."""

import pytest

from opgraphs.linalg import Matrix, Subspace
from opgraphs.spectral import EigenFlag, enumerate_class
from opgraphs.starfield import QI, galois_field
from tests.conftest import signature
from tests.oracles import (gaussian_binomial, nondegenerate_subspaces_within,
                           orthogonal_decompositions, subspaces,
                           subspaces_within)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 9) == 10
    assert gaussian_binomial(3, 1, 9) == 91
    assert gaussian_binomial(3, 2, 9) == 91  # duality
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(4, 2, 3) == 130
    assert gaussian_binomial(3, 0, 9) == 1
    assert gaussian_binomial(3, 3, 9) == 1
    assert gaussian_binomial(2, 3, 9) == 0
    assert gaussian_binomial(3, -1, 9) == 0


def test_subspace_counts_match_gaussian_binomials(f9):
    for ambient in (2, 3):
        for k in range(ambient + 1):
            got = list(subspaces(f9, ambient, k))
            assert len(got) == gaussian_binomial(ambient, k, 9)
            assert len(set(got)) == len(got)  # each subspace once
            for s in got:
                assert s.dim == k


def test_subspaces_within_a_plane(f9):
    full = Subspace(f9, 3, Matrix.identity(f9, 3).rows)
    plane = next(s for s in subspaces(f9, 3, 2) if s.is_nondegenerate())
    lines = list(subspaces_within(plane, 1))
    assert len(lines) == 10
    assert all(plane.contains(s) for s in lines)
    nondeg = list(nondegenerate_subspaces_within(plane, 1))
    assert len(nondeg) == 6
    # the whole space: 91 lines, 63 of them nondegenerate
    assert sum(1 for _ in subspaces_within(full, 1)) == 91
    assert sum(1 for _ in nondegenerate_subspaces_within(full, 1)) == 63


def test_orthogonal_decompositions_counts(f9):
    # three orthogonal nondegenerate lines in GF(9)^3
    assert sum(1 for _ in orthogonal_decompositions(f9, 3, (1, 1, 1))) == 378
    # line + plane
    assert sum(1 for _ in orthogonal_decompositions(f9, 3, (1, 2))) == 63
    assert sum(1 for _ in orthogonal_decompositions(f9, 3, (2, 1))) == 63
    assert sum(1 for _ in orthogonal_decompositions(f9, 3, (3,))) == 1
    with pytest.raises(ValueError):
        list(orthogonal_decompositions(f9, 3, (1, 1)))


def test_decompositions_are_orthogonal_and_exhaustive(f9):
    seen = set()
    for parts in orthogonal_decompositions(f9, 2, (1, 1)):
        x, y = parts
        assert x.is_nondegenerate() and y.is_nondegenerate()
        assert x.is_orthogonal_to(y)
        assert x.plus(y).dim == 2
        seen.add((x, y))
    # 6 nondegenerate lines, each with a unique orthocomplement line
    assert len(seen) == 6


@pytest.mark.parametrize("p, e, sigma, dims, size", [
    (3, 1, ("0", "1", "2"), (1, 1, 1), 378),
    (3, 1, ("0", "1"), (1, 2), 63),
    (2, 1, ("0", "1"), (1, 2), 12),
    (2, 1, ("0", "1"), (2, 2), 240),
    (2, 1, ("0", "1"), (1, 3), 40),
    (2, 2, ("0", "1", "2"), (1, 1, 1), 2496),
], ids=["flagship", "grassmann", "GF(4)^3 1,2", "GF(4)^4 2,2",
        "GF(4)^4 1,3", "GF(16)^3 1,1,1"])
def test_enumerate_class_matches_decompositions(p, e, sigma, dims, size):
    sig = signature(galois_field(p, e), sigma, dims)
    keys = [f.key() for f in enumerate_class(sig)]
    oracle = sorted(EigenFlag(sig, spaces, check=False).key()
                    for spaces in orthogonal_decompositions(
                        sig.field, sig.ambient, sig.dims))
    assert len(oracle) == len(set(oracle)) == size
    assert keys == oracle


def test_rational_backend_is_rejected():
    with pytest.raises(ValueError):
        list(subspaces(QI, 3, 1))
    with pytest.raises(ValueError):
        list(orthogonal_decompositions(QI, 3, (1, 1, 1)))
    with pytest.raises(ValueError):
        enumerate_class(signature(QI, ("1", "2", "3"), (1, 1, 1)))
