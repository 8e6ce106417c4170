"""Brute-force oracles that left the production path.

`orthogonal_decompositions` enumerates a finite class slot by slot
inside the running orthocomplement; `semilinear_image` maps a flag
through row-reduced subspaces.  The production paths
(`constructions.orbit_class` and the point permutations) are checked
against them.
"""

from opgraphs.enumeration import subspaces_within
from opgraphs.linalg import Subspace, relative_orthocomplement


def nondegenerate_subspaces_within(W: Subspace, k):
    for S in subspaces_within(W, k):
        if S.is_nondegenerate():
            yield S


def orthogonal_decompositions(field, ambient, dims):
    """Ordered tuples of mutually orthogonal nondegenerate subspaces.

    Slot t gets dimension dims[t]; the parts sum to the whole space.
    Works slot by slot inside the running orthocomplement, so every
    decomposition appears exactly once.
    """
    if not field.is_finite:
        raise ValueError("enumeration requires a finite backend")
    if sum(dims) != ambient:
        raise ValueError("dimensions must sum to the ambient dimension")

    def rec(W, remaining):
        if not remaining:
            yield ()
            return
        k = remaining[0]
        if k == W.dim:
            if W.is_nondegenerate():
                for rest in rec(Subspace.zero_space(field, ambient), remaining[1:]):
                    yield (W,) + rest
            return
        for X in nondegenerate_subspaces_within(W, k):
            R = relative_orthocomplement(X, W)
            for rest in rec(R, remaining[1:]):
                yield (X,) + rest

    full = Subspace.full(field, ambient)
    yield from rec(full, tuple(dims))


def semilinear_image(flag, M, phi):
    """The flag with every row r of every slot sent to M phi(r), slot
    labels kept.  Isometries pass the identity automorphism for phi,
    field automorphisms the identity matrix for M."""
    return flag.map_spaces(
        lambda S: S.map_rows(
            lambda row: tuple(M.apply(tuple(phi(x) for x in row)))),
        check=False)
