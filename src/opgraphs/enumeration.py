"""Exhaustive subspace enumeration over finite backends.

Subspaces are generated through their unique reduced-row-echelon bases:
pick pivot columns, then run over all assignments of the free entries.
Each subspace appears exactly once, in a deterministic order.  Classes
are enumerated as orbits (`constructions.orbit_class`).
"""

from __future__ import annotations

from itertools import combinations, product

from .linalg import Subspace


def _require_finite(field):
    if not field.is_finite:
        raise ValueError("enumeration requires a finite backend")


def nonzero_vectors(field, length):
    _require_finite(field)
    els = field.elements()
    zero = field.zero
    for v in product(els, repeat=length):
        if any(x != zero for x in v):
            yield v


def subspaces(field, ambient, k):
    """All k-dimensional subspaces of field^ambient, once each."""
    _require_finite(field)
    if k < 0 or k > ambient:
        return
    if k == 0:
        yield Subspace.zero_space(field, ambient)
        return
    els = field.elements()
    zero, one = field.zero, field.one
    for pivots in combinations(range(ambient), k):
        pivot_set = set(pivots)
        free = [
            (r, c)
            for r in range(k)
            for c in range(pivots[r] + 1, ambient)
            if c not in pivot_set
        ]
        for values in product(els, repeat=len(free)):
            rows = [[zero] * ambient for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = one
            for (r, c), x in zip(free, values):
                rows[r][c] = x
            yield Subspace(field, ambient, rows)


def subspaces_within(W: Subspace, k):
    """All k-dimensional subspaces of the given subspace."""
    f = W.field
    _require_finite(f)
    for S in subspaces(f, W.dim, k):
        yield Subspace(f, W.ambient, [W.vector_at(c) for c in S.rows])


def gaussian_binomial(m, k, q):
    """Number of k-dimensional subspaces of an m-dimensional space."""
    if k < 0 or k > m:
        return 0
    num = den = 1
    for t in range(k):
        num *= q ** (m - t) - 1
        den *= q ** (t + 1) - 1
    return num // den
