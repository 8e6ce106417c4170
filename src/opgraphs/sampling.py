"""Seeded random flags, orthogonal bases, and vectors.

Over the rational backend orthogonalization always succeeds (the form is
positive definite there); over finite backends isotropic vectors force
retries, so every sampler takes an explicit rng and loops.
"""

from __future__ import annotations

from .linalg import Subspace, herm_form


def random_scalar(field, rng, height=4):
    """Entry of bounded complexity: numerators and denominators up to
    `height` over the rationals, any element over a finite backend."""
    if field.is_finite:
        return rng.randrange(field.order)
    a, b = rng.randint(-height, height), rng.randint(1, height)
    c, d = rng.randint(-height, height), rng.randint(1, height)
    return field.ratio(a, b, c, d)


def random_vector(field, length, rng, height=4):
    return tuple(random_scalar(field, rng, height) for _ in range(length))


def orthogonalize(field, vectors):
    """Exact Gram-Schmidt without normalization.

    Returns None when a running vector is isotropic (finite backends);
    callers resample.  A vector dependent on the earlier ones reduces to
    zero, which is isotropic, so None also covers dependent input.
    """
    out = []
    norms = []
    sub, mul, div = field.sub, field.mul, field.div
    for v in vectors:
        w = list(v)
        for u, nu in zip(out, norms):
            c = div(herm_form(field, w, u), nu)
            if c != field.zero:
                w = [sub(x, mul(c, y)) for x, y in zip(w, u)]
        nw = herm_form(field, w, w)
        if nw == field.zero:
            return None
        out.append(tuple(w))
        norms.append(nw)
    return out


def random_orthogonal_basis(field, n, rng, height=4):
    while True:
        rows = [random_vector(field, n, rng, height) for _ in range(n)]
        basis = orthogonalize(field, rows)
        if basis is not None:
            return basis


def random_flag(sig, rng, height=4):
    """Uniform-ish random member of the class, built from a random
    orthogonal basis grouped into slots of the signature's dimensions."""
    from .spectral import EigenFlag

    field = sig.field
    while True:
        basis = random_orthogonal_basis(field, sig.ambient, rng, height)
        spaces = []
        at = 0
        for n in sig.dims:
            spaces.append(Subspace(field, sig.ambient, basis[at : at + n]))
            at += n
        try:
            return EigenFlag(sig, spaces)
        except ValueError:
            continue
