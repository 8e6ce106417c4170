"""Certified pairs where the rank condition holds but invariance fails.

Two operators of one class at difference rank two need not be adjacent:
the image and kernel of the difference can fail to be invariant.  Over
a finite backend such pairs come out of the exhaustive census; over the
rationals a targeted perturbation finds them: starting from a flag A
and a vector v that is neither isotropic nor an eigenvector, a
trace-zero hermitian direction supported on the orthocomplement of v is
scaled so the characteristic polynomial is preserved, which lands B in
the class with B - A of rank two and kernel spanned by v, a line that
is not A-invariant.

Certificates carry both operators plus an explicit violation vector and
are re-checked by `verify_certificate`, a self-contained eliminator
that shares no linear algebra with the production path.
"""

from __future__ import annotations

from random import Random

from .linalg import Matrix, Subspace, herm_form, right_kernel
from .sampling import random_vector
from .spectral import (EigenFlag, NotInClassError, flag_from_matrix,
                       invariance_condition, rank_condition)


class SearchBudgetError(RuntimeError):
    """No certified pair within the allowed attempts."""


def _adjugate3(M: Matrix) -> Matrix:
    f = M.field
    rows = M.rows

    def minor(r, c):
        rs = [rr for k, rr in enumerate(rows) if k != r]
        sub = [[x for kc, x in enumerate(rr) if kc != c] for rr in rs]
        return f.sub(f.mul(sub[0][0], sub[1][1]), f.mul(sub[0][1], sub[1][0]))

    out = [[None] * 3 for _ in range(3)]
    for r in range(3):
        for c in range(3):
            m = minor(c, r)
            out[r][c] = m if (r + c) % 2 == 0 else f.neg(m)
    return Matrix(f, out)


def perturbation_from_vector(flag: EigenFlag, v):
    """Deterministic core of the rational search.

    Given a flag with three one-dimensional slots and a vector v with
    h(v, v) != 0 that is not an eigenvector, returns a class member B
    with rank(B - A) = 2 whose difference kernel is the line through v,
    or None when v is unusable.  The difference direction lives in the
    hermitian forms supported on the orthocomplement of v; preserving
    trace pins one coefficient, preserving the remaining characteristic
    coefficients fixes the scale.
    """
    f = flag.signature.field
    if f.is_finite:
        raise ValueError("the targeted perturbation works over the rationals")
    if flag.signature.dims != (1, 1, 1):
        raise ValueError("the targeted perturbation needs three one-dimensional slots")
    Am = flag.matrix()
    hvv = herm_form(f, v, v)
    if hvv == f.zero:
        return None
    Av = Am.apply(v)
    if Subspace.line(f, v).contains_vector(Av):
        return None
    kappa = f.div(herm_form(f, Av, v), hvv)
    u1, u2 = right_kernel(f, [[f.conj(x) for x in v]], 3)

    def outer(a, b):
        return Matrix(f, [[f.mul(x, f.conj(y)) for y in b] for x in a])

    ii = f.scalar(0, 1)
    basis = [
        outer(u1, u1),
        outer(u2, u2),
        outer(u1, u2) + outer(u2, u1),
        outer(u1, u2).scale(ii) + outer(u2, u1).scale(f.neg(ii)),
    ]
    adjA = _adjugate3(Am)
    row1 = [Dk.trace() for Dk in basis]
    row2 = [f.add((adjA @ Dk).trace(), f.mul(kappa, (Am @ Dk).trace()))
            for Dk in basis]
    dirs = right_kernel(f, [row1, row2], 4)
    if not dirs:
        return None
    for coeffs in ([1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [1, 2]):
        if len(dirs) == 1 and coeffs[1] != 0:
            continue
        r4 = [f.zero] * 4
        for c, d in zip(coeffs, dirs):
            r4 = [f.add(x, f.mul(f.scalar(c), y)) for x, y in zip(r4, d)]
        Dr = Matrix.zero(f, 3)
        for ck, Dk in zip(r4, basis):
            if ck != f.zero:
                Dr = Dr + Dk.scale(ck)
        if Dr == Matrix.zero(f, 3):
            continue
        alpha = f.real((Am @ Dr).trace())
        beta = f.real((Dr @ Dr).trace())
        if alpha == 0 or beta == 0:
            continue
        B = Am + Dr.scale(f.scalar(-2 * alpha / beta, 0))
        try:
            return flag_from_matrix(flag.signature, B)
        except NotInClassError:
            continue
    return None


def find_rank_only_pair(flag: EigenFlag, seed=0, attempts=200):
    """Random-restart wrapper around the targeted perturbation.

    Returns a flag B in the class of `flag` with rank(B - A) = 2 and
    failing invariance, together with its certificate.  Raises
    SearchBudgetError when every attempt is rejected.
    """
    f = flag.signature.field
    rng = Random(seed)
    for _ in range(attempts):
        v = random_vector(f, flag.signature.ambient, rng, height=3)
        if all(x == f.zero for x in v):
            continue
        B = perturbation_from_vector(flag, v)
        if B is None:
            continue
        if rank_condition(flag, B) and not invariance_condition(flag, B):
            return B, pair_certificate(flag, B)
    raise SearchBudgetError(f"no certified pair within {attempts} attempts")


# ---------------------------------------------------------------------------
# certificates


def _find_violation(field, Am, Bm):
    D = Bm - Am
    for space_name, S in (("image", D.image()), ("kernel", D.kernel())):
        for op_name, M in (("a", Am), ("b", Bm)):
            for w in S.rows:
                mw = tuple(M.apply(w))
                if not S.contains_vector(mw):
                    return {"space": space_name, "operator": op_name,
                            "vector": w, "mapped": mw}
    return None


def _pivot_minor(f, D):
    """A 2x2 submatrix of D with nonzero determinant."""
    n = len(D.rows)
    sj = f.scalar_to_json
    for r1 in range(n):
        for r2 in range(r1 + 1, n):
            for c1 in range(n):
                for c2 in range(c1 + 1, n):
                    det = f.sub(f.mul(D.rows[r1][c1], D.rows[r2][c2]),
                                f.mul(D.rows[r1][c2], D.rows[r2][c1]))
                    if det != f.zero:
                        return {"rows": [r1, r2], "cols": [c1, c2],
                                "determinant": sj(det)}
    raise ValueError("difference has rank below two")


def pair_certificate(a: EigenFlag, b: EigenFlag):
    """Self-contained record of a rank-two pair violating invariance."""
    sig = a.signature
    f = sig.field
    Am, Bm = a.matrix(), b.matrix()
    D = Bm - Am
    violation = _find_violation(f, Am, Bm)
    if violation is None:
        raise ValueError("the pair does not violate invariance")
    sj = f.scalar_to_json
    return {
        "field": f.descriptor(),
        "signature": sig.to_json(),
        "a": Am.to_json(),
        "b": Bm.to_json(),
        "difference": D.to_json(),
        "difference_rank": D.rank(),
        "rank_witness": _pivot_minor(f, D),
        "violation": {
            "space": violation["space"],
            "operator": violation["operator"],
            "vector": [sj(x) for x in violation["vector"]],
            "mapped": [sj(x) for x in violation["mapped"]],
        },
    }


# ---------------------------------------------------------------------------
# independent verification: a second eliminator, sharing nothing with
# the production linear algebra


def _iv_echelon(f, rows):
    """Row echelon with unit pivots; returns (rows, pivot columns)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        hit = next((k for k in range(r, len(work)) if work[k][c] != f.zero), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = f.inv(work[r][c])
        work[r] = [f.mul(inv, x) for x in work[r]]
        for k in range(len(work)):
            if k != r and work[k][c] != f.zero:
                lead = work[k][c]
                work[k] = [f.sub(x, f.mul(lead, y))
                           for x, y in zip(work[k], work[r])]
        pivots.append(c)
        r += 1
    return [tuple(x) for x in work[:r]], pivots


def _iv_rank(f, rows):
    return len(_iv_echelon(f, rows)[0])


def _iv_member(f, basis, v):
    """Whether v lies in the row span of basis."""
    if all(x == f.zero for x in v):
        return True
    if not basis:
        return False
    return _iv_rank(f, list(basis) + [v]) == _iv_rank(f, basis)


def _iv_transpose(rows):
    return [tuple(r[c] for r in rows) for c in range(len(rows[0]))]


def _iv_apply(f, rows, v):
    return tuple(
        _iv_sum(f, [f.mul(x, y) for x, y in zip(row, v)]) for row in rows)


def _iv_sum(f, xs):
    out = f.zero
    for x in xs:
        out = f.add(out, x)
    return out


def _iv_kernel(f, rows, ncols):
    ech, pivots = _iv_echelon(f, rows)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [f.zero] * ncols
        v[fc] = f.one
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(ech[r][fc])
        out.append(tuple(v))
    return out


def verify_certificate(field, cert):
    """Re-check every claim of a certificate from scratch.

    Returns a dict of named boolean checks plus "ok"; all linear
    algebra here is local to this function family.
    """
    sf = field.scalar_from_json
    sigma = [sf(x) for x in cert["signature"]["sigma"]]
    dims = list(cert["signature"]["dims"])
    n = sum(dims)
    A = [tuple(sf(x) for x in row) for row in cert["a"]["rows"]]
    B = [tuple(sf(x) for x in row) for row in cert["b"]["rows"]]

    def hermitian(M):
        return all(M[r][c] == field.conj(M[c][r])
                   for r in range(n) for c in range(n))

    def shifted(M, a):
        return [tuple(f_sub(M[r][c], a) if r == c else M[r][c]
                      for c in range(n)) for r in range(n)]

    f_sub = field.sub
    checks = {}
    checks["a_hermitian"] = hermitian(A)
    checks["b_hermitian"] = hermitian(B)
    checks["a_in_class"] = all(
        _iv_rank(field, shifted(A, a)) == n - d for a, d in zip(sigma, dims))
    checks["b_in_class"] = all(
        _iv_rank(field, shifted(B, a)) == n - d for a, d in zip(sigma, dims))
    D = [tuple(f_sub(x, y) for x, y in zip(rb, ra)) for ra, rb in zip(A, B)]
    checks["difference_rank_two"] = _iv_rank(field, D) == 2
    checks["difference_matches"] = D == [
        tuple(sf(x) for x in row) for row in cert["difference"]["rows"]]
    rw = cert["rank_witness"]
    (r1, r2), (c1, c2) = rw["rows"], rw["cols"]
    det = f_sub(field.mul(D[r1][c1], D[r2][c2]),
                field.mul(D[r1][c2], D[r2][c1]))
    checks["minor_nonzero"] = (
        det != field.zero and det == sf(rw["determinant"]))

    image = _iv_echelon(field, _iv_transpose(D))[0]
    kernel = _iv_kernel(field, D, n)

    def invariant(space, M):
        return all(_iv_member(field, space, _iv_apply(field, M, w))
                   for w in space)

    checks["invariance_fails"] = not (
        invariant(image, A) and invariant(image, B)
        and invariant(kernel, A) and invariant(kernel, B))

    vio = cert["violation"]
    space = image if vio["space"] == "image" else kernel
    M = A if vio["operator"] == "a" else B
    w = tuple(sf(x) for x in vio["vector"])
    checks["violation_vector_in_space"] = _iv_member(field, space, w)
    checks["violation_escapes"] = not _iv_member(
        field, space, _iv_apply(field, M, w))
    checks["ok"] = all(checks.values())
    return checks


def census_certificates(flags, census, limit=3):
    """Certificates for the first rank-only pairs of a finite census."""
    out = []
    for u, v in census.rank_only[:limit]:
        out.append(pair_certificate(flags[u], flags[v]))
    return out
