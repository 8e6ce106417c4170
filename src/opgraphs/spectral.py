"""Conjugacy classes of self-adjoint operators, encoded as eigen-flags.

A class is fixed by a signature: distinct eigenvalues a_i from the fixed
subfield and eigenspace dimensions n_i.  An operator in the class is the
same data as its eigen-flag, an ordered tuple of mutually orthogonal
nondegenerate subspaces X_i with dim X_i = n_i spanning the ambient
space; the matrix is sum a_i P_{X_i}.  Those projections sum to I, so
for any slot k the matrix is also

  a_k I + sum_{i != k} (a_i - a_k) P_{X_i},

which `EigenFlag.matrix` assembles with k the slot of eigenvalue zero
if there is one, else the widest.  Skipping P_{X_k} is sound for every
flag that reaches it: flags built with `check=True` are validated, and
the others come from the certified orbit walk (`enumerate_class`) or
from `contract`, whose merged slot is the sum of two orthogonal slots.

Two operators A, B in one class are adjacent when

  (rank condition)       rank(B - A) = 2, and
  (invariance condition) Img(B - A) and Ker(B - A) are invariant
                         under both A and B.

The geometric counterpart: exactly two flag slots move, each to an
adjacent subspace of the same dimension (intersection a hyperplane in
both).  The equivalence of the two descriptions is checked exhaustively
over finite backends in the test suite, not assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import (DegenerateSubspaceError, Matrix, Subspace, is_invariant,
                     rank_of_rows, relative_orthocomplement)


class NotInClassError(ValueError):
    """Matrix does not decompose with the requested spectrum and dims."""


@dataclass(frozen=True)
class ClassSignature:
    """Spectrum and eigenspace dimensions (sigma, d); slots are 0-based."""

    field: object
    sigma: tuple
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "sigma", tuple(self.sigma))
        object.__setattr__(self, "dims", tuple(self.dims))
        if len(self.sigma) != len(self.dims):
            raise ValueError("sigma and dims must have equal length")
        if len(self.sigma) < 2:
            raise ValueError("a class needs at least two eigenvalues")
        if len(set(self.sigma)) != len(self.sigma):
            raise ValueError("eigenvalues must be pairwise distinct")
        for a in self.sigma:
            if not self.field.is_fixed(a):
                raise ValueError("eigenvalues must lie in the fixed subfield")
        if any(n < 1 for n in self.dims):
            raise ValueError("eigenspace dimensions must be positive")
        if self.ambient < 3:
            raise ValueError("ambient dimension must be at least 3")

    @property
    def ambient(self):
        return sum(self.dims)

    @property
    def k(self):
        return len(self.dims)

    def contracted(self, i, j):
        """Merge slot i into slot j: n_j grows by n_i, a_i disappears."""
        if i == j:
            raise ValueError("contraction needs two distinct slots")
        if self.k < 3:
            raise ValueError("contraction of a two-slot signature leaves no class")
        sigma = tuple(a for t, a in enumerate(self.sigma) if t != i)
        dims = list(self.dims)
        dims[j] += dims[i]
        del dims[i]
        return ClassSignature(self.field, sigma, tuple(dims))

    def slot_after_contraction(self, i, j):
        """Index of slot j in the contracted signature."""
        return j - 1 if i < j else j

    def to_json(self):
        sj = self.field.scalar_to_json
        return {"sigma": [sj(a) for a in self.sigma], "dims": list(self.dims)}

    @classmethod
    def from_json(cls, field, obj):
        sf = field.scalar_from_json
        return cls(field, tuple(sf(a) for a in obj["sigma"]), tuple(obj["dims"]))


@dataclass(frozen=True)
class SdPermutation:
    """Permutation of slots preserving eigenspace dimensions."""

    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError("not a permutation")

    def validate_for(self, sig: ClassSignature):
        if len(self.images) != sig.k:
            raise ValueError("permutation size does not match signature")
        for i, im in enumerate(self.images):
            if sig.dims[i] != sig.dims[im]:
                raise ValueError("permutation does not preserve dimensions")

    def __call__(self, i):
        return self.images[i]


class EigenFlag:
    """Ordered orthogonal decomposition carrying one operator of a class."""

    __slots__ = ("signature", "spaces", "_matrix", "_key")

    def __init__(self, signature: ClassSignature, spaces, check=True):
        spaces = tuple(spaces)
        self.signature = signature
        self.spaces = spaces
        self._matrix = None
        self._key = None
        if check:
            self._validate()

    def _validate(self):
        sig = self.signature
        if len(self.spaces) != sig.k:
            raise NotInClassError("one subspace per slot required")
        for n, X in zip(sig.dims, self.spaces):
            if X.ambient != sig.ambient:
                raise NotInClassError("subspace has wrong ambient dimension")
            if X.dim != n:
                raise NotInClassError("subspace dimension does not match signature")
            if not X.is_nondegenerate():
                raise NotInClassError("eigenspaces must be nondegenerate")
        for r in range(sig.k):
            for s in range(r + 1, sig.k):
                if not self.spaces[r].is_orthogonal_to(self.spaces[s]):
                    raise NotInClassError("eigenspaces must be mutually orthogonal")
        # orthogonal nondegenerate spaces are independent, so dims suffice
        if sum(X.dim for X in self.spaces) != sig.ambient:
            raise NotInClassError("eigenspaces must span the ambient space")

    def matrix(self) -> Matrix:
        """The operator a_k I + sum_{i != k} (a_i - a_k) P_{X_i}.

        k is the slot of eigenvalue zero if there is one, else the
        widest.  P_X = B^T conj(G)^-1 conj(B) for the basis rows B of X
        and their Gram matrix G.  Each slot's term B^T W, with
        W = (a_i - a_k) conj(G)^-1 conj(B), is added into one list of
        rows that starts as a_k I, one dot product per entry.  A
        singular Gram raises `DegenerateSubspaceError`.
        """
        if self._matrix is None:
            sig = self.signature
            f = sig.field
            zero, add, mul, dot, herm = f.zero, f.add, f.mul, f.dot, f.herm
            if zero in sig.sigma:
                k = sig.sigma.index(zero)
            else:
                k = max(range(sig.k), key=sig.dims.__getitem__)
            a_k = sig.sigma[k]
            n = sig.ambient
            rows = [[a_k if r == c else zero for c in range(n)]
                    for r in range(n)]
            for i, (a, X) in enumerate(zip(sig.sigma, self.spaces)):
                if i == k:
                    continue
                # conj(G)[s][t] = conj(h(b_s, b_t)) = h(b_t, b_s)
                conj_gram = Matrix(f, [[herm(v, u) for v in X.rows]
                                       for u in X.rows])
                try:
                    ginv = conj_gram.inverse()
                except ValueError:
                    raise DegenerateSubspaceError(
                        "projection onto a degenerate subspace") from None
                c = f.sub(a, a_k)
                cols = list(zip(*X.rows))
                w = []
                for g in ginv.rows:
                    g = [mul(c, x) for x in g]
                    w.append([herm(g, col) for col in cols])
                w_cols = list(zip(*w))
                for u, row in zip(cols, rows):
                    for t, v in enumerate(w_cols):
                        row[t] = add(row[t], dot(u, v))
            self._matrix = Matrix(f, rows)
        return self._matrix

    def key(self):
        if self._key is None:
            self._key = tuple(X.rows for X in self.spaces)
        return self._key

    def __eq__(self, other):
        return (
            isinstance(other, EigenFlag)
            and self.signature == other.signature
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def move(self, i, j, X):
        """The two-slot move: slot i becomes X, slot j the orthocomplement
        of X inside X_i + X_j, every other slot stays.

        Returns None when X is already slot i, or when X or its
        complement is degenerate.
        """
        if X == self.spaces[i] or not X.is_nondegenerate():
            return None
        R = relative_orthocomplement(X, self.spaces[i].plus(self.spaces[j]))
        if not R.is_nondegenerate():
            return None
        spaces = list(self.spaces)
        spaces[i], spaces[j] = X, R
        return EigenFlag(self.signature, spaces)

    def __repr__(self):
        return f"EigenFlag{self.spaces!r}"


def coordinate_flag(sig: ClassSignature) -> EigenFlag:
    """The flag whose slots are consecutive standard-basis slices."""
    f = sig.field
    spaces = []
    start = 0
    for d in sig.dims:
        rows = [
            tuple(f.one if c == r else f.zero for c in range(sig.ambient))
            for r in range(start, start + d)
        ]
        spaces.append(Subspace(f, sig.ambient, rows))
        start += d
    return EigenFlag(sig, spaces)


def flag_from_matrix(sig: ClassSignature, M: Matrix) -> EigenFlag:
    """Recover the eigen-flag of M, or raise NotInClassError."""
    f = sig.field
    if not M.is_hermitian():
        raise NotInClassError("matrix is not self-adjoint")
    spaces = []
    ident = Matrix.identity(f, sig.ambient)
    for a, n in zip(sig.sigma, sig.dims):
        K = (M - ident.scale(a)).kernel()
        if K.dim != n:
            raise NotInClassError(
                f"eigenspace dimension {K.dim} does not match required {n}"
            )
        spaces.append(K)
    try:
        return EigenFlag(sig, spaces)
    except ValueError as e:
        raise NotInClassError(str(e)) from None


def difference_rows(a: EigenFlag, b: EigenFlag):
    f = a.signature.field
    sub = f.sub
    return [
        [sub(x, y) for x, y in zip(rb, ra)]
        for ra, rb in zip(a.matrix().rows, b.matrix().rows)
    ]


def _check_same_class(a, b):
    if a.signature != b.signature:
        raise ValueError("flags lie in different classes")


def rank_condition(a: EigenFlag, b: EigenFlag) -> bool:
    """rank(B - A) = 2."""
    _check_same_class(a, b)
    f = a.signature.field
    return rank_of_rows(f, difference_rows(a, b)) == 2


def invariance_condition(a: EigenFlag, b: EigenFlag) -> bool:
    """Img(B - A) and Ker(B - A) invariant under both operators."""
    _check_same_class(a, b)
    f = a.signature.field
    D = Matrix(f, difference_rows(a, b))
    img = D.image()
    ker = D.kernel()
    for op in (a.matrix(), b.matrix()):
        if not is_invariant(op.rows, f, img):
            return False
        if not is_invariant(op.rows, f, ker):
            return False
    return True


def adjacent(a: EigenFlag, b: EigenFlag) -> bool:
    """The defining test: rank condition plus invariance condition."""
    return rank_condition(a, b) and invariance_condition(a, b)


def adjacency_slots(a: EigenFlag, b: EigenFlag):
    """The geometric test: the moved slot pair (i, j), or None.

    Returns the unique pair of slots where the eigenspaces differ,
    provided exactly two differ and each moved to an adjacent subspace.
    """
    _check_same_class(a, b)
    moved = [t for t, (X, Y) in enumerate(zip(a.spaces, b.spaces)) if X != Y]
    if len(moved) != 2:
        return None
    i, j = moved
    if not a.spaces[i].adjacent_to(b.spaces[i]):
        return None
    if not a.spaces[j].adjacent_to(b.spaces[j]):
        return None
    return (i, j)


def contract(flag: EigenFlag, i, j) -> EigenFlag:
    """Merge slot i into slot j; the new eigenspace there is X_i + X_j.

    The operator identity matrix(A) = matrix(result) + (a_i - a_j) P_{X_i}
    holds by construction and is exercised in tests.
    """
    sig = flag.signature
    new_sig = sig.contracted(i, j)
    spaces = list(flag.spaces)
    merged = spaces[j].plus(spaces[i])
    spaces[j] = merged
    del spaces[i]
    return EigenFlag(new_sig, spaces, check=False)


def enumerate_class(sig: ClassSignature):
    """Every eigen-flag of the class, each exactly once, sorted by key.

    Finite backends only.  The class is walked as one orbit of
    U(n,q), certified against its closed-form size
    (`constructions.orbit_class`).
    """
    from .constructions import orbit_class

    return orbit_class(sig)[0]


RANK_OTHER, ADJACENT, RANK_ONLY = "rank_other", "adjacent", "rank_only"


def pair_verdict(a: EigenFlag, b: EigenFlag):
    """Both readings of adjacency on one pair, computed independently.

    Returns (kind, slots, mismatch): kind is RANK_OTHER when rank(B - A)
    is not 2, ADJACENT when the invariance condition also holds and
    RANK_ONLY when it fails; slots is `adjacency_slots(a, b)`, and
    mismatch says whether the two readings disagree.
    """
    slots = adjacency_slots(a, b)
    if not rank_condition(a, b):
        return RANK_OTHER, slots, slots is not None
    if invariance_condition(a, b):
        return ADJACENT, slots, slots is None
    return RANK_ONLY, slots, slots is not None
