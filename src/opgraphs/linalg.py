"""Exact linear algebra over a star field, with the standard hermitian form.

Vectors are tuples of scalars.  Matrices act on column vectors:
``(M v)[i] = sum_j M[i][j] v[j]``.  The form is

    h(u, v) = sum_k u[k] * conj(v[k]),

conjugate linear in the second argument.  An operator M is self-adjoint
when ``M == conj_transpose(M)``.

Subspaces are stored as reduced row echelon bases, which makes equality
structural and hashing cheap.  Over finite backends subspaces can be
isotropic or degenerate (``S`` meets ``S^perp``); operations that need a
nondegenerate input raise ``DegenerateSubspaceError``.
"""

from __future__ import annotations


class DegenerateSubspaceError(ValueError):
    """A subspace required to be nondegenerate meets its orthocomplement."""


def rref(field, rows, ncols):
    """Reduced row echelon form.  Returns (rows_tuple, pivot_columns)."""
    mat = [list(r) for r in rows]
    zero = field.zero
    sub, mul, inv = field.sub, field.mul, field.inv
    pivots = []
    r = 0
    nrows = len(mat)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv = inv(mat[r][c])
        mat[r] = [mul(piv, x) for x in mat[r]]
        row_r = mat[r]
        for i in range(nrows):
            f = mat[i][c]
            if i != r and f != zero:
                mat[i] = [sub(x, mul(f, y)) for x, y in zip(mat[i], row_r)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat), tuple(pivots)


def rank_of_rows(field, rows):
    """Rank by forward elimination only.

    Every rank or dimension question goes here; ``rref`` is for the
    questions that need the reduced rows themselves (canonical bases,
    kernels, inverses).  Skipping back-substitution roughly halves the
    cost on the census's 3x3 differences.
    """
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    zero = field.zero
    sub, mul, inv = field.sub, field.mul, field.inv
    ncols = len(mat[0])
    nrows = len(mat)
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if mat[i][c] != zero:
                pr = i
                break
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        piv_inv = inv(mat[r][c])
        row_r = mat[r]
        for i in range(r + 1, nrows):
            fac = mat[i][c]
            if fac != zero:
                fac = mul(fac, piv_inv)
                mat[i] = [sub(x, mul(fac, y)) for x, y in zip(mat[i], row_r)]
        r += 1
        if r == nrows:
            break
    return r


def right_kernel(field, rows, ncols):
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    red, pivots = rref(field, rows, ncols)
    zero, one = field.zero, field.one
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for r, pc in enumerate(pivots):
            v[pc] = field.neg(red[r][f])
        basis.append(tuple(v))
    return basis


def herm_form(field, u, v):
    """h(u, v) = sum u_k conj(v_k)."""
    if len(u) != len(v):
        raise ValueError("herm_form: length mismatch")
    return field.herm(u, v)


def matvec(field, rows, v):
    dot = field.dot
    return tuple(dot(row, v) for row in rows)


class Matrix:
    """Immutable exact matrix over a star field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0

    @classmethod
    def zero(cls, field, nrows, ncols=None):
        ncols = nrows if ncols is None else ncols
        z = field.zero
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def _check(self, other):
        if self.field is not other.field:
            raise ValueError("matrices over different fields")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field is other.field
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field.name, self.rows))

    def __add__(self, other):
        self._check(other)
        add = self.field.add
        return Matrix(
            self.field,
            [
                [add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        sub = self.field.sub
        return Matrix(
            self.field,
            [
                [sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        dot = self.field.dot
        cols = list(zip(*other.rows))
        return Matrix(self.field,
                      [[dot(row, col) for col in cols] for row in self.rows])

    def scale(self, c):
        mul = self.field.mul
        return Matrix(self.field, [[mul(c, x) for x in row] for row in self.rows])

    def conj_transpose(self):
        conj = self.field.conj
        return Matrix(self.field, [[conj(x) for x in col] for col in zip(*self.rows)])

    def is_hermitian(self):
        return self.nrows == self.ncols and self == self.conj_transpose()

    def trace(self):
        acc = self.field.zero
        for i in range(min(self.nrows, self.ncols)):
            acc = self.field.add(acc, self.rows[i][i])
        return acc

    def apply(self, v):
        return matvec(self.field, self.rows, v)

    def rank(self):
        return rank_of_rows(self.field, self.rows)

    def det(self):
        if self.nrows != self.ncols:
            raise ValueError("determinant of a nonsquare matrix")
        f = self.field
        zero = f.zero
        mat = [list(r) for r in self.rows]
        n = self.nrows
        det = f.one
        for c in range(n):
            pr = None
            for i in range(c, n):
                if mat[i][c] != zero:
                    pr = i
                    break
            if pr is None:
                return zero
            if pr != c:
                mat[c], mat[pr] = mat[pr], mat[c]
                det = f.neg(det)
            piv = mat[c][c]
            det = f.mul(det, piv)
            piv_inv = f.inv(piv)
            for i in range(c + 1, n):
                fac = mat[i][c]
                if fac != zero:
                    fac = f.mul(fac, piv_inv)
                    mat[i] = [f.sub(x, f.mul(fac, y)) for x, y in zip(mat[i], mat[c])]
        return det

    def inverse(self):
        if self.nrows != self.ncols:
            raise ValueError("inverse of a nonsquare matrix")
        f = self.field
        n = self.nrows
        ident = Matrix.identity(f, n)
        aug = [list(r) + list(i) for r, i in zip(self.rows, ident.rows)]
        red, pivots = rref(f, aug, 2 * n)
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise ValueError("matrix is singular")
        return Matrix(f, [row[n:] for row in red[:n]])

    def kernel(self):
        """Kernel {v : M v = 0} as a Subspace of the column domain."""
        return Subspace(self.field, self.ncols, right_kernel(self.field, self.rows, self.ncols))

    def image(self):
        """Column space {M v} as a Subspace of the row codomain."""
        return Subspace(self.field, self.nrows, list(zip(*self.rows)))

    def to_json(self):
        sj = self.field.scalar_to_json
        return {"rows": [[sj(x) for x in row] for row in self.rows]}

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(", ".join(fmt(x) for x in row) for row in self.rows)
        return f"Matrix[{body}]"


class Subspace:
    """A subspace stored by its reduced row echelon basis.

    Construction canonicalises any spanning list, so two subspaces are
    equal iff their stored bases are identical tuples.
    """

    __slots__ = ("field", "ambient", "rows", "pivots", "_hash")

    def __init__(self, field, ambient, vectors):
        red, pivots = rref(field, vectors, ambient)
        rows = red[: len(pivots)]
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._hash = hash((field.name, ambient, rows))

    @classmethod
    def line(cls, field, vector):
        return cls(field, len(vector), [vector])

    @property
    def dim(self):
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field is other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def contains_vector(self, v):
        if len(v) != self.ambient:
            raise ValueError("vector length mismatch")
        return self.coordinates_of(v) is not None

    def contains(self, other):
        self._check(other)
        return all(self.contains_vector(r) for r in other.rows)

    def _check(self, other):
        if self.field is not other.field or self.ambient != other.ambient:
            raise ValueError("subspaces of different spaces")

    def plus(self, other):
        self._check(other)
        return Subspace(self.field, self.ambient, self.rows + other.rows)

    def annihilator(self):
        """{x : v . x = 0 for v in S} under the plain bilinear dot."""
        return Subspace(
            self.field, self.ambient, right_kernel(self.field, self.rows, self.ambient)
        )

    def intersect(self, other):
        self._check(other)
        joined = self.annihilator().plus(other.annihilator())
        return joined.annihilator()

    def orthocomplement(self):
        """S^perp for the hermitian form; always of dimension n - dim S."""
        conj = self.field.conj
        conj_rows = [[conj(x) for x in row] for row in self.rows]
        return Subspace(
            self.field, self.ambient, right_kernel(self.field, conj_rows, self.ambient)
        )

    def radical(self):
        return self.intersect(self.orthocomplement())

    def is_nondegenerate(self):
        """S meets S^perp only in 0, i.e. the Gram matrix is invertible."""
        return rank_of_rows(self.field, self.gram().rows) == self.dim

    def is_orthogonal_to(self, other):
        self._check(other)
        z = self.field.zero
        return all(
            herm_form(self.field, u, v) == z for u in self.rows for v in other.rows
        )

    def adjacent_to(self, other):
        """Equal-dimension subspaces meeting in a hyperplane of each."""
        self._check(other)
        if self.dim != other.dim:
            raise ValueError("adjacency needs equal dimensions")
        join_dim = rank_of_rows(self.field, self.rows + other.rows)
        meet_dim = self.dim + other.dim - join_dim
        return meet_dim == self.dim - 1

    def gram(self):
        return Matrix(
            self.field,
            [
                [herm_form(self.field, u, v) for v in self.rows]
                for u in self.rows
            ],
        )

    def coordinates_of(self, v):
        """Coefficients c with sum c_r basis_r = v, or None if v outside."""
        f = self.field
        v = list(v)
        coeffs = []
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            coeffs.append(c)
            if c != f.zero:
                v = [f.sub(x, f.mul(c, y)) for x, y in zip(v, row)]
        if any(x != f.zero for x in v):
            return None
        return tuple(coeffs)

    def vector_at(self, coeffs):
        """The vector sum c_r basis_r; the inverse of ``coordinates_of``."""
        if len(coeffs) != self.dim:
            raise ValueError("coordinate count mismatch")
        f = self.field
        out = [f.zero] * self.ambient
        for c, row in zip(coeffs, self.rows):
            if c != f.zero:
                out = [f.add(x, f.mul(c, y)) for x, y in zip(out, row)]
        return tuple(out)

    def map_rows(self, fn):
        """Subspace spanned by fn applied to each basis vector."""
        return Subspace(self.field, self.ambient, [fn(row) for row in self.rows])

    def to_json(self):
        sj = self.field.scalar_to_json
        return {"ambient": self.ambient, "rows": [[sj(x) for x in row] for row in self.rows]}

    @classmethod
    def from_json(cls, field, obj):
        sf = field.scalar_from_json
        return cls(field, obj["ambient"], [[sf(x) for x in row] for row in obj["rows"]])

    def __repr__(self):
        fmt = self.field.format
        body = "; ".join(", ".join(fmt(x) for x in row) for row in self.rows)
        return f"Subspace<{body}>"


def relative_orthocomplement(inner, outer):
    """The orthocomplement of ``inner`` within ``outer``.

    Requires inner <= outer and inner nondegenerate, in which case
    outer = inner (+) result and, when outer is nondegenerate, so is the
    result.
    """
    if not outer.contains(inner):
        raise ValueError("relative orthocomplement needs inner <= outer")
    if not inner.is_nondegenerate():
        raise DegenerateSubspaceError(
            "relative orthocomplement of a degenerate subspace"
        )
    result = outer.intersect(inner.orthocomplement())
    if result.dim != outer.dim - inner.dim:
        raise DegenerateSubspaceError(
            "relative orthocomplement has wrong dimension"
        )
    return result


def is_invariant(matrix_rows, field, subspace):
    """Does the operator map the subspace into itself?"""
    return all(
        subspace.contains_vector(matvec(field, matrix_rows, row))
        for row in subspace.rows
    )
