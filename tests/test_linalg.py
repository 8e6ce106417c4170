"""Exact matrix algebra and subspaces of hermitian spaces."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opgraphs.linalg import (
    DegenerateSubspaceError,
    Matrix,
    Subspace,
    herm_form,
    is_invariant,
    matvec,
    relative_orthocomplement,
    rref,
)
from opgraphs.starfield import QI, galois_field
from tests.conftest import diag
from tests.oracles import projection, subspaces, transpose

F9 = galois_field(3, 1)

f9_scalars = st.sampled_from(list(F9.elements()))
f9_vectors = st.lists(f9_scalars, min_size=3, max_size=3).map(tuple)
f9_matrices = st.lists(f9_vectors, min_size=3, max_size=3).map(
    lambda rows: Matrix(F9, rows)
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)
qi_scalars = st.tuples(rationals, rationals).map(lambda t: QI.scalar(*t))
qi_vectors = st.lists(qi_scalars, min_size=3, max_size=3).map(tuple)


def qi(re, im=0):
    return QI.scalar(Fraction(re), Fraction(im))


def test_herm_form_conjugate_symmetry():
    @given(f9_vectors, f9_vectors)
    def run(u, v):
        assert herm_form(F9, u, v) == F9.conj(herm_form(F9, v, u))

    run()


def test_herm_form_sesquilinearity():
    @given(qi_vectors, qi_vectors, qi_scalars)
    def run(u, v, c):
        cu = tuple(QI.mul(c, x) for x in u)
        assert herm_form(QI, cu, v) == QI.mul(c, herm_form(QI, u, v))
        # conjugate-linear in the second slot
        cv = tuple(QI.mul(c, x) for x in v)
        assert herm_form(QI, u, cv) == QI.mul(QI.conj(c), herm_form(QI, u, v))

    run()


def test_standard_form_is_the_dot_pairing():
    e = Matrix.identity(QI, 3).rows
    for s in range(3):
        for t in range(3):
            want = QI.one if s == t else QI.zero
            assert herm_form(QI, e[s], e[t]) == want


def test_matrix_ring_laws():
    @given(f9_matrices, f9_matrices, f9_matrices)
    def run(a, b, c):
        assert (a + b) - b == a
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert transpose(a + b) == transpose(a) + transpose(b)
        assert transpose(a @ b) == transpose(b) @ transpose(a)
        assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()
        assert a.conj_transpose().conj_transpose() == a
        assert a.trace() == transpose(a).trace()

    run()


def test_determinant_is_multiplicative():
    @given(f9_matrices, f9_matrices)
    def run(a, b):
        assert (a @ b).det() == F9.mul(a.det(), b.det())

    run()


def test_rank_kernel_image_dimensions():
    @given(f9_matrices)
    def run(a):
        r = a.rank()
        assert transpose(a).rank() == r
        assert a.kernel().dim == 3 - r
        assert a.image().dim == r
        zero = (F9.zero,) * 3
        for v in a.kernel().rows:
            assert a.apply(v) == zero
        for v in a.image().rows:
            assert a.image().contains_vector(v)

    run()


def test_inverse():
    @given(f9_matrices)
    def run(a):
        if a.det() == F9.zero:
            with pytest.raises(ValueError):
                a.inverse()
        else:
            assert a @ a.inverse() == Matrix.identity(F9, 3)
            assert a.inverse() @ a == Matrix.identity(F9, 3)

    run()


def test_hermitian_predicate():
    @given(f9_matrices)
    def run(a):
        assert (a @ a.conj_transpose()).is_hermitian()
        assert (a + a.conj_transpose()).is_hermitian()

    run()
    i = qi(0, 1)
    m = Matrix(QI, [[qi(1), i, qi(0)], [QI.neg(i), qi(2), qi(0)], [qi(0), qi(0), qi(3)]])
    assert m.is_hermitian()
    assert not Matrix(QI, [[qi(0), i, qi(0)], [i, qi(0), qi(0)], [qi(0), qi(0), qi(0)]]).is_hermitian()


def test_diagonal_and_apply():
    d = diag(QI, [qi(1), qi(2), qi(3)])
    assert d.apply((qi(1), qi(1), qi(1))) == (qi(1), qi(2), qi(3))
    assert d.det() == qi(6)
    assert d.trace() == qi(6)
    assert matvec(QI, d.rows, (qi(1), qi(0), qi(0))) == (qi(1), qi(0), qi(0))


def random_f9_subspace(rng, dim):
    els = list(F9.elements())
    while True:
        rows = [tuple(rng.choice(els) for _ in range(3)) for _ in range(dim)]
        s = Subspace(F9, 3, rows)
        if s.dim == dim:
            return s


def test_subspace_dimension_formula():
    rng = random.Random(7)
    for _ in range(60):
        u = random_f9_subspace(rng, rng.randint(0, 3))
        v = random_f9_subspace(rng, rng.randint(0, 3))
        assert u.plus(v).dim + u.intersect(v).dim == u.dim + v.dim
        assert u.contains(u.intersect(v))
        assert u.plus(v).contains(u)


def test_orthocomplement_duality():
    rng = random.Random(11)
    for _ in range(60):
        u = random_f9_subspace(rng, rng.randint(0, 3))
        assert u.orthocomplement().dim == 3 - u.dim
        assert u.orthocomplement().orthocomplement() == u
        assert u.is_orthogonal_to(u.orthocomplement())
        assert u.radical() == u.intersect(u.orthocomplement())
        assert u.is_nondegenerate() == (u.radical().dim == 0)


def test_plane_line_census_over_gf9():
    # the 2-dimensional hermitian space over GF(9): 10 lines,
    # 4 isotropic and 6 nondegenerate
    lines = list(subspaces(F9, 2, 1))
    assert len(lines) == 10
    nondeg = [s for s in lines if s.is_nondegenerate()]
    assert len(nondeg) == 6
    iso = [s for s in lines if not s.is_nondegenerate()]
    assert len(iso) == 4
    for s in iso:
        v = s.rows[0]
        assert herm_form(F9, v, v) == F9.zero


def test_projection_properties():
    rng = random.Random(13)
    seen = 0
    while seen < 25:
        u = random_f9_subspace(rng, rng.randint(1, 2))
        if not u.is_nondegenerate():
            with pytest.raises(DegenerateSubspaceError):
                projection(u)
            continue
        seen += 1
        p = projection(u)
        assert p @ p == p
        assert p.is_hermitian()
        assert p.rank() == u.dim
        for v in u.rows:
            assert p.apply(v) == tuple(v)
        for v in u.orthocomplement().rows:
            assert p.apply(v) == (F9.zero,) * 3


def test_relative_orthocomplement_splits():
    rng = random.Random(17)
    seen = 0
    while seen < 25:
        outer = random_f9_subspace(rng, 3)
        inner = random_f9_subspace(rng, rng.randint(1, 2))
        if not (outer.contains(inner) and inner.is_nondegenerate()):
            continue
        seen += 1
        rel = relative_orthocomplement(inner, outer)
        assert rel.dim == outer.dim - inner.dim
        assert rel.is_orthogonal_to(inner)
        assert inner.plus(rel) == outer
    line = Subspace.line(F9, (F9.one, F9.zero, F9.zero))
    other = Subspace.line(F9, (F9.zero, F9.one, F9.zero))
    with pytest.raises(ValueError):
        relative_orthocomplement(line, other)


def test_line_helpers_and_coordinates():
    line = Subspace.line(QI, (qi(2), qi(0), qi(0)))
    assert line.dim == 1
    assert line.contains_vector((qi(5), qi(0), qi(0)))
    assert not line.contains_vector((qi(0), qi(1), qi(0)))
    u = Subspace(QI, 3, [(qi(1), qi(0), qi(1)), (qi(0), qi(1), qi(1))])
    v = tuple(QI.add(a, b) for a, b in zip(u.rows[0], u.rows[1]))
    coeffs = u.coordinates_of(v)
    assert coeffs == (qi(1), qi(1))
    assert u.coordinates_of((qi(0), qi(0), qi(1))) is None
    assert u.vector_at(coeffs) == v
    assert u.vector_at((qi(0), qi(0))) == (qi(0),) * 3
    assert u.vector_at((qi(2), qi(0, 1))) == (qi(2), qi(0, 1), qi(2, 1))
    with pytest.raises(ValueError):
        u.vector_at((qi(1),))


# every subspace of the 3-dimensional space, per small field: the
# rank-based production answers against their elimination oracles
ALL_SUBSPACES = {
    name: [S for k in range(4) for S in subspaces(field, 3, k)]
    for name, field in (("GF(9)^3", F9), ("GF(4)^3", galois_field(2, 1)))
}


@pytest.mark.parametrize("name", ALL_SUBSPACES)
def test_nondegeneracy_matches_the_radical(name):
    for S in ALL_SUBSPACES[name]:
        assert S.is_nondegenerate() == (S.radical().dim == 0)


@pytest.mark.parametrize("name", ALL_SUBSPACES)
def test_adjacency_and_rank_match_their_oracles(name):
    spaces = ALL_SUBSPACES[name]
    field = spaces[0].field
    for S in spaces:
        for T in spaces:
            rows = S.rows + T.rows
            assert Matrix(field, rows).rank() == len(rref(field, rows, 3)[1])
            if S.dim == T.dim:
                assert S.adjacent_to(T) == (S.intersect(T).dim == S.dim - 1)


@pytest.mark.parametrize("name", ALL_SUBSPACES)
def test_coordinates_invert_vector_at(name):
    spaces = ALL_SUBSPACES[name]
    field = spaces[0].field
    for S in spaces:
        for coeffs in product(field.elements(), repeat=S.dim):
            v = S.vector_at(coeffs)
            assert S.contains_vector(v)
            assert S.coordinates_of(v) == coeffs


def test_subspace_adjacency_is_hyperplane_meeting():
    e1 = Subspace.line(QI, (qi(1), qi(0), qi(0)))
    e2 = Subspace.line(QI, (qi(0), qi(1), qi(0)))
    assert e1.adjacent_to(e2)
    assert not e1.adjacent_to(e1)
    plane = Subspace(QI, 3, [(qi(1), qi(0), qi(0)), (qi(0), qi(1), qi(0))])
    with pytest.raises(ValueError):
        e1.adjacent_to(plane)


def test_is_invariant():
    d = diag(QI, [qi(1), qi(1), qi(3)])
    plane = Subspace(QI, 3, [(qi(1), qi(0), qi(0)), (qi(0), qi(1), qi(0))])
    tilted = Subspace(QI, 3, [(qi(1), qi(0), qi(1))])
    assert is_invariant(d.rows, QI, plane)
    assert not is_invariant(d.rows, QI, tilted)


def test_subspace_json_roundtrip():
    rng = random.Random(19)
    for _ in range(20):
        u = random_f9_subspace(rng, rng.randint(0, 3))
        assert Subspace.from_json(F9, u.to_json()) == u
