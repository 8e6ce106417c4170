"""Eigen-flags, the two adjacency conditions, contraction."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from opgraphs.constructions import tilts
from opgraphs.linalg import DegenerateSubspaceError, Matrix, Subspace
from opgraphs.sampling import random_flag
from opgraphs.spectral import (
    ClassSignature,
    EigenFlag,
    NotInClassError,
    SdPermutation,
    adjacency_slots,
    adjacent,
    contract,
    coordinate_flag,
    difference_rows,
    enumerate_class,
    flag_from_matrix,
    invariance_condition,
    rank_condition,
)
from opgraphs.starfield import QI, galois_field
from tests.conftest import diag, signature
from tests.oracles import operator, permute_slots, projection, subspaces


def qi(re, im=0):
    return QI.scalar(Fraction(re), Fraction(im))


def line(*entries):
    return Subspace.line(QI, tuple(qi(Fraction(e)) for e in entries))


DIAG123 = signature(QI, ("1", "2", "3"), (1, 1, 1))
A = coordinate_flag(DIAG123)


def test_coordinate_flag_matrix_is_diagonal():
    assert A.matrix() == diag(QI, [qi(1), qi(2), qi(3)])
    sig = signature(QI, ("1", "2"), (1, 2))
    f = coordinate_flag(sig)
    assert f.spaces[0].dim == 1 and f.spaces[1].dim == 2
    assert f.matrix() == diag(QI, [qi(1), qi(2), qi(2)])


def test_rotated_flag_worked_example():
    # rotate the first two eigenlines by 45 degrees
    b = EigenFlag(DIAG123, (line(1, 1, 0), line(1, -1, 0), line(0, 0, 1)))
    half = Fraction(1, 2)
    assert b.matrix() == Matrix(QI, [
        [qi(Fraction(3, 2)), qi(-half), qi(0)],
        [qi(-half), qi(Fraction(3, 2)), qi(0)],
        [qi(0), qi(0), qi(3)],
    ])
    d = Matrix(QI, difference_rows(A, b))
    assert d == Matrix(QI, [
        [qi(half), qi(-half), qi(0)],
        [qi(-half), qi(-half), qi(0)],
        [qi(0), qi(0), qi(0)],
    ])
    assert d.rank() == 2
    # determinant of the upper-left 2x2 block
    minor = Matrix(QI, [row[:2] for row in d.rows[:2]])
    assert minor.det() == qi(-half)
    assert rank_condition(A, b)
    assert invariance_condition(A, b)
    assert adjacent(A, b)
    assert adjacency_slots(A, b) == (0, 1)


def test_swapped_lines_worked_example():
    b = EigenFlag(DIAG123, (line(0, 1, 0), line(1, 0, 0), line(0, 0, 1)))
    assert adjacent(A, b)
    assert adjacency_slots(A, b) == (0, 1)
    assert Matrix(QI, difference_rows(A, b)) == diag(QI, [qi(1), qi(-1), qi(0)])


def test_three_cycle_of_lines_is_not_adjacent():
    b = EigenFlag(DIAG123, (line(0, 1, 0), line(0, 0, 1), line(1, 0, 0)))
    d = Matrix(QI, difference_rows(A, b))
    assert d == diag(QI, [qi(2), qi(-1), qi(-1)])
    assert d.rank() == 3
    assert not rank_condition(A, b)
    assert not adjacent(A, b)


def test_flag_is_not_adjacent_to_itself():
    assert not rank_condition(A, A)
    assert invariance_condition(A, A)  # vacuous: zero difference
    assert not adjacent(A, A)
    assert adjacency_slots(A, A) is None


def test_adjacency_is_symmetric():
    b = EigenFlag(DIAG123, (line(1, 1, 0), line(1, -1, 0), line(0, 0, 1)))
    assert adjacent(b, A)
    assert adjacency_slots(b, A) == (0, 1)
    rng = random.Random(23)
    for _ in range(10):
        x = random_flag(DIAG123, rng)
        y = random_flag(DIAG123, rng)
        assert rank_condition(x, y) == rank_condition(y, x)
        assert adjacent(x, y) == adjacent(y, x)
        assert adjacency_slots(x, y) == adjacency_slots(y, x)


def test_adjacency_slots_name_the_moved_slots():
    # adjacent flags differ in exactly the two named slots
    rng = random.Random(29)
    seen = 0
    while seen < 5:
        x = random_flag(DIAG123, rng)
        slots = adjacency_slots(A, x)
        if slots is None:
            continue
        seen += 1
        i, j = slots
        for t in range(3):
            same = x.spaces[t] == A.spaces[t]
            assert same == (t not in (i, j))


def test_flags_validate_membership():
    # wrong dimension
    with pytest.raises(NotInClassError):
        EigenFlag(DIAG123, (line(1, 0, 0), line(0, 1, 0), line(1, 1, 0)))
    # not mutually orthogonal
    with pytest.raises(NotInClassError):
        EigenFlag(DIAG123, (line(1, 0, 0), line(1, 1, 0), line(0, 0, 1)))
    # degenerate slot over a finite backend
    f9 = galois_field(3, 1)
    f9sig = signature(f9, ("0", "1"), (1, 2))
    iso = next(s for s in subspaces(f9, 3, 1) if not s.is_nondegenerate())
    with pytest.raises(NotInClassError):
        EigenFlag(f9sig, (iso, iso.orthocomplement()))
    # unvalidated, the skipped kernel slot hides no degenerate slot: the
    # other one contains the isotropic line too
    with pytest.raises(DegenerateSubspaceError):
        EigenFlag(f9sig, (iso, iso.orthocomplement()), check=False).matrix()


@pytest.mark.parametrize("p,sigma,dims", [
    (3, ("0", "1", "2"), (1, 1, 1)),
    (2, ("0", "1"), (2, 2)),
    (2, ("0", "1"), (1, 3)),
], ids=["flagship", "GF(4)^4 2,2", "GF(4)^4 1,3"])
def test_matrix_is_the_projection_sum_on_finite_classes(p, sigma, dims):
    for f in enumerate_class(signature(galois_field(p, 1), sigma, dims)):
        assert f.matrix() == operator(f)


@pytest.mark.parametrize("sigma,dims", [
    (("0", "1", "2"), (2, 1, 1)),
    (("1", "2", "3"), (2, 1, 1)),
    (("0", "1", "2"), (1, 2, 2)),
    (("1", "0", "-2"), (1, 2, 2)),
    (("1", "-1/2", "3"), (1, 2, 2)),
    (("2", "5"), (1, 2)),
])
def test_matrix_is_the_projection_sum_over_the_rationals(sigma, dims):
    # with a zero eigenvalue its slot is skipped, else the widest slot
    sig = signature(QI, sigma, dims)
    rng = random.Random(47)
    for _ in range(6):
        f = random_flag(sig, rng)
        assert f.matrix() == operator(f)


def test_signature_validation():
    with pytest.raises(ValueError):
        ClassSignature(QI, (qi(1), qi(1)), (1, 2))  # repeated eigenvalue
    with pytest.raises(ValueError):
        ClassSignature(QI, (qi(1), qi(2)), (1, 0))  # empty slot
    with pytest.raises(ValueError):
        ClassSignature(QI, (QI.scalar(0, 1), qi(2)), (1, 1))  # not fixed


def test_flag_from_matrix_roundtrip():
    rng = random.Random(31)
    for _ in range(8):
        f = random_flag(DIAG123, rng)
        assert flag_from_matrix(DIAG123, f.matrix()) == f
    two_sig = signature(QI, ("1", "2"), (1, 2))
    for _ in range(4):
        f = random_flag(two_sig, rng)
        assert flag_from_matrix(two_sig, f.matrix()) == f


def test_flag_from_matrix_rejects_wrong_spectrum():
    wrong = signature(QI, ("1", "2", "4"), (1, 1, 1))
    with pytest.raises(NotInClassError):
        flag_from_matrix(wrong, A.matrix())
    not_hermitian = Matrix(QI, [[qi(1), qi(1), qi(0)], [qi(0), qi(2), qi(0)], [qi(0), qi(0), qi(3)]])
    with pytest.raises(NotInClassError):
        flag_from_matrix(DIAG123, not_hermitian)


def test_contract_operator_identity():
    t = contract(A, 0, 1)
    assert t.signature.dims == (2, 1)
    assert t.matrix() == diag(QI, [qi(2), qi(2), qi(3)])
    # matrix(A) = matrix(T) + (a_0 - a_1) P_{X_0}
    p = projection(A.spaces[0])
    assert A.matrix() == t.matrix() + p.scale(qi(-1))
    rng = random.Random(41)
    for _ in range(6):
        f = random_flag(DIAG123, rng)
        for i, j in ((0, 1), (1, 0), (1, 2), (2, 0)):
            t = contract(f, i, j)
            diff = QI.sub(DIAG123.sigma[i], DIAG123.sigma[j])
            p = projection(f.spaces[i])
            assert f.matrix() == t.matrix() + p.scale(diff)


def test_contracted_signature_bookkeeping():
    sig = signature(QI, ("1", "2", "3"), (1, 2, 1))
    c = sig.contracted(2, 0)
    assert c.sigma == (qi(1), qi(2))
    assert c.dims == (2, 2)
    assert sig.slot_after_contraction(2, 0) == 0
    assert sig.slot_after_contraction(0, 2) == 1


def test_fiber_partitions_the_class(flagship_flags):
    # fibers over all contractions partition the class
    keys = {}
    for f in flagship_flags:
        keys.setdefault(contract(f, 0, 1).key(), []).append(f)
    assert len(keys) == 63
    assert all(len(v) == 6 for v in keys.values())


def _check_moves(flag):
    """`flag.move` along every tilt of every ordered slot pair."""
    for i, j in permutations(range(flag.signature.k), 2):
        assert flag.move(i, j, flag.spaces[i]) is None
        W = flag.spaces[i].plus(flag.spaces[j])
        for X in tilts(flag, i, j):
            moved = flag.move(i, j, X)
            degenerate = (not X.is_nondegenerate() or not
                          W.intersect(X.orthocomplement()).is_nondegenerate())
            assert (moved is None) == degenerate
            if moved is None:
                continue
            assert all(moved.spaces[t] == flag.spaces[t]
                       for t in range(flag.signature.k) if t not in (i, j))
            assert moved.spaces[i] == X
            assert moved.spaces[j].is_orthogonal_to(X)
            assert X.plus(moved.spaces[j]) == W
            assert adjacency_slots(moved, flag) == tuple(sorted((i, j)))


def test_move_over_a_stride_of_the_flagship(flagship_flags):
    for flag in flagship_flags[::7]:
        _check_moves(flag)


def test_move_over_the_rationals():
    _check_moves(A)
    _check_moves(coordinate_flag(signature(QI, ("1", "2", "3"), (2, 1, 1))))


def test_permute_slots():
    delta = SdPermutation((1, 0, 2))
    b = permute_slots(A, delta)
    # slot t of the new flag is old slot delta(t)
    assert b.spaces[0] == A.spaces[1]
    assert b.spaces[1] == A.spaces[0]
    assert b.spaces[2] == A.spaces[2]
    assert b.matrix() == diag(QI, [qi(2), qi(1), qi(3)])
    with pytest.raises(ValueError):
        SdPermutation((0, 0, 2))
    uneven = signature(QI, ("1", "2"), (1, 2))
    with pytest.raises(ValueError):
        SdPermutation((1, 0)).validate_for(uneven)
    even = signature(QI, ("1", "2"), (2, 2))
    SdPermutation((1, 0)).validate_for(even)


def test_census_on_flagship(flagship_census):
    c = flagship_census
    assert c.total == 71253
    assert c.adjacent_count == 2835
    assert c.rank_only_count == 33264
    assert c.rank_other == 35154
    assert c.total == c.adjacent_count + c.rank_only_count + c.rank_other
    assert c.mismatches == []
    assert len(c.edges) == 2835
