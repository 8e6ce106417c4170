"""Scalar backends: exact arithmetic, the involution, automorphisms."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opgraphs.starfield import (
    QI,
    StarFieldError,
    field_from_descriptor,
    galois_field,
)

F9 = galois_field(3, 1)
F16 = galois_field(2, 2)

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)
fraction_pairs = st.tuples(rationals, rationals)
qi_scalars = fraction_pairs.map(lambda t: QI.scalar(*t))
f9_scalars = st.sampled_from(list(F9.elements()))
f16_scalars = st.sampled_from(list(F16.elements()))


def field_and_scalars(name):
    return {"qi": (QI, qi_scalars), "f9": (F9, f9_scalars), "f16": (F16, f16_scalars)}[name]


@pytest.mark.parametrize("name", ["qi", "f9", "f16"])
def test_field_axioms(name):
    field, scalars = field_and_scalars(name)

    @given(scalars, scalars, scalars)
    def run(x, y, z):
        assert field.add(x, y) == field.add(y, x)
        assert field.mul(x, y) == field.mul(y, x)
        assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.mul(x, field.add(y, z)) == field.add(field.mul(x, y), field.mul(x, z))
        assert field.add(x, field.neg(x)) == field.zero
        assert field.sub(x, y) == field.add(x, field.neg(y))
        if x != field.zero:
            assert field.mul(x, field.inv(x)) == field.one
            assert field.div(y, x) == field.mul(y, field.inv(x))

    run()


@pytest.mark.parametrize("name", ["qi", "f9", "f16"])
def test_dot_and_herm_are_the_term_sums(name):
    field, scalars = field_and_scalars(name)
    entries = st.one_of(st.just(field.zero), scalars)
    vector_pairs = st.integers(0, 6).flatmap(lambda n: st.tuples(
        st.lists(entries, min_size=n, max_size=n),
        st.lists(entries, min_size=n, max_size=n)))

    @given(vector_pairs)
    def run(pair):
        xs, ys = pair
        dot = herm = field.zero
        for x, y in zip(xs, ys):
            dot = field.add(dot, field.mul(x, y))
            herm = field.add(herm, field.mul(x, field.conj(y)))
        assert field.dot(xs, ys) == dot
        assert field.herm(xs, ys) == herm

    run()


@pytest.mark.parametrize("name", ["qi", "f9", "f16"])
def test_involution(name):
    field, scalars = field_and_scalars(name)

    @given(scalars, scalars)
    def run(x, y):
        assert field.conj(field.conj(x)) == x
        assert field.conj(field.add(x, y)) == field.add(field.conj(x), field.conj(y))
        assert field.conj(field.mul(x, y)) == field.mul(field.conj(x), field.conj(y))
        # the norm lands in the fixed subfield
        assert field.is_fixed(field.mul(x, field.conj(x)))
        assert field.is_fixed(x) == (field.conj(x) == x)

    run()


@given(st.integers(-30, 30), st.integers(1, 8), st.integers(-30, 30),
       st.integers(1, 8))
def test_qi_ratio_is_the_reduced_scalar(a, b, c, d):
    x = QI.ratio(a, b, c, d)
    assert x == QI.scalar(Fraction(a, b), Fraction(c, d))
    assert x[2] > 0 and gcd(*x) == 1


def test_qi_scalar_layout():
    x = QI.scalar(Fraction(3, 2), Fraction(-1, 4))
    assert x == (6, -1, 4)
    assert QI.conj(x) == (6, 1, 4)
    assert (QI.real(x), QI.imag(x)) == (Fraction(3, 2), Fraction(-1, 4))
    assert type(QI.real(x)) is Fraction and type(QI.imag(x)) is Fraction
    assert QI.zero == (0, 0, 1) and QI.one == (1, 0, 1)
    i = QI.scalar(0, 1)
    assert QI.mul(i, i) == QI.neg(QI.one)
    assert not QI.is_fixed(i)
    assert QI.parse_fixed("3/2") == QI.scalar(Fraction(3, 2)) == (3, 0, 2)
    with pytest.raises(StarFieldError):
        QI.parse_fixed("nonsense")


# Q(i) arithmetic on (Fraction, Fraction) pairs: the independent
# reference that the integer-triple scalars must match.
def _ref_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c)


def _ref_inv(x):
    a, b = x
    n = a * a + b * b
    return (a / n, -b / n)


def _ref_format(x):
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}i"


REFERENCE_BINARY = {
    "add": lambda x, y: (x[0] + y[0], x[1] + y[1]),
    "sub": lambda x, y: (x[0] - y[0], x[1] - y[1]),
    "mul": _ref_mul,
}
REFERENCE_UNARY = {
    "neg": lambda x: (-x[0], -x[1]),
    "conj": lambda x: (x[0], -x[1]),
}


def _is_canonical(x):
    re, im, den = x
    return (all(type(t) is int for t in x) and den > 0
            and gcd(re, im, den) == 1)


@given(fraction_pairs, fraction_pairs)
def test_qi_arithmetic_matches_fraction_pairs(p, r):
    x, y = QI.scalar(*p), QI.scalar(*r)
    assert _is_canonical(x)
    assert (QI.real(x), QI.imag(x)) == p
    results = {}
    for name, ref in REFERENCE_BINARY.items():
        results[name] = (getattr(QI, name)(x, y), ref(p, r))
    for name, ref in REFERENCE_UNARY.items():
        results[name] = (getattr(QI, name)(x), ref(p))
    if r == (0, 0):
        for op in (QI.inv, lambda z: QI.div(x, z)):
            with pytest.raises(ZeroDivisionError):
                op(y)
    else:
        results["inv"] = (QI.inv(y), _ref_inv(r))
        results["div"] = (QI.div(x, y), _ref_mul(p, _ref_inv(r)))
    for name, (got, want) in results.items():
        assert _is_canonical(got), name
        assert got == QI.scalar(*want), name
    assert QI.is_fixed(x) == (p[1] == 0)
    assert QI.scalar_to_json(x) == [str(p[0]), str(p[1])]
    assert QI.format(x) == _ref_format(p)
    assert QI.scalar_from_json(QI.scalar_to_json(x)) == x


def test_fixed_subfield_sizes():
    # GF(9) over GF(3), GF(16) over GF(4)
    assert len(list(F9.elements())) == 9
    assert len(F9.fixed_elements()) == 3
    assert len(list(F16.elements())) == 16
    assert len(F16.fixed_elements()) == 4
    for x in F9.fixed_elements():
        assert F9.is_fixed(x)
    fixed = set(F9.fixed_elements())
    assert sum(1 for x in F9.elements() if F9.is_fixed(x)) == len(fixed)


def test_galois_conjugation_is_frobenius_power():
    # conj(x) = x^(p^e): x^3 on GF(9), x^4 on GF(16)
    for field, q in ((F9, 3), (F16, 4)):
        for x in field.elements():
            power = field.one
            for _ in range(q):
                power = field.mul(power, x)
            assert field.conj(x) == power


def test_parse_fixed_galois_indexing():
    fixed = F9.fixed_elements()
    for idx, want in enumerate(fixed):
        assert F9.parse_fixed(str(idx)) == want
    with pytest.raises(StarFieldError):
        F9.parse_fixed("3")
    with pytest.raises(StarFieldError):
        F9.parse_fixed("-1")


def test_automorphism_groups():
    qi_autos = QI.automorphisms()
    assert sorted(a.name for a in qi_autos) == ["conj", "id"]
    f9_autos = F9.automorphisms()
    assert len(f9_autos) == 2  # Gal(GF(9)/GF(3))
    f16_autos = F16.automorphisms()
    assert len(f16_autos) == 4  # Gal(GF(16)/GF(2))
    for field, autos in ((F9, f9_autos), (F16, f16_autos), (QI, qi_autos)):
        sample = F9.elements() if field is F9 else (
            F16.elements() if field is F16 else
            [QI.scalar(Fraction(2, 3), Fraction(-1, 5)), QI.one, QI.scalar(0, 1)])
        for phi in autos:
            for x in sample:
                for y in sample:
                    assert phi(field.mul(x, y)) == field.mul(phi(x), phi(y))
                    assert phi(field.add(x, y)) == field.add(phi(x), phi(y))
                    # compatibility with the involution
                    assert phi(field.conj(x)) == field.conj(phi(x))


@pytest.mark.parametrize("name", ["qi", "f9", "f16"])
def test_scalar_json_roundtrip(name):
    field, scalars = field_and_scalars(name)

    @given(scalars)
    def run(x):
        blob = field.scalar_to_json(x)
        assert field.scalar_from_json(blob) == x

    run()


def test_descriptor_roundtrip():
    for field in (QI, F9, F16):
        assert field_from_descriptor(field.descriptor()) is field
    d = F16.descriptor()
    assert d["kind"] == "gf"
    assert (d["p"], d["e"], d["order"]) == (2, 2, 16)
    assert QI.descriptor() == {"kind": "qi"}


def test_galois_field_cache_and_validation():
    assert galois_field(3, 1) is F9
    assert galois_field(3, 1).order == 9
    with pytest.raises(StarFieldError):
        galois_field(4, 1)  # not prime
    with pytest.raises(StarFieldError):
        galois_field(3, 0)
