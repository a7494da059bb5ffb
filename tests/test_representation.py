"""Property tests of the Quaternion representation: four integer numerators
over one positive denominator, with no common factor.

Every operation is held against a reference kept here that stores four
Rationals and multiplies by the product table of the ``algebra`` module
docstring, over rational and over all-integer coefficients (den = 1), and
with scales by a Rational, an int and a bool.  Results must be canonical,
and equal values built by different routes must compare and hash equal.
"""

from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    NotInvertibleError,
    Quaternion,
    Rational,
    basis,
    combine,
)


# -- the reference: four Rationals and the docstring's product table ---------

def product_table(b1, b2):
    """e_i * e_j = coefficient * e_k as {(i, j): (coefficient, k)}, i, j in 1..4."""
    table = {}
    for i in range(1, 5):
        table[(1, i)] = (1, i)
        table[(i, 1)] = (1, i)
    table.update({
        (2, 2): (-b1, 1), (3, 3): (-b2, 1), (4, 4): (-(b1 * b2), 1),
        (2, 3): (1, 4), (3, 2): (-1, 4),
        (2, 4): (-b1, 3), (4, 2): (b1, 3),
        (3, 4): (b2, 2), (4, 3): (-b2, 2),
    })
    return table


def ref_mul(a, c, b1, b2):
    out = [Rational(0)] * 4
    for (i, j), (coefficient, k) in product_table(b1, b2).items():
        out[k - 1] = out[k - 1] + coefficient * (a[i - 1] * c[j - 1])
    return tuple(out)


def ref_norm(a, b1, b2):
    a1, a2, a3, a4 = a
    return a1 * a1 + b1 * (a2 * a2) + b2 * (a3 * a3) + (b1 * b2) * (a4 * a4)


def ref_conj(a):
    return (a[0], -a[1], -a[2], -a[3])


def assert_canonical(q):
    numbers = (q.x1, q.x2, q.x3, q.x4, q.den)
    assert all(type(x) is int for x in numbers)
    assert q.den > 0
    assert gcd(*numbers) == 1


def assert_value(q, expected):
    assert_canonical(q)
    assert q.coefficients == tuple(expected)


# -- strategies ---------------------------------------------------------------

# (n1, d1, n2, d2): H(0,0), two split algebras, Hamilton's, and one with d1, d2 > 1
SPECIAL_BETAS = [(0, 1, 0, 1), (-1, 1, -1, 3), (1, 1, -1, 1), (1, 1, 1, 1), (2, 3, -5, 7)]


@st.composite
def cases(draw, count):
    """(params, [coefficient tuples]) with beta denominators up to 7,
    H(0,0), split and Hamilton algebras drawn by name, and in half the
    draws all-integer coefficients."""
    small = st.builds(Rational, st.integers(-30, 30), st.integers(1, 7))
    if draw(st.booleans()):
        n1, d1, n2, d2 = draw(st.sampled_from(SPECIAL_BETAS))
        b1, b2 = Rational(n1, d1), Rational(n2, d2)
    else:
        b1, b2 = draw(small), draw(small)
    if draw(st.booleans()):
        coefficient = st.builds(Rational, st.integers(-30, 30) | st.integers(-10**30, 10**30))
    else:
        coefficient = st.one_of(
            small,
            st.builds(Rational, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
            st.just(Rational(0)),
        )
    tuples = [tuple(draw(coefficient) for _ in range(4)) for _ in range(count)]
    return (b1, b2), tuples


@settings(max_examples=150)
@given(data=st.data())
def test_operations_match_reference(data):
    (b1, b2), (a, c) = data.draw(cases(2))
    k = data.draw(st.builds(Rational, st.integers(-40, 40), st.integers(1, 9)))
    j = data.draw(st.integers(-50, 50))
    flag = data.draw(st.booleans())
    params = AlgebraParams(b1, b2)
    x = Quaternion(*a, params)
    y = Quaternion(*c, params)
    assert_value(x, a)
    assert_value(x + y, [u + v for u, v in zip(a, c)])
    assert_value(x - y, [u - v for u, v in zip(a, c)])
    assert_value(-x, [-u for u in a])
    assert_value(x * y, ref_mul(a, c, b1, b2))
    assert_value(x.square(), ref_mul(a, a, b1, b2))
    for factor in (k, j, flag):
        assert_value(x.scale(factor), [factor * u for u in a])
        assert_value(factor * x, [factor * u for u in a])
    assert_value(x.conj(), ref_conj(a))
    assert_value(combine(x, y, k, -3), [k * u - 3 * v for u, v in zip(a, c)])
    norm = x.norm()
    assert type(norm) is Rational
    assert norm == ref_norm(a, b1, b2)
    assert x.trace() == 2 * a[0]
    if norm:
        inverse = [u / norm for u in ref_conj(a)]
        assert_value(x.inverse(), inverse)
    else:
        with pytest.raises(NotInvertibleError):
            x.inverse()


@settings(max_examples=80)
@given(data=st.data())
def test_equal_values_by_different_routes(data):
    (b1, b2), (a, c) = data.draw(cases(2))
    k = data.draw(st.builds(Rational, st.integers(1, 40), st.integers(1, 9)))
    params = AlgebraParams(b1, b2)
    twin = AlgebraParams(
        Rational(b1.numerator, b1.denominator), Rational(b2.numerator, b2.denominator)
    )
    x = Quaternion(*a, params)
    y = Quaternion(*c, params)
    routes = [
        Quaternion(*a, twin),
        (x + y) - y,
        x.scale(k).scale(1 / k),
        -(-x),
        x.conj().conj(),
        combine(x, y, 1, 0),
        x * Quaternion.one(params),
        Quaternion.one(params) * x,
    ]
    if x.norm():
        routes.append(x.inverse().inverse())
    for value in routes:
        assert_canonical(value)
        assert value == x
        assert hash(value) == hash(x)


def test_scalars_and_basis_are_canonical():
    params = AlgebraParams(Rational(2, 3), Rational(0))
    one, e2, e3, e4 = basis(params)
    assert Quaternion.scalar(Rational(6, 4), params) == Quaternion(Rational(3, 2), 0, 0, 0, params)
    assert Quaternion.zero(params) == Quaternion(Rational(0, 5), 0, 0, 0, params)
    assert Quaternion.zero(params).den == 1
    assert e2.scale(Rational(0)) == Quaternion.zero(params)
    assert one == Quaternion.one(params)
    for q in (one, e2, e3, e4, Quaternion.scalar(Rational(-7, 9), params), e4 * e4):
        assert_canonical(q)


def test_coefficient_views_are_reduced():
    q = Quaternion(Rational(1, 2), Rational(1, 3), 0, 4, AlgebraParams(1, 1))
    assert (q.x1, q.x2, q.x3, q.x4, q.den) == (3, 2, 0, 24, 6)
    assert [(c.numerator, c.denominator) for c in q.coefficients] == [
        (1, 2), (1, 3), (0, 1), (4, 1),
    ]
    assert q.scalar_part == Rational(1, 2)


def test_params_cleared_is_derived_and_not_compared():
    params = AlgebraParams(Rational(-6, 4), 5)
    assert params.cleared == (-3, 2, 5, 1)
    assert params == AlgebraParams(Rational(-3, 2), Rational(5))
    assert hash(params) == hash(AlgebraParams(Rational(-3, 2), 5))
    assert "cleared" not in repr(params)


@given(data=st.data())
def test_unequal_values_stay_unequal(data):
    (b1, b2), (a, c) = data.draw(cases(2))
    assume(a != c)
    params = AlgebraParams(b1, b2)
    assert Quaternion(*a, params) != Quaternion(*c, params)
