"""Property tests of the QuadraticSurd representation: a residue c0 + c1*alpha
of Z[alpha] over one positive denominator, with no common factor.

Every operation is held against a reference kept here that stores the two
Rationals (a, b) of a + b*sqrt(5) and multiplies by
(a + b√5)(c + d√5) = ac + 5bd + (ad + bc)√5.  Results must be canonical, and
equal values built by different routes must compare and hash equal; a surd
with no sqrt(5) part is its Rational value, in hashing too.
"""

import copy
import pickle
from math import gcd

from hypothesis import given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    GenFibParams,
    QuadraticSurd,
    Rational,
    growth_indicator_E,
    growth_indicator_Eprime,
)


# -- the reference: two Rationals ---------------------------------------------

def ref_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c + 5 * (b * d), a * d + b * c


def ref_pow(x, e):
    out = (Rational(1), Rational(0))
    for _ in range(e):
        out = ref_mul(out, x)
    return out


REF_ALPHA = (Rational(1, 2), Rational(1, 2))


def ref_E(b1, b2):
    # (1/5)[1 + b1 + 2 b2 + 5 b1 b2 + alpha(b1 + 3 b2 + 8 b1 b2)]
    c0 = 1 + b1 + 2 * b2 + 5 * (b1 * b2)
    c1 = b1 + 3 * b2 + 8 * (b1 * b2)
    a, b = REF_ALPHA
    return (c0 + c1 * a) / 5, (c1 * b) / 5


def ref_Eprime(b1, b2, p, q):
    # (p + alpha q)^2 E(b1, b2)
    a, b = REF_ALPHA
    return ref_mul(ref_pow((p + q * a, q * b), 2), ref_E(b1, b2))


def assert_value(x, expected):
    assert isinstance(x, QuadraticSurd)
    numbers = (x.c0, x.c1, x.den)
    assert all(type(v) is int for v in numbers)
    assert x.den > 0
    assert gcd(*numbers) == 1
    assert (x.r, x.s) == tuple(expected)


# -- strategies ---------------------------------------------------------------

small = st.builds(Rational, st.integers(-30, 30), st.integers(1, 12))
rationals = st.one_of(
    small,
    st.builds(Rational, st.integers(-10**30, 10**30), st.integers(1, 10**12)),
    st.just(Rational(0)),
)
pairs = st.tuples(rationals, rationals)


@settings(max_examples=200)
@given(x=pairs, y=pairs, k=small, n=st.integers(-50, 50), e=st.integers(0, 6))
def test_operations_match_reference(x, y, k, n, e):
    a = QuadraticSurd(*x)
    b = QuadraticSurd(*y)
    assert_value(a, x)
    assert_value(a + b, (x[0] + y[0], x[1] + y[1]))
    assert_value(a - b, (x[0] - y[0], x[1] - y[1]))
    assert_value(-a, (-x[0], -x[1]))
    assert_value(a * b, ref_mul(x, y))
    assert_value(a ** e, ref_pow(x, e))
    for c in (k, n):
        assert_value(a + c, (x[0] + c, x[1]))
        assert_value(c + a, (x[0] + c, x[1]))
        assert_value(a - c, (x[0] - c, x[1]))
        assert_value(c - a, (c - x[0], -x[1]))
        assert_value(a * c, (x[0] * c, x[1] * c))
        assert_value(c * a, (x[0] * c, x[1] * c))
        assert_value(QuadraticSurd(c), (c, 0))


@settings(max_examples=200)
@given(b1=small, b2=small, p=st.integers(-20, 20), q=st.integers(-20, 20))
def test_growth_indicators_match_reference(b1, b2, p, q):
    params = AlgebraParams(b1, b2)
    assert_value(growth_indicator_E(params), ref_E(b1, b2))
    assert_value(growth_indicator_Eprime(params, GenFibParams(p, q)), ref_Eprime(b1, b2, p, q))


@settings(max_examples=150)
@given(x=pairs, y=pairs, k=small.filter(bool))
def test_equal_values_by_different_routes(x, y, k):
    a = QuadraticSurd(*x)
    b = QuadraticSurd(*y)
    routes = [
        QuadraticSurd(a.r, a.s),
        QuadraticSurd(Rational(x[0].numerator, x[0].denominator), x[1]),
        (a + b) - b,
        b - (b - a),
        -(-a),
        a * 1,
        1 * a,
        a * k * (1 / k),
        a ** 1,
        a + 0,
        0 + a,
        copy.copy(a),
        pickle.loads(pickle.dumps(a)),
    ]
    for value in routes:
        assert_value(value, x)
        assert value == a
        assert hash(value) == hash(a)


@settings(max_examples=100)
@given(r=rationals, k=small.filter(bool))
def test_rational_values_equal_and_hash_as_their_rational(r, k):
    routes = [
        QuadraticSurd(r),
        QuadraticSurd(r, 0),
        QuadraticSurd(r, k) - QuadraticSurd(0, k),
        (QuadraticSurd(0, k) * QuadraticSurd(0, 1)) * (r / (5 * k)),
    ]
    for value in routes:
        assert value.c1 == 0
        assert value == r and r == value
        assert hash(value) == hash(r)
    assert len({*routes, r}) == 1
    if r.denominator == 1:
        assert value == r.numerator and hash(value) == hash(r.numerator)
        assert len({*routes, r.numerator}) == 1


def test_rational_surds_collapse_with_ints_and_rationals_in_sets():
    assert len({QuadraticSurd(3, 0), 3}) == 1
    assert len({QuadraticSurd(Rational(1, 2), 0), Rational(1, 2)}) == 1
    assert {QuadraticSurd(3, 0): "surd"}[3] == "surd"
