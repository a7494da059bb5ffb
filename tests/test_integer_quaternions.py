"""Integer quaternions skip the reducing gcd.

A quaternion over den = 1 is canonical whatever its numerators, so
``algebra._reduced`` returns it at once, and ``Quaternion.scale`` by an int
keeps the denominator without building a Rational.  Both must give exactly
the fields of the general route: the Rational scale and a reduction by gcd.
"""

from math import gcd

from hypothesis import given, settings, strategies as st

from fibquat import AlgebraParams, Quaternion, Rational, fib_quat
from fibquat import algebra

H11 = AlgebraParams(1, 1)
SPLIT = AlgebraParams(-1, Rational(-1, 3))

QUATERNIONS = [
    Quaternion(3, -4, 0, 7, H11),                                     # den 1
    Quaternion(6, -4, 10, 8, SPLIT),                                  # den 1, common factor 2
    Quaternion(0, 0, 0, 0, H11),
    Quaternion(Rational(1, 2), Rational(-3, 4), 5, 0, SPLIT),         # den 4
    Quaternion(Rational(2, 3), 0, Rational(-1, 6), Rational(4, 9), H11),  # den 18
    Quaternion(Rational(3, 2), Rational(9, 2), 0, Rational(-3, 2), SPLIT),  # den 2, numerators 3k
]


def fields(q):
    return tuple(q)


def canonical(q):
    x1, x2, x3, x4, den, _ = q
    return den > 0 and gcd(x1, x2, x3, x4, den) == 1


def test_int_scale_equals_rational_scale():
    assert {q.den for q in QUATERNIONS} >= {1, 2, 4, 18}
    for q in QUATERNIONS:
        for k in range(-3, 4):
            scaled = q.scale(k)
            assert fields(scaled) == fields(q.scale(Rational(k))), (q, k)
            assert fields(k * q) == fields(q * k) == fields(scaled)
            assert canonical(scaled)
        assert fields(q.scale(0)) == (0, 0, 0, 0, 1, q.params)


def test_bool_scales_like_its_int():
    for q in QUATERNIONS:
        assert fields(q.scale(True)) == fields(q.scale(1)) == fields(q)
        assert fields(q.scale(False)) == fields(q.scale(0))


def test_reduced_over_den_one_keeps_the_numerators():
    q = algebra._reduced(6, -4, 10, 8, 1, H11)
    assert fields(q) == (6, -4, 10, 8, 1, H11)
    assert fields(algebra._reduced(6, -4, 10, 8, 2, H11)) == (3, -2, 5, 4, 1, H11)
    assert fields(algebra._reduced(0, 0, 0, 0, 5, H11)) == (0, 0, 0, 0, 1, H11)


integers = st.integers(-10**9, 10**9)


@settings(max_examples=200)
@given(xs=st.lists(integers, min_size=4, max_size=4), ys=st.lists(integers, min_size=4, max_size=4),
       k=st.integers(-50, 50), den=st.integers(1, 12))
def test_integer_results_match_the_rational_route(xs, ys, k, den):
    a = Quaternion(*xs, H11)
    b = Quaternion(*ys, H11)
    # sums, differences and products of integer quaternions stay over den 1
    for value, coefficients in (
        (a + b, [x + y for x, y in zip(xs, ys)]),
        (a - b, [x - y for x, y in zip(xs, ys)]),
        (a.scale(k), [k * x for x in xs]),
    ):
        assert fields(value) == fields(Quaternion(*map(Rational, coefficients), H11))
        assert canonical(value)
    assert canonical(a * b)
    # over den > 1 the int scale still reduces
    c = Quaternion(*(Rational(x, den) for x in xs), SPLIT)
    assert fields(c.scale(k)) == fields(c.scale(Rational(k)))
    assert canonical(c.scale(k))


def test_alternating_sums_of_fibonacci_quaternions():
    # the sum of Theorem 2.2 (i), built by int scales over den 1
    total = Quaternion.zero(H11)
    for n in range(1, 40):
        sign = 1 if n % 2 else -1
        total = total + fib_quat(H11, n).scale(sign)
        assert total == fib_quat(H11, n - 1).scale(Rational(sign)) + Quaternion(1, 0, 1, 1, H11)
