"""Q(sqrt 5) arithmetic and the exact sign rule."""

import random
from decimal import Decimal, getcontext

import pytest

from fibquat import ALPHA, QuadraticSurd, Rational
from fibquat.surd import t_power


def test_alpha_satisfies_golden_equation():
    assert ALPHA * ALPHA == ALPHA + 1


def test_arithmetic():
    x = QuadraticSurd(1, 2)
    y = QuadraticSurd(Rational(1, 2), -1)
    assert x + y == QuadraticSurd(Rational(3, 2), 1)
    assert x - y == QuadraticSurd(Rational(1, 2), 3)
    # (1 + 2s5)(1/2 - s5) = 1/2 - s5 + s5 - 2*5 = -19/2
    assert x * y == QuadraticSurd(Rational(-19, 2), 0)
    assert 2 * x == QuadraticSurd(2, 4)
    assert x + 1 == QuadraticSurd(2, 2)
    assert 1 - x == QuadraticSurd(0, -2)
    assert -x == QuadraticSurd(-1, -2)


def test_powers():
    assert ALPHA**0 == QuadraticSurd(1, 0)
    assert ALPHA**2 == ALPHA * ALPHA
    assert ALPHA**6 == QuadraticSurd(9, 4)  # 8*alpha + 5
    with pytest.raises(ValueError):
        ALPHA**-1


def test_residue_powers_follow_the_recurrence():
    # t^n = t^(n-1) + t^(n-k) modulo chi_k, for both k and any signed n
    for k in (2, 3):
        for n in range(-20, 30):
            step = [a + b for a, b in zip(t_power(k, n - 1), t_power(k, n - k))]
            assert t_power(k, n) == step


def test_equality_and_zero():
    assert QuadraticSurd(3, 0) == 3
    assert QuadraticSurd(0, 0).is_zero()
    assert not QuadraticSurd(0, Rational(1, 7)).is_zero()
    # one residue coefficient zero: (3 + 0*alpha)/1 and (0 + 1*alpha)/1
    assert not QuadraticSurd(3).is_zero() and not ALPHA.is_zero()


def test_sign_case_analysis():
    assert QuadraticSurd(3, 0).sign() == 1
    assert QuadraticSurd(-3, 0).sign() == -1
    assert QuadraticSurd(0, 0).sign() == 0
    assert QuadraticSurd(0, 1).sign() == 1
    assert QuadraticSurd(0, -1).sign() == -1
    assert QuadraticSurd(1, 1).sign() == 1
    assert QuadraticSurd(-1, -1).sign() == -1
    # alpha - 1 = (sqrt 5 - 1)/2 = 1/alpha: mixed signs with |u| = |v| = 1
    assert (ALPHA - 1).sign() == 1
    assert (1 - ALPHA).sign() == -1
    # mixed signs decided by r^2 vs 5 s^2
    assert QuadraticSurd(3, -1).sign() == 1   # 9 > 5
    assert QuadraticSurd(2, -1).sign() == -1  # 4 < 5
    assert QuadraticSurd(-3, 1).sign() == -1
    assert QuadraticSurd(-2, 1).sign() == 1
    assert QuadraticSurd(Rational(-9, 4), 1).sign() == -1  # 81/16 > 5
    assert QuadraticSurd(Rational(-11, 5), 1).sign() == 1  # 121/25 < 5


def test_sign_against_high_precision_numeric():
    getcontext().prec = 60
    sqrt5 = Decimal(5).sqrt()
    rng = random.Random(55)
    for _ in range(1000):
        r = Rational(rng.randint(-300, 300), rng.randint(1, 40))
        s = Rational(rng.randint(-300, 300), rng.randint(1, 40))
        surd = QuadraticSurd(r, s)
        numeric = (
            Decimal(r.numerator) / Decimal(r.denominator)
            + (Decimal(s.numerator) / Decimal(s.denominator)) * sqrt5
        )
        expected = 0 if numeric == 0 else (1 if numeric > 0 else -1)
        assert surd.sign() == expected


def test_float_and_str():
    x = QuadraticSurd(3, Rational(6, 5))
    assert abs(float(x) - (3 + 1.2 * 5**0.5)) < 1e-12
    assert str(x) == "3 + 6/5*sqrt(5)"
