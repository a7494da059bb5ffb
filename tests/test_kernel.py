"""Rational kernel: arithmetic and ordering against the stdlib Fraction oracle,
with Rational, int and foreign operands, and invariants."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

import fibquat
from fibquat import AlgebraParams, QuadraticSurd, Quaternion
from fibquat._kernel._pyrational import Rational

nums = st.integers(-10**6, 10**6)
dens = st.integers(1, 10**5)


def as_fraction(x):
    return Fraction(x.numerator, x.denominator)


def exact(x):
    # an int has a numerator and a denominator too, so check the type first
    assert type(x) is Rational
    return as_fraction(x)


COMPARISONS = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


class TestConstruction:
    def test_reduces_and_fixes_sign(self):
        x = Rational(-4, 8)
        assert (x.numerator, x.denominator) == (-1, 2)
        y = Rational(3, -9)
        assert (y.numerator, y.denominator) == (-1, 3)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1, 0)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            Rational(1.5)

    def test_wraps_rational(self):
        x = Rational(2, 3)
        assert Rational(x) == x

    @given(n=nums, d=dens)
    def test_matches_fraction(self, n, d):
        x = Rational(n, d)
        f = Fraction(n, d)
        assert (x.numerator, x.denominator) == (f.numerator, f.denominator)


class TestArithmetic:
    @given(a=nums, b=dens, c=nums, d=dens, k=nums)
    def test_field_ops_match_fraction(self, a, b, c, d, k):
        x, y = Rational(a, b), Rational(c, d)
        fx, fy = Fraction(a, b), Fraction(c, d)
        assert as_fraction(x + y) == fx + fy
        assert as_fraction(x - y) == fx - fy
        assert as_fraction(x * y) == fx * fy
        if c != 0:
            assert as_fraction(x / y) == fx / fy
        assert (x == y) == (fx == fy)
        assert (x < y) == (fx < fy)
        assert (x <= y) == (fx <= fy)
        assert (x > y) == (fx > fy)
        assert (x >= y) == (fx >= fy)
        assert (x != y) == (fx != fy)
        for left, right, fleft, fright in ((x, k, fx, k), (k, x, k, fx)):
            assert exact(left + right) == fleft + fright
            assert exact(left - right) == fleft - fright
            assert exact(left * right) == fleft * fright
            if fright != 0:
                assert exact(left / right) == fleft / fright
            for op in COMPARISONS:
                assert op(left, right) == op(fleft, fright)
        # ties: an equal Rational built unreduced, and an int equal to a Rational
        for left, right in ((x, Rational(2 * a, 2 * b)), (Rational(k), k), (k, Rational(k))):
            for op in COMPARISONS:
                assert op(left, right) == op(as_fraction(left), as_fraction(right))

    def test_int_interop(self):
        x = Rational(3, 4)
        assert x + 1 == Rational(7, 4)
        assert 1 + x == Rational(7, 4)
        assert x - 2 == Rational(-5, 4)
        assert 2 - x == Rational(5, 4)
        assert x * 4 == 3
        assert 4 * x == 3
        assert x / 3 == Rational(1, 4)
        assert 3 / x == 4
        assert x < 1 and x > 0 and x <= 1 and x >= 0
        assert Rational(8, 2) == 4

    def test_pow(self):
        assert Rational(2, 3) ** 3 == Rational(8, 27)
        assert Rational(2, 3) ** 0 == 1
        assert Rational(2, 3) ** -2 == Rational(9, 4)
        assert Rational(-2, 3) ** -1 == Rational(-3, 2)
        with pytest.raises(ZeroDivisionError):
            Rational(0) ** -1

    @given(a=nums, b=dens, e=st.integers(-6, 6))
    def test_pow_matches_fraction(self, a, b, e):
        assume(a != 0 or e >= 0)
        assert exact(Rational(a, b) ** e) == Fraction(a, b) ** e

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1) / Rational(0)
        with pytest.raises(ZeroDivisionError):
            1 / Rational(0)

    @pytest.mark.parametrize("foreign", [0.5, "1", None, Fraction(1, 2)], ids=repr)
    def test_foreign_operands_are_refused(self, foreign):
        x = Rational(1, 2)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(x, foreign)
            with pytest.raises(TypeError):
                op(foreign, x)
        with pytest.raises(TypeError):
            x ** foreign
        assert not (x == foreign) and not (foreign == x)
        assert x != foreign and foreign != x

    def test_package_types_take_their_reflected_methods(self):
        half = Rational(1, 2)
        q = Quaternion(1, 2, 3, 4, AlgebraParams(1, 1))
        assert half * q == Quaternion(half, 1, Rational(3, 2), 2, AlgebraParams(1, 1))
        s = QuadraticSurd(1, 1)
        assert half * s == QuadraticSurd(half, half)
        assert half + s == QuadraticSurd(Rational(3, 2), 1)
        assert half - s == QuadraticSurd(-half, -1)

    def test_division_by_int_zero(self):
        # 1 / Rational(0) and Rational(0) ** -1 are in test_division_by_zero and test_pow
        with pytest.raises(ZeroDivisionError):
            Rational(1, 2) / 0

    def test_pow_takes_no_modulus(self):
        with pytest.raises(TypeError):
            pow(Rational(2, 3), 2, 5)

    def test_unary(self):
        assert -Rational(2, 3) == Rational(-2, 3)
        assert +Rational(2, 3) == Rational(2, 3)
        assert abs(Rational(-2, 3)) == Rational(2, 3)

    def test_sign_and_bool(self):
        assert Rational(-7, 2).sign() == -1
        assert Rational(0).sign() == 0
        assert Rational(5).sign() == 1
        assert not Rational(0)
        assert Rational(1, 9)

    @given(a=nums, b=dens)
    def test_results_always_reduced(self, a, b):
        x = Rational(a, b) + Rational(a, b + 1) * Rational(3, 7)
        assert x.denominator > 0
        assert gcd(abs(x.numerator), x.denominator) == 1
        for y in (
            Rational(a, b) - Rational(a, b + 1),
            Rational(a, b) - 3,
            3 - Rational(a, b),
            Rational(a, b) / Rational(-7, 3),
            Rational(a, b) / -6,
            Rational(a, b) / Rational(a or 1, b + 1),
            -6 / Rational(a or 1, b),
        ):
            assert y.denominator > 0
            assert gcd(abs(y.numerator), y.denominator) == 1


class TestHashStrRepr:
    def test_hash_matches_int(self):
        assert hash(Rational(7)) == hash(7)
        assert hash(Rational(-3)) == hash(-3)
        assert hash(Rational(1, 2)) == hash(Fraction(1, 2))

    def test_str_round_trip(self):
        for text in ("3", "-3", "3/4", "-3/4", "0", "12345678901234567890/7"):
            assert str(Rational.from_str(text)) == text

    def test_from_str_normalizes(self):
        assert Rational.from_str(" 6/8 ") == Rational(3, 4)
        assert str(Rational.from_str("6/8")) == "3/4"

    def test_from_str_rejects_garbage(self):
        with pytest.raises(ValueError):
            Rational.from_str("x/y")
        with pytest.raises(ZeroDivisionError):
            Rational.from_str("1/0")

    def test_float(self):
        assert float(Rational(1, 2)) == 0.5

    def test_repr(self):
        assert repr(Rational(3, 4)) == "Rational(3, 4)"


def test_selected_backend_is_exported():
    # perfbench records fibquat.KERNEL_BACKEND and wraps this class by module path
    assert fibquat.KERNEL_BACKEND == "pure-python"
    assert fibquat.Rational is Rational


def test_a_bool_is_stored_as_an_int():
    assert (str(Rational(True)), repr(Rational(True))) == ("1", "Rational(1, 1)")
    assert repr(Rational(False, True)) == "Rational(0, 1)"
    assert str(fibquat.AlgebraParams(True, False)) == "H(1, 0)"
