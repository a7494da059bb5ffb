"""Differential tests of the cleared-denominator norm routes.

Each route is held against the textbook Rational evaluation it replaced:
``Quaternion.norm`` against a1^2 + b1*a2^2 + b2*a3^2 + b1*b2*a4^2, the
closed forms against the direct norm, and the threshold against the scan of
``Quaternion`` norms in ``threshold_oracle``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Quaternion,
    Rational,
    fib_quat,
    gen_fib_quat,
    norm_fib_formula,
    norm_genfib_formula,
)
from threshold_oracle import located, norm_scan

ZERO_NORM_ALGEBRAS = [
    AlgebraParams(-1, Rational(-1, 3)),  # n(F_0) = 1 - 1/3 - 2/3 = 0
    AlgebraParams(0, 0),                 # n(F_0) = f_0^2 = 0
]

numerators = st.integers(-10**6, 10**6)
denominators = st.integers(1, 10**4)
small_rationals = st.builds(Rational, st.integers(-12, 12), st.integers(1, 6))
small_params = st.builds(AlgebraParams, small_rationals, small_rationals)
seeds = st.builds(GenFibParams, st.integers(-9, 9), st.integers(-9, 9))


@given(data=st.data())
def test_norm_matches_textbook_expression(R, data):
    def rational():
        return R(data.draw(numerators), data.draw(denominators))

    b1, b2 = rational(), rational()
    a1, a2, a3, a4 = (rational() for _ in range(4))
    value = Quaternion(a1, a2, a3, a4, AlgebraParams(b1, b2)).norm()
    textbook = a1 * a1 + b1 * (a2 * a2) + b2 * (a3 * a3) + b1 * b2 * (a4 * a4)
    assert type(value) is R
    assert (value.numerator, value.denominator) == (
        textbook.numerator, textbook.denominator,
    )


def test_norm_with_zero_betas_and_coefficients(R):
    params = AlgebraParams(R(0), R(-3, 4))
    value = Quaternion(R(0), R(5, 6), R(-2, 3), R(0), params).norm()
    assert (value.numerator, value.denominator) == (-1, 3)  # -3/4 * 4/9


@settings(max_examples=25)
@given(params=small_params, pq=seeds)
def test_closed_forms_match_direct_norms(params, pq):
    for n in range(-30, 61):
        assert norm_fib_formula(params, n) == fib_quat(params, n).norm()
        assert norm_genfib_formula(params, pq, n) == gen_fib_quat(params, pq, n).norm()


@settings(max_examples=40)
@given(params=small_params, pq=st.none() | seeds, n_max=st.integers(1, 40))
def test_threshold_matches_reference_scan(params, pq, n_max):
    assert located(params, pq, (n_max,)) == norm_scan(params, pq, (n_max,))


@pytest.mark.parametrize("params", ZERO_NORM_ALGEBRAS, ids=str)
@pytest.mark.parametrize("pq", [None, GenFibParams(2, -1), GenFibParams(-3, 2)], ids=str)
def test_threshold_matches_reference_on_zero_norms(params, pq):
    assert located(params, pq, (50,)) == norm_scan(params, pq, (50,))
