"""The batched closed forms behind ``verify_threshold_report`` and the growth
indicators on integer surd numerators.

The batched scan is held against the single-index public closed forms, and
the integer E and E' against QuadraticSurds built from the textbook Rational
formulas.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import (
    ALPHA,
    AlgebraParams,
    ConsistencyError,
    GenFibParams,
    IndicatorDegenerateError,
    QuadraticSurd,
    Rational,
    fib,
    gen_fib_quat,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    norm_fib_formula,
    norm_genfib_formula,
    verify_threshold_report,
)
from fibquat import normforms

rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 12))
algebras = st.builds(AlgebraParams, rationals, rationals)
seeds = st.builds(GenFibParams, st.integers(-20, 20), st.integers(-20, 20))

N = 60


def batched(params, pq):
    """V(n) = 5*d1*d2 * norm for n in [0, N] by the route verify_threshold_report takes."""
    f = [fib(m) for m in range(0, 2 * N + 2)]  # f[m] = f_m
    return normforms._genfib_formula_tops(params, pq or (0, 1), 0, f)


@settings(max_examples=60)
@given(params=algebras, pq=seeds)
def test_batched_closed_forms_match_single_index(params, pq):
    bottom = 5 * params.beta1.denominator * params.beta2.denominator
    fib_tops = batched(params, None)
    genfib_tops = batched(params, pq)
    for n in range(N + 1):
        assert Rational(fib_tops[n], bottom) == norm_fib_formula(params, n)
        assert Rational(genfib_tops[n], bottom) == norm_genfib_formula(params, pq, n)
    # n = 0 takes the closed form too
    assert Rational(genfib_tops[0], bottom) == gen_fib_quat(params, pq, 0).norm()


def textbook_E(b1, b2):
    fifth = Rational(1, 5)
    return fifth * ((1 + b1 + 2 * b2 + 5 * (b1 * b2)) + ALPHA * (b1 + 3 * b2 + 8 * (b1 * b2)))


def textbook_Eprime(b1, b2, p, q):
    a2 = ALPHA * ALPHA
    bracket = 1 + b1 * a2 + b2 * (a2 * a2) + (b1 * b2) * (a2 * a2 * a2)
    return Rational(1, 5) * ((p + q * ALPHA) ** 2 * bracket)


def same_surd(x, y):
    return (x.r.numerator, x.r.denominator, x.s.numerator, x.s.denominator) == (
        y.r.numerator, y.r.denominator, y.s.numerator, y.s.denominator,
    )


@settings(max_examples=200)
@given(params=algebras, pq=seeds)
def test_integer_indicators_match_textbook_surds(params, pq):
    b1, b2 = params.beta1, params.beta2
    E = growth_indicator_E(params)
    Eprime = growth_indicator_Eprime(params, pq)
    assert isinstance(E, QuadraticSurd) and isinstance(Eprime, QuadraticSurd)
    assert same_surd(E, textbook_E(b1, b2))
    assert same_surd(Eprime, textbook_Eprime(b1, b2, pq.p, pq.q))


@pytest.mark.parametrize("betas", [(0, 0), (1, 1), (-1, Rational(-1, 3)), (Rational(7, 4), -3)])
def test_zero_seeds_still_degenerate(betas):
    params = AlgebraParams(*betas)
    assert growth_indicator_Eprime(params, GenFibParams(0, 0)).is_zero()
    with pytest.raises(IndicatorDegenerateError):
        invertibility_threshold(params, GenFibParams(0, 0), 20)


def test_eprime_cross_check_is_live():
    params = AlgebraParams(Rational(3, 2), Rational(-1, 4))
    u, v = normforms._indicator_E_pair(params)
    with mock.patch.object(normforms, "_indicator_E_pair", return_value=(u, v + 2)):
        with pytest.raises(ConsistencyError):
            growth_indicator_Eprime(params, GenFibParams(1, 2))


@settings(max_examples=40)
@given(params=algebras, pq=st.none() | seeds)
def test_batched_verify_accepts_every_scan(params, pq):
    if pq == (0, 0):
        return
    try:
        report = invertibility_threshold(params, pq, 40)
    except normforms.ScanExhaustedError:
        return
    verify_threshold_report(report)
