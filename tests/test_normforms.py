"""Closed-form norms, growth indicators, and invertibility threshold scans.

The closed forms are held against the direct norm at n in [-30, 60], and
their folded integer tops, the batch that ``verify_threshold_report`` reads,
against a literal Rational transcription of the docstring formulas.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    ConsistencyError,
    DomainError,
    GenFibParams,
    IndicatorDegenerateError,
    QuadraticSurd,
    Rational,
    ScanExhaustedError,
    fib,
    fib_quat,
    gen_fib_quat,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    norm_fib_formula,
    norm_genfib_formula,
    swamy_norm_as_stated,
    swamy_norm_corrected,
    verify_threshold_report,
)
from fibquat import normforms
from fibquat.sequences import fib_values
from fibquat.surd import ALPHA

H11 = AlgebraParams(1, 1)
SPLIT = AlgebraParams(-1, Rational(-1, 3))


def rand_params(rng, bound=8, max_den=4):
    return AlgebraParams(
        Rational(rng.randint(-bound, bound), rng.randint(1, max_den)),
        Rational(rng.randint(-bound, bound), rng.randint(1, max_den)),
    )


class TestFibNormFormula:
    def test_reduces_to_three_f(self):
        for n in range(0, 31):
            assert norm_fib_formula(H11, n) == 3 * fib(2 * n + 3)

    def test_pinned(self):
        assert norm_fib_formula(AlgebraParams(2, 3), 0) == 29
        assert norm_fib_formula(SPLIT, 0) == 0

    def test_matches_direct_norm(self):
        rng = random.Random(21)
        for _ in range(10):
            params = rand_params(rng)
            for n in range(-30, 61):
                assert norm_fib_formula(params, n) == fib_quat(params, n).norm()


class TestGenFibNormFormula:
    def test_reduces_to_fib_formula(self):
        rng = random.Random(22)
        for _ in range(5):
            params = rand_params(rng)
            for n in range(1, 31):
                assert norm_genfib_formula(params, (0, 1), n) == norm_fib_formula(
                    params, n
                )

    def test_pinned(self):
        assert norm_genfib_formula(H11, (2, 1), 3) == 510  # 16 + 49 + 121 + 324
        assert norm_genfib_formula(H11, (1, 1), 1) == 39  # 1 + 4 + 9 + 25

    def test_matches_direct_norm(self):
        rng = random.Random(23)
        for _ in range(10):
            params = rand_params(rng)
            pq = GenFibParams(rng.randint(-9, 9), rng.randint(-9, 9))
            for n in range(-30, 61):
                assert norm_genfib_formula(params, pq, n) == gen_fib_quat(
                    params, pq, n
                ).norm()


# -- the docstring formulas, transcribed literally over Rationals -------------

def h(a, b, m):
    """h^{a,b}_m = a f_{m-1} + b f_m."""
    return a * fib(m - 1) + b * fib(m)


def literal_fib_norm(b1, b2, n):
    return (h(1 + 2 * b2, 3 * b2, 2 * n + 2) + (b1 - 1) * h(1 + 2 * b2, b2, 2 * n + 3)
            - 2 * (b1 - 1) * (1 + b2) * fib(n) * fib(n + 1))


def literal_genfib_norm(b1, b2, p, q, n):
    return (p**2 * h(1 + 2 * b2, 3 * b2, 2 * n)
            + p**2 * (b1 - 1) * h(1 + 2 * b2, b2, 2 * n + 1)
            + q**2 * h(1 + 2 * b2, 3 * b2, 2 * n + 2)
            + q**2 * (b1 - 1) * h(1 + 2 * b2, b2, 2 * n + 3)
            - 2 * p * (b1 - 1) * (p * b2 + p + q) * fib(n - 1) * fib(n)
            - 2 * q**2 * (b1 - 1) * (1 + b2) * fib(n) * fib(n + 1)
            + h(2 * p * q * b1, 2 * p * q * b1 * b2, 2 * n + 1)
            + 2 * p * q * b1 * b2 * (fib(2 * n) + fib(2 * n + 3))
            + 2 * p * q * b2 * (1 - b1) * fib(n + 1) * fib(n + 2))


rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 12))
algebras = st.builds(AlgebraParams, rationals, rationals)
seeds = st.builds(GenFibParams, st.integers(-20, 20), st.integers(-20, 20))


@settings(max_examples=40)
@given(params=algebras, pq=seeds, s=st.integers(-40, 40), count=st.integers(1, 12))
def test_folded_tops_match_the_docstring_formulas(params, pq, s, count):
    b1, b2 = params.beta1, params.beta2
    bottom = 5 * b1.denominator * b2.denominator  # the tops are V(n)
    e = s + count - 1  # tops for n = s..e from one pair of value lists
    fib_tops = normforms._genfib_formula_tops(params, (0, 1), s, fib_values(2 * s, 2 * e + 2))
    genfib_tops = normforms._genfib_formula_tops(params, pq, s, fib_values(2 * s, 2 * e + 2))
    assert len(fib_tops) == len(genfib_tops) == count
    for n, fib_top, genfib_top in zip(range(s, e + 1), fib_tops, genfib_tops):
        assert Rational(fib_top, bottom) == literal_fib_norm(b1, b2, n)
        assert Rational(genfib_top, bottom) == literal_genfib_norm(b1, b2, pq.p, pq.q, n)


class TestSwamyTranscriptions:
    def test_as_stated_literal_values(self):
        assert swamy_norm_as_stated((0, 1), 0) == 2  # f_3
        assert swamy_norm_as_stated((1, 0), 1) == -4  # 3(0-1)f_4 + f_5

    def test_as_stated_misses_direct_norm(self):
        assert fib_quat(H11, 0).norm() == 6
        assert swamy_norm_as_stated((0, 1), 0) != 6

    def test_corrected_matches_direct_norm(self):
        for p in range(-6, 7):
            for q in range(-6, 7):
                for n in range(0, 21):
                    assert swamy_norm_corrected((p, q), n) == gen_fib_quat(
                        H11, (p, q), n
                    ).norm()


class TestGrowthIndicators:
    def test_e_pinned(self):
        e = growth_indicator_E(H11)
        assert e == QuadraticSurd(3, Rational(6, 5))
        assert e.sign() == 1
        e_neg = growth_indicator_E(AlgebraParams(-1, 1))
        assert e_neg == QuadraticSurd(Rational(-6, 5), Rational(-3, 5))
        assert e_neg.sign() == -1

    def test_e_nonzero_on_grid(self):
        half = Rational(1, 2)
        for i in range(-8, 9):
            for j in range(-8, 9):
                assert not growth_indicator_E(
                    AlgebraParams(i * half, j * half)
                ).is_zero()

    def test_eprime_equals_weighted_e(self):
        rng = random.Random(25)
        for _ in range(100):
            params = rand_params(rng)
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
            value = growth_indicator_Eprime(params, (p, q))
            weight = (p + q * ALPHA) ** 2
            assert value == weight * growth_indicator_E(params)
            if (p, q) != (0, 0):
                assert value.sign() == growth_indicator_E(params).sign()

    def test_eprime_zero_seeds(self):
        assert growth_indicator_Eprime(H11, (0, 0)).is_zero()


class TestThreshold:
    def test_division_algebra(self):
        report = invertibility_threshold(H11, None, 50)
        assert report.sign_of_E == 1
        assert report.empirical_n0 == 0
        assert report.zero_norm_indices == ()
        assert report.scanned_up_to == 50
        verify_threshold_report(report)

    def test_negative_definite_tail(self):
        report = invertibility_threshold(AlgebraParams(-1, 1), None, 50)
        assert report.sign_of_E == -1
        assert report.empirical_n0 == 0
        verify_threshold_report(report)

    def test_zero_divisor_at_start(self):
        report = invertibility_threshold(SPLIT, None, 50)
        assert 0 in report.zero_norm_indices
        assert report.empirical_n0 == 1
        assert report.sign_of_E == 1
        verify_threshold_report(report)

    def test_genfib_threshold(self):
        report = invertibility_threshold(SPLIT, GenFibParams(2, -1), 40)
        verify_threshold_report(report)
        assert report.pq == GenFibParams(2, -1)

    def test_degenerate_indicator(self):
        with pytest.raises(IndicatorDegenerateError):
            invertibility_threshold(H11, GenFibParams(0, 0), 50)

    def test_zero_divisor_mid_scan(self):
        # in H(-1, 0): n(F_n) = f_n^2 - f_{n+1}^2, zero exactly at n = 1
        degenerate = AlgebraParams(-1, 0)
        report = invertibility_threshold(degenerate, None, 50)
        assert report.sign_of_E == -1
        assert report.empirical_n0 == 2
        assert report.zero_norm_indices == (1,)
        verify_threshold_report(report)

    def test_scan_exhausted(self):
        # the zero at n = 1 sits at the end of a [0, 1] scan
        with pytest.raises(ScanExhaustedError):
            invertibility_threshold(AlgebraParams(-1, 0), None, 1)
        with pytest.raises(DomainError):
            invertibility_threshold(SPLIT, None, 0)

    def test_verify_rejects_tampered_report(self):
        report = invertibility_threshold(SPLIT, None, 50)
        with pytest.raises(ConsistencyError):
            verify_threshold_report(report._replace(empirical_n0=0))
        with pytest.raises(ConsistencyError):
            verify_threshold_report(report._replace(empirical_n0=5))
        with pytest.raises(ConsistencyError):
            verify_threshold_report(report._replace(sign_of_E=-1))
        with pytest.raises(ConsistencyError):
            verify_threshold_report(report._replace(zero_norm_indices=()))

    def test_reports_deterministic(self):
        a = invertibility_threshold(SPLIT, None, 50)
        b = invertibility_threshold(SPLIT, None, 50)
        assert a == b
