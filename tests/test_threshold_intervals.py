"""The threshold's interval locator held to a scan of ``Quaternion.norm``.

``invertibility_threshold`` reads the norm at O(log n_max) indices, the ends
of each parity's interval of bad indices on the Binet form.  The reference
here builds every F_n (``fib_quat``) or H^{p,q}_n (``gen_fib_quat``) of
[0, n_max], takes the sign of its ``Quaternion.norm``, and derives the whole
report, or ScanExhaustedError when the index n_max is bad, as a scan of the
range would.  The sets:

* the 41x41 lattice beta = (i/2, j/2), |i|, |j| <= 20, for F_n and
  H^{1,2}_n, at n_max in {1, 2, 3, 50, 300};
* 200 seeded rational algebras, each with seeds (p, q), at the same n_max;
* 1,000 constructed zero divisors for F_n and 1,000 for H^{p,q}_n, 250 for
  each of (p, q) = (1, 2), (-3, 5), (2, 3), (5, -7): beta1 = i/d with
  |i| <= 12 and d <= 3, and beta2 = -u_n/u_{n+2} with u_m = x_m^2 +
  beta1*x_{m+1}^2, which gives the element of index n, n in [-200, 200],
  norm 0; at n_max in {50, |n| + 5, 250};
* eight constructed zero divisors whose zero, at n in [-2, 5], is the lower
  end of a bad interval that runs on past it: the sets above have none.

Every report lists at most two zero norms: a zero norm is an end of its
parity's interval (the ``normforms`` module docstring).
"""

import random
import tracemalloc

import pytest

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Rational,
    ScanExhaustedError,
    ThresholdReport,
    fib_quat,
    gen_fib_quat,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
)
from fibquat.sequences import fib_values, gen_fib_values

N_MAXES = (1, 2, 3, 50, 300)


def scanned(params, pq, n_maxes):
    """For each n_max, the report of a scan of Quaternion.norm over
    [0, n_max], or ScanExhaustedError."""
    if pq is None:
        signs = [fib_quat(params, n).norm().sign() for n in range(max(n_maxes) + 1)]
        target = growth_indicator_E(params).sign()
    else:
        signs = [gen_fib_quat(params, pq, n).norm().sign() for n in range(max(n_maxes) + 1)]
        target = growth_indicator_Eprime(params, pq).sign()
    outcomes = []
    for n_max in n_maxes:
        if signs[n_max] != target:
            outcomes.append(ScanExhaustedError)
            continue
        n0 = max((n + 1 for n in range(n_max + 1) if signs[n] != target), default=0)
        zeros = tuple(n for n in range(n0) if not signs[n])
        outcomes.append(ThresholdReport(params, pq, target, n0, n_max, zeros))
    return outcomes


def located(params, pq, n_maxes):
    outcomes = []
    for n_max in n_maxes:
        try:
            report = invertibility_threshold(params, pq, n_max)
        except ScanExhaustedError:
            outcomes.append(ScanExhaustedError)
            continue
        assert len(report.zero_norm_indices) <= 2, report
        outcomes.append(report)
    return outcomes


def zero_divisor(beta1, pq, n):
    """H(beta1, beta2) with the element of index n of norm 0, or None when
    u_{n+2} = 0 leaves beta2 free."""
    x = fib_values(n, n + 4) if pq is None else gen_fib_values(pq, n, n + 4)
    u_n, u_n2 = (x[m] ** 2 + beta1 * x[m + 1] ** 2 for m in (0, 2))
    return AlgebraParams(beta1, -u_n / u_n2) if u_n2 else None


@pytest.mark.parametrize("pq", [None, GenFibParams(1, 2)], ids=str)
def test_the_lattice_matches_a_norm_scan(pq):
    for i in range(-20, 21):
        for j in range(-20, 21):
            params = AlgebraParams(Rational(i, 2), Rational(j, 2))
            assert located(params, pq, N_MAXES) == scanned(params, pq, N_MAXES), params


def test_seeded_algebras_match_a_norm_scan():
    rng = random.Random(2222)
    for _ in range(200):
        params = AlgebraParams(
            Rational(rng.randint(-12, 12), rng.randint(1, 6)),
            Rational(rng.randint(-12, 12), rng.randint(1, 6)),
        )
        pq = (0, 0)
        while pq == (0, 0):
            pq = (rng.randint(-9, 9), rng.randint(-9, 9))
        for kind in (None, GenFibParams(*pq)):
            assert located(params, kind, N_MAXES) == scanned(params, kind, N_MAXES), (params, kind)


@pytest.mark.parametrize(
    "kinds",
    [[None], [GenFibParams(1, 2), GenFibParams(-3, 5), GenFibParams(2, 3), GenFibParams(5, -7)]],
    ids=["fib", "genfib"],
)
def test_constructed_zero_divisors_match_a_norm_scan(kinds):
    rng = random.Random(2223)
    count = 0
    while count < 1000:
        pq = kinds[count % len(kinds)]
        n = rng.randint(-200, 200)
        params = zero_divisor(Rational(rng.randint(-12, 12), rng.randint(1, 3)), pq, n)
        if params is None:
            continue
        count += 1
        n_maxes = (50, abs(n) + 5, 250)
        outcomes = located(params, pq, n_maxes)
        assert outcomes == scanned(params, pq, n_maxes), (params, pq, n)
        if n >= 0 and outcomes[2] is not ScanExhaustedError:
            assert n in outcomes[2].zero_norm_indices, (params, pq, n)


def test_a_zero_at_8000_costs_little_memory():
    # a scan of [0, 8000] holds thousands of 5,500-bit norms; the locator
    # holds the few it reads
    params = zero_divisor(Rational(-3), None, 8000)
    fib_values(8000, 8004)  # the engine's own state, outside the measurement
    tracemalloc.start()
    try:
        report = invertibility_threshold(params, None, 8100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.empirical_n0 == 8001 and report.zero_norm_indices == (8000,)
    assert peak < 5 * 10**6, peak


@pytest.mark.parametrize(
    "pq, n, beta1",
    [(GenFibParams(-3, 2), 5, Rational(4, 3)), (GenFibParams(3, -2), 5, Rational(4, 3)),
     (GenFibParams(-4, 2), 4, Rational(4, 3)), (GenFibParams(3, -2), 4, Rational(1, 3)),
     (GenFibParams(-5, 3), 0, Rational(-2, 5)), (GenFibParams(-3, 2), -1, Rational(-2, 5)),
     (GenFibParams(-3, 2), -2, Rational(-1, 3)), (GenFibParams(4, -3), -2, Rational(-1, 3))],
    ids=str,
)
def test_a_zero_at_the_lower_end_of_its_interval(pq, n, beta1):
    # algebras whose bad interval of n's parity starts at the zero n, as n - 2
    # is good and n + 2 bad: the locator must reach down to n from the
    # interval's minimum, which lies at n + 4 or beyond, and list n when
    # n >= 0, but not when the interval enters [0, n_max] from below 0
    params = zero_divisor(beta1, pq, n)
    sign = growth_indicator_Eprime(params, pq).sign()
    signs = [gen_fib_quat(params, pq, m).norm().sign() for m in (n - 2, n, n + 2)]
    assert signs == [sign, 0, -sign]
    n_maxes = (1, 50, 300)
    outcomes = located(params, pq, n_maxes)
    assert outcomes == scanned(params, pq, n_maxes)
    assert all((n in report.zero_norm_indices) == (n >= 0) for report in outcomes[1:])
