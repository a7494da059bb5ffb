"""The threshold's search: galloping, then bisection.

``invertibility_threshold`` locates each parity's interval of bad indices
with ``normforms._reach``, which tries t = 1, 3, 7, ... and bisects the
last step.  Its report must be the one a plain stepping scan of [0, n_max]
gives, written out here on the integer quadratic form of the norm, and it
must read few sequence values far out.  The algebras are zero divisors on
demand, as in ``test_threshold_bound``: beta2 = -u_n/u_{n+2}, with
u_m = x_m^2 + beta1*x_{m+1}^2, gives the element of index n norm 0, which
puts a bad interval's end at n.
"""

import random

import pytest

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Rational,
    ScanExhaustedError,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat import normforms
from fibquat.sequences import _Recurrence, fib_values, gen_fib_values


def _values(pq, start, stop):
    return fib_values(start, stop) if pq is None else gen_fib_values(pq, start, stop)


def zero_divisor(beta1, pq, n):
    """The algebra H(beta1, beta2) in which the element of index n has norm 0."""
    x = _values(pq, n, n + 4)
    u_n, u_n2 = (x[m] ** 2 + beta1 * x[m + 1] ** 2 for m in (0, 2))
    return AlgebraParams(beta1, -u_n / u_n2)


def stepping_scan(params, pq, n_max):
    """(n0, zero indices) of a scan of every n in [0, n_max], or "exhausted"."""
    n1, d1, n2, d2 = params
    x = _values(pq, 0, n_max + 4)
    tops = [
        d2 * (d1 * x[n] ** 2 + n1 * x[n + 1] ** 2) + n2 * (d1 * x[n + 2] ** 2 + n1 * x[n + 3] ** 2)
        for n in range(n_max + 1)
    ]
    indicator = growth_indicator_E(params) if pq is None else growth_indicator_Eprime(params, pq)
    target = indicator.sign()
    if target * tops[n_max] <= 0:
        return "exhausted"
    n0 = max((n + 1 for n, top in enumerate(tops) if target * top <= 0), default=0)
    return n0, tuple(n for n in range(n0) if tops[n] == 0)


def located(params, pq, n_max):
    try:
        report = invertibility_threshold(params, pq, n_max)
    except ScanExhaustedError:
        return "exhausted"
    return report.empirical_n0, report.zero_norm_indices


# indices around the powers of two the galloping lands on, and a spread to 2,000
INDICES = [30, 31, 32, 33, 34, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 700, 1023, 1024,
           1500, 2000]


@pytest.mark.parametrize("pq", [None, GenFibParams(2, -5)], ids=str)
def test_the_search_finds_the_stepping_bound(pq):
    rng = random.Random(1616)
    for n in INDICES if pq is None else INDICES[::3]:
        beta1 = Rational(rng.choice([-7, -5, -3, -2, -1, 2, 3]), rng.randint(1, 4))
        params = zero_divisor(beta1, pq, n)
        for n_max in (n - 1, n, n + 1, 2 * n + 100):
            expected = stepping_scan(params, pq, n_max)
            assert located(params, pq, n_max) == expected, (params, n, n_max)
        assert expected[0] > n and n in expected[1], (params, n)


def test_small_bounds_and_ranges_stay_on_the_steps():
    # zeros below 33, and n_max at and around the first steps of the gallop
    for n in (0, 1, 5, 20, 31):
        params = zero_divisor(Rational(-2), None, n)
        for n_max in (1, 2, 3, n + 1, 31, 32, 33, 64, 65, 200):
            assert located(params, None, n_max) == stepping_scan(params, None, n_max), (n, n_max)
    params = zero_divisor(Rational(-3), None, 40)
    for n_max in (31, 32, 33, 39, 40, 41, 42):
        assert located(params, None, n_max) == stepping_scan(params, None, n_max), n_max


def test_reach_finds_the_end_of_every_prefix():
    # holds is true on [0, end]; t = 0 is never asked, and no t past limit
    for limit in range(0, 70):
        for end in range(0, 75):
            asked = []

            def holds(t):
                assert 0 < t <= limit
                asked.append(t)
                return t <= end

            assert normforms._reach(holds, limit) == min(end, limit), (end, limit)
            assert len(asked) <= 2 * limit.bit_length()


def test_a_deep_zero_divisor_reports_its_zero():
    # the locator reads only near the interval's ends, past the zero at n = 900
    params = zero_divisor(Rational(-3), None, 900)
    report = invertibility_threshold(params, None, 1000)
    verify_threshold_report(report)
    assert report.empirical_n0 == 901 and 900 in report.zero_norm_indices


def test_the_search_reads_few_powers_far_out(monkeypatch):
    # at n = 6,000 and 12,000 a scan takes seconds; galloping and bisecting
    # read about 2*log2(n/2048) engine powers instead, the f-table serving
    # indices to 4,093
    power = _Recurrence._power
    calls = []
    monkeypatch.setattr(_Recurrence, "_power", lambda self, n: calls.append(n) or power(self, n))
    for n in (6000, 12000):
        params = zero_divisor(Rational(-3), None, n)
        calls.clear()
        report = invertibility_threshold(params, None, 10**6)
        assert report.empirical_n0 == n + 1 and report.zero_norm_indices == (n,)
        assert 0 < len(calls) <= 2 * (n // 32).bit_length() + 4, (n, len(calls))
