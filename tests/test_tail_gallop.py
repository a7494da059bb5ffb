"""The tail bound's search: doubling, then bisection.

``normforms._tail_bound`` reads alpha^(2n) = f_{2n-1} + f_{2n}*alpha from
the f-engine and, because |lead|*alpha^(2n) grows with n, doubles n + 1 from
1 and bisects the last step.  Its result must be the least N that a plain
stepping search finds, written out here on integers of Z[alpha].  The
algebras are zero divisors on demand, as in ``test_threshold_bound``:
beta2 = -u_n/u_{n+2}, with u_m = x_m^2 + beta1*x_{m+1}^2, gives the element
of index n norm 0, which puts N just past n.
"""

import random

import pytest

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Rational,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat import normforms
from fibquat.sequences import _Recurrence, fib_values, gen_fib_values
from fibquat.surd import mul, residue_sign


def _values(pq, stop):
    return fib_values(0, stop) if pq is None else gen_fib_values(pq, 0, stop)


def zero_divisor(beta1, pq, n):
    """The algebra H(beta1, beta2) in which the element of index n has norm 0."""
    x = _values(pq, n + 4)
    u_n, u_n2 = (x[m] ** 2 + beta1 * x[m + 1] ** 2 for m in (n, n + 2))
    return AlgebraParams(beta1, -u_n / u_n2)


def lead_and_constant(params, pq):
    lead = normforms._indicator(params, pq)
    if pq is not None:
        lead = mul(lead, [2, -1])  # times alpha^-2
    tops = normforms._cleared_norm_scan(params, _values(pq, 6))
    return lead, normforms._fitted_constant(lead, tops)


def stepping_bound(lead, k, n_max):
    """The least n <= n_max with |lead|*alpha^(2n) > |sigma(lead)| + |k|, by
    stepping alpha^(2n) = g + h*alpha one n at a time."""
    c0, c1 = lead
    sign = residue_sign(c0, c1)
    s0, s1 = c0 + c1, -c1
    conj_sign = residue_sign(s0, s1)
    g, h = 1, 0
    for n in range(n_max + 1):
        a0, a1 = mul([sign * c0, sign * c1], [g, h])
        if residue_sign(a0 - conj_sign * s0 - abs(k), a1 - conj_sign * s1) > 0:
            return n
        g, h = g + h, g + 2 * h
    return None


# indices around the powers of two the doubling lands on, and a spread to 2,000
INDICES = [30, 31, 32, 33, 34, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 700, 1023, 1024,
           1500, 2000]


@pytest.mark.parametrize("pq", [None, GenFibParams(2, -5)], ids=str)
def test_the_search_finds_the_stepping_bound(pq):
    rng = random.Random(1616)
    for n in INDICES if pq is None else INDICES[::3]:
        beta1 = Rational(rng.choice([-7, -5, -3, -2, -1, 2, 3]), rng.randint(1, 4))
        params = zero_divisor(beta1, pq, n)
        lead, k = lead_and_constant(params, pq)
        bound = stepping_bound(lead, k, 4 * n + 100)
        assert bound is not None and bound > n, (params, n)
        assert normforms._tail_bound(lead, k, 10**6) == bound, (params, n)
        assert normforms._tail_bound(lead, k, bound) == bound
        assert normforms._tail_bound(lead, k, bound + 1) == bound
        assert normforms._tail_bound(lead, k, bound - 1) is None, (params, n)


def test_small_bounds_and_ranges_stay_on_the_steps():
    # a bound below 33, and n_max at and around the step limit
    for n in (0, 5, 20, 31):
        params = zero_divisor(Rational(-2), None, n)
        lead, k = lead_and_constant(params, None)
        bound = stepping_bound(lead, k, 200)
        for n_max in (0, 1, n, 31, 32, 33, 64, 65, 200):
            expected = bound if bound <= n_max else None
            assert normforms._tail_bound(lead, k, n_max) == expected, (n, n_max)
    params = zero_divisor(Rational(-3), None, 40)
    lead, k = lead_and_constant(params, None)
    bound = stepping_bound(lead, k, 200)
    assert bound > 33
    for n_max in (31, 32, 33, bound - 1):
        assert normforms._tail_bound(lead, k, n_max) is None


def test_a_deep_zero_divisor_reports_its_zero():
    # the threshold scan stops at the bound, past the zero at n = 900
    params = zero_divisor(Rational(-3), None, 900)
    report = invertibility_threshold(params, None, 1000)
    verify_threshold_report(report)
    assert report.empirical_n0 == 901 and 900 in report.zero_norm_indices


def test_the_search_reads_few_powers_far_out(monkeypatch):
    # at n = 6,000 stepping takes seconds; doubling and bisecting read about
    # 2*log2(N/2048) engine powers instead, the f-table serving 2n <= 4096
    params = zero_divisor(Rational(-3), None, 6000)
    lead, k = lead_and_constant(params, None)
    power = _Recurrence._power
    calls = []
    monkeypatch.setattr(_Recurrence, "_power", lambda self, n: calls.append(n) or power(self, n))
    bound = normforms._tail_bound(lead, k, 10**6)
    assert bound == 6001
    assert 0 < len(calls) <= 2 * (bound // 32).bit_length() + 4
    assert normforms._tail_bound(lead, k, 6000) is None
