"""The threshold read off the Binet form of the norm.

``invertibility_threshold`` reads the norm only at the indices that locate
each parity's interval of bad indices on the Binet form, so its report must
still equal that of a scan of the whole range [0, n_max].  The reference
here is such a scan, written out in the test: the sign of d1*d2 times each
norm from the quadratic form d2*(d1*x1^2 + n1*x2^2) + n2*(d1*x3^2 +
n1*x4^2) on the sequence values.  Past the least N with
|A|*alpha^(2N) > |sigma(A)| + |k| every norm has the sign of E, which the
test finds by QuadraticSurd arithmetic.

The algebras that make the intervals matter are zero divisors on demand:
the norm of F_n is u_n + beta2*u_{n+2}, with u_m = f_m^2 + beta1*f_{m+1}^2
(h in place of f for H^{p,q}_n), so beta2 = -u_n/u_{n+2} gives the element
of index n norm 0, with sign changes around it that an interval end set
wrong would miss.
"""

import random

import pytest

from fibquat import (
    AlgebraParams,
    ConsistencyError,
    GenFibParams,
    Rational,
    ScanExhaustedError,
    fib_quat,
    gen_fib_quat,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat import normforms
from fibquat.sequences import fib_values, gen_fib_values
from fibquat.surd import ALPHA, QuadraticSurd, from_residue, mul


def _values(pq, stop):
    return fib_values(0, stop) if pq is None else gen_fib_values(pq, 0, stop)


def reference_scan(params, pq, n_max):
    """(n0, zero indices) of a full scan of [0, n_max], or "exhausted"."""
    b1, b2 = params.beta1, params.beta2
    n1, d1, n2, d2 = b1.numerator, b1.denominator, b2.numerator, b2.denominator
    indicator = growth_indicator_E(params) if pq is None else growth_indicator_Eprime(params, pq)
    target = indicator.sign()
    x = _values(pq, n_max + 4)
    signs = []
    for n in range(n_max + 1):
        top = d2 * (d1 * x[n] ** 2 + n1 * x[n + 1] ** 2) + n2 * (
            d1 * x[n + 2] ** 2 + n1 * x[n + 3] ** 2
        )
        signs.append((top > 0) - (top < 0))
    if signs[n_max] != target:
        return "exhausted"
    n0 = max((n + 1 for n in range(n_max + 1) if signs[n] != target), default=0)
    return n0, tuple(n for n in range(n0) if signs[n] == 0)


def scan(params, pq, n_max):
    try:
        report = invertibility_threshold(params, pq, n_max)
    except ScanExhaustedError:
        return "exhausted"
    verify_threshold_report(report)
    return report.empirical_n0, report.zero_norm_indices


def zero_divisor_family(pq, count, seed):
    """(params, n): beta1 = i/d, and beta2 making the element of index n,
    n in [0, 119], a zero divisor."""
    rng = random.Random(seed)
    family = []
    while len(family) < count:
        beta1 = Rational(rng.randint(-12, 12), rng.randint(1, 3))
        n = rng.randint(0, 119)
        x = _values(pq, n + 4)
        u_n, u_n2 = (x[m] ** 2 + beta1 * x[m + 1] ** 2 for m in (n, n + 2))
        if u_n2 != 0:
            family.append((AlgebraParams(beta1, -u_n / u_n2), n))
    return family


def binet_lead(params, pq):
    """5*d1*d2 times the coefficient of alpha^(2n) in the norm: the indicator
    residue, times alpha^-2 = 2 - alpha for H^{p,q}_n."""
    lead = normforms._indicator(params, pq)
    return lead if pq is None else mul(lead, [2, -1])


def _seeded_algebras(count, seed):
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        params = AlgebraParams(
            Rational(rng.randint(-12, 12), rng.randint(1, 6)),
            Rational(rng.randint(-12, 12), rng.randint(1, 6)),
        )
        pq = (0, 0)
        while pq == (0, 0):
            pq = (rng.randint(-9, 9), rng.randint(-9, 9))
        points.append((params, GenFibParams(*pq)))
    return points


@pytest.mark.parametrize("pq", [None, GenFibParams(1, 2), GenFibParams(-3, 5)], ids=str)
def test_constructed_zero_divisors_match_a_full_scan(pq):
    count = 1000 if pq is None else 500  # 1,000 algebras in all for H^{p,q}_n
    for params, n in zero_divisor_family(pq, count, seed=1414):
        for n_max in (50, 130):
            outcome = scan(params, pq, n_max)
            assert outcome == reference_scan(params, pq, n_max), (params, pq, n, n_max)
        if outcome != "exhausted":
            assert n in outcome[1], (params, pq, n)


def test_every_norm_past_the_bound_has_the_sign_of_E():
    # n0 at n_max = 10^6 is proven: the next 200 norms all have the sign of E
    for params, pq in _seeded_algebras(200, seed=1415):
        for kind in (None, pq):
            report = invertibility_threshold(params, kind, 10**6)
            for n in range(report.empirical_n0, report.empirical_n0 + 201):
                element = fib_quat(params, n) if kind is None else gen_fib_quat(params, kind, n)
                assert element.norm().sign() == report.sign_of_E, (params, kind, n)


def test_a_zero_past_n_max_leaves_the_report_a_scan():
    # a zero divisor at n >= 100: at every n_max around and below its zero
    # the report is still that of a scan of [0, n_max]
    params, n = next((p, n) for p, n in zero_divisor_family(None, 400, seed=7) if n >= 100)
    for n_max in (20, n - 1, n, n + 1, 2 * n):
        assert scan(params, None, n_max) == reference_scan(params, None, n_max), n_max
    assert n in scan(params, None, 2 * n)[1]


def binet_norms(params, pq):
    """5*d1*d2 times the norm at n = 0, 1, ..., N by the Binet form
    A*alpha^(2n) + sigma(A)*alpha^(-2n) + k*(-1)^n in QuadraticSurd
    arithmetic, with k from the direct norm at n = 0, and N the least n >= 0
    with |A|*alpha^(2n) > |sigma(A)| + |k|, past which every norm has the
    sign of A."""
    n1, d1, n2, d2 = params
    element = fib_quat(params, 0) if pq is None else gen_fib_quat(params, pq, 0)
    c0, c1 = binet_lead(params, pq)
    lead, conj = from_residue((c0, c1), 1), from_residue((c0 + c1, -c1), 1)
    k = 5 * d1 * d2 * element.norm() - (lead + conj).r
    size, rest = lead * lead.sign(), conj * conj.sign() + abs(k)
    norms, power = [], from_residue((1, 0), 1)
    while True:
        term = lead * power
        norms.append(term + QuadraticSurd(term.r, -term.s) + k * (-1) ** len(norms))
        if (size * power - rest).sign() > 0:
            return norms
        power = power * ALPHA**2


def test_the_exact_search_finds_the_least_bound():
    # every norm past the least bound N has the sign of A, so a QuadraticSurd
    # scan of [0, N] by the Binet form gives the proven report at any n_max
    cases = [(params, None) for params, _ in zero_divisor_family(None, 60, seed=1416)]
    seeds = GenFibParams(2, 3)
    cases += [(params, seeds) for params, _ in zero_divisor_family(seeds, 60, seed=1416)]
    cases += _seeded_algebras(40, seed=1416)
    for params, pq in cases:
        norms = binet_norms(params, pq)
        bound = len(norms) - 1
        n1, d1, n2, d2 = params
        for n in {0, bound // 2, bound}:
            element = fib_quat(params, n) if pq is None else gen_fib_quat(params, pq, n)
            assert norms[n] == 5 * d1 * d2 * element.norm(), (params, pq, n)
        sign = from_residue(binet_lead(params, pq), 1).sign()
        n0 = max((n + 1 for n, norm in enumerate(norms) if norm.sign() != sign), default=0)
        zeros = tuple(n for n in range(n0) if norms[n].is_zero())
        assert scan(params, pq, max(bound, 1)) == (n0, zeros), (params, pq)
        report = invertibility_threshold(params, pq, 10**6)
        assert (report.empirical_n0, report.zero_norm_indices) == (n0, zeros), (params, pq)


@pytest.mark.parametrize("offset", [(1, 0), (1, -1), (2, -1)])
def test_the_fit_check_is_live(monkeypatch, offset):
    # (1, -1) breaks only the fit at n = 2, (2, -1) only the fit at n = 1
    params = AlgebraParams(Rational(-3, 2), Rational(5, 4))
    assert invertibility_threshold(params).scanned_up_to == 50
    invertibility_threshold(params, GenFibParams(2, -1))
    pair = normforms._indicator_E_pair
    monkeypatch.setattr(
        normforms, "_indicator_E_pair", lambda p: [pair(p)[0] + offset[0], pair(p)[1] + offset[1]]
    )
    with pytest.raises(ConsistencyError, match="do not fit"):
        invertibility_threshold(params)
    monkeypatch.undo()
    indicator = normforms._indicator
    monkeypatch.setattr(normforms, "_indicator", lambda p, pq: [2 * c for c in indicator(p, pq)])
    with pytest.raises(ConsistencyError, match="do not fit"):
        invertibility_threshold(params, GenFibParams(2, -1))


@pytest.mark.parametrize("pq", [None, GenFibParams(3, -7)], ids=str)
def test_huge_betas_match_a_full_scan(pq):
    big = 10**299 + 7
    cases = [
        AlgebraParams(Rational(big, 3), Rational(-big - 2, 10**298 + 1)),
        AlgebraParams(Rational(-big, 7), Rational(big + 4, 5)),
        AlgebraParams(Rational(5, big), Rational(-(3 * big + 1), big)),
        AlgebraParams(Rational(10**150 + 1, 3), Rational(-(10**150), 7)),
    ]
    # and a zero divisor at n = 40 with 300-digit numerators
    beta1 = Rational(-big, 11)
    x = _values(pq, 44)
    u_n, u_n2 = (x[m] ** 2 + beta1 * x[m + 1] ** 2 for m in (40, 42))
    cases.append(AlgebraParams(beta1, -u_n / u_n2))
    for params in cases:
        for n_max in (1, 3, 50, 130):
            assert scan(params, pq, n_max) == reference_scan(params, pq, n_max), (params, n_max)
    assert 40 in scan(cases[-1], pq, 130)[1]


@pytest.mark.parametrize(
    "params",
    [AlgebraParams(1, 1), AlgebraParams(Rational(3, 2), -1), AlgebraParams(-2, Rational(-1, 3))],
    ids=str,
)
def test_unit_multiple_seeds_match_a_full_scan(params):
    # seeds (f_{j-1}, f_j) make p + q*alpha = alpha^j, so the lead is a unit
    # multiple of alpha^(2j-2): |sigma(lead)| is below 1e-300 of it, and with
    # beta1 = 1 or beta2 = -1 (the first two algebras) the fitted k is 0
    for j in (1, 60, 399, 400, 560, 735, 900):
        pq = GenFibParams(fib_values(j - 1, j + 1)[0], fib_values(j - 1, j + 1)[1])
        for n_max in (1, 50, 130):
            assert scan(params, pq, n_max) == reference_scan(params, pq, n_max), (j, n_max)
