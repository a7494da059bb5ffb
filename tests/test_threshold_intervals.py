"""The threshold's interval locator held to a scan of ``Quaternion.norm``.

``invertibility_threshold`` reads the norm at O(log n_max) indices, the ends
of each parity's interval of bad indices on the Binet form, and its report
must equal what a scan of every index of [0, n_max] reports, or
ScanExhaustedError when the index n_max is bad.  The scan is
``threshold_oracle.norm_scan``, and the library's side is
``threshold_oracle.located``, which also re-verifies each report and checks
that it lists at most two zero norms: a zero norm is an end of its parity's
interval (the ``normforms`` module docstring).  The sets:

* the 41x41 lattice beta = (i/2, j/2), |i|, |j| <= 20, for F_n and
  H^{1,2}_n, at n_max in {1, 2, 3, 50, 300};
* 200 seeded rational algebras, each with seeds (p, q), and the algebras
  H(-1, -1/3) and H(0, 0), where F_0 has norm 0, with seeds (2, -1) and
  (-3, 2), at the same n_max;
* Hypothesis draws of betas i/d with |i| <= 40 and d <= 12, for F_n and
  for H^{p,q}_n with seeds in [-20, 20]^2, at n_max in [1, 60];
* 1,000 constructed zero divisors for F_n and 1,000 for H^{p,q}_n, 250 for
  each of (p, q) = (1, 2), (-3, 5), (2, 3), (5, -7): beta1 = i/d with
  |i| <= 12 and d <= 3, and beta2 = -u_n/u_{n+2} (``zero_divisor``), which
  gives the element of index n, n in [-200, 200], norm 0; at n_max in
  {50, |n| + 5, 250};
* 1,000 constructed zero divisors for F_n and 500 for each of H^{1,2}_n and
  H^{-3,5}_n with the zero at n in [0, 119], at n_max in {50, 130};
* zero divisors at indices up to 2,000, around the powers of two that the
  galloping (``normforms._reach``) lands on, at n_max around n and at
  2n + 100, and at small n_max around the gallop's first steps;
* eight constructed zero divisors whose zero, at n in [-2, 5], is the lower
  end of a bad interval that runs on past it: the sets above have none;
* betas with 300-digit numerators, seeds that make p + q*alpha a power of
  alpha, and the edge algebra, whose zero norm at n = 51 lies one index
  past the default n_max.

Apart from the scan, the Binet form itself, in QuadraticSurd arithmetic up
to the least index past which every norm has the sign of E
(``binet_norms``, on ``threshold_oracle.binet_lead``), gives the report at
any n_max.

These tests are the one pin of the reports: each is held to its scan, not to
a stored digest.  The CLI's rendering of a report is pinned by the transcript
``tests/golden/cli_formats.txt``.
"""

import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    ConsistencyError,
    GenFibParams,
    Rational,
    ScanExhaustedError,
    fib_quat,
    gen_fib_quat,
    growth_indicator_Eprime,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat import normforms
from fibquat.sequences import fib_values
from fibquat.surd import ALPHA, QuadraticSurd, from_residue
from threshold_oracle import binet_lead, located, norm_scan, zero_divisor

N_MAXES = (1, 2, 3, 50, 300)


def _seeded_algebras(count, seed):
    """(params, seeds): betas i/d with |i| <= 12 and d <= 6, seeds (p, q) in
    [-9, 9]^2 but (0, 0)."""
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


def low_zero_divisors(pq, count, seed):
    """(params, n): beta1 = i/d with |i| <= 12 and d <= 3, and the zero
    divisor of index n, n in [0, 119]."""
    rng = random.Random(seed)
    family = []
    while len(family) < count:
        beta1 = Rational(rng.randint(-12, 12), rng.randint(1, 3))
        n = rng.randint(0, 119)
        params = zero_divisor(beta1, pq, n)
        if params is not None:
            family.append((params, n))
    return family


@pytest.mark.parametrize("pq", [None, GenFibParams(1, 2)], ids=str)
def test_the_lattice_matches_a_norm_scan(pq):
    for i in range(-20, 21):
        for j in range(-20, 21):
            params = AlgebraParams(Rational(i, 2), Rational(j, 2))
            assert located(params, pq, N_MAXES) == norm_scan(params, pq, N_MAXES), params


# F_0 has norm 1 - 1/3 - 2/3 = 0 in H(-1, -1/3), and f_0^2 = 0 in H(0, 0)
ZERO_NORM_ALGEBRAS = [
    (params, pq)
    for params in (AlgebraParams(-1, Rational(-1, 3)), AlgebraParams(0, 0))
    for pq in (GenFibParams(2, -1), GenFibParams(-3, 2))
]


def test_seeded_algebras_match_a_norm_scan():
    for params, pq in _seeded_algebras(200, seed=2222) + ZERO_NORM_ALGEBRAS:
        for kind in (None, pq):
            assert located(params, kind, N_MAXES) == norm_scan(params, kind, N_MAXES), (params, kind)


rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 12))
algebras = st.builds(AlgebraParams, rationals, rationals)
seeds = st.builds(GenFibParams, st.integers(-20, 20), st.integers(-20, 20))


@settings(max_examples=60)
@given(params=algebras, pq=st.none() | seeds, n_max=st.integers(1, 60))
def test_threshold_matches_a_norm_scan(params, pq, n_max):
    assume(pq != (0, 0))
    assert located(params, pq, (n_max,)) == norm_scan(params, pq, (n_max,))


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
        assert outcomes == norm_scan(params, pq, n_maxes), (params, pq, n)
        if n >= 0 and outcomes[2] is not ScanExhaustedError:
            assert n in outcomes[2].zero_norm_indices, (params, pq, n)


@pytest.mark.parametrize("pq", [None, GenFibParams(1, 2), GenFibParams(-3, 5)], ids=str)
def test_zero_divisors_below_120_match_a_norm_scan(pq):
    count = 1000 if pq is None else 500  # 1,000 algebras in all for H^{p,q}_n
    for params, n in low_zero_divisors(pq, count, seed=1414):
        outcomes = located(params, pq, (50, 130))
        assert outcomes == norm_scan(params, pq, (50, 130)), (params, pq, n)
        if outcomes[1] is not ScanExhaustedError:
            assert n in outcomes[1].zero_norm_indices, (params, pq, n)


def test_a_zero_past_n_max_leaves_the_report_a_scan():
    # a zero divisor at n >= 100: at every n_max around and below its zero
    # the report is still that of a scan of [0, n_max]
    params, n = next((p, n) for p, n in low_zero_divisors(None, 400, seed=7) if n >= 100)
    n_maxes = (20, n - 1, n, n + 1, 2 * n)
    outcomes = located(params, None, n_maxes)
    assert outcomes == norm_scan(params, None, n_maxes)
    assert n in outcomes[4].zero_norm_indices


def test_the_edge_algebra_holds_n0_only_within_the_scan():
    # its zero norm at n = 51 lies one index past the default n_max: the
    # report at n_max = 50 is the scan's, n0 = 50 with no zero norm, and
    # says nothing of n = 51, where the report at 200 finds the zero
    params = AlgebraParams(-12, Rational(-12614708645908898764136, 86462499333591078659879))
    outcomes = located(params, None, (50, 200))
    assert outcomes == norm_scan(params, None, (50, 200))
    assert (outcomes[0].empirical_n0, outcomes[0].zero_norm_indices) == (50, ())
    assert fib_quat(params, 51).norm() == 0
    assert (outcomes[1].empirical_n0, outcomes[1].zero_norm_indices) == (52, (51,))


# indices around the powers of two the galloping lands on, and a spread to 2,000
INDICES = [30, 31, 32, 33, 34, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 700, 1023, 1024,
           1500, 2000]


@pytest.mark.parametrize("pq", [None, GenFibParams(2, -5)], ids=str)
def test_deep_zero_divisors_match_a_norm_scan(pq):
    rng = random.Random(1616)
    for n in INDICES if pq is None else INDICES[::3]:
        beta1 = Rational(rng.choice([-7, -5, -3, -2, -1, 2, 3]), rng.randint(1, 4))
        params = zero_divisor(beta1, pq, n)
        n_maxes = (n - 1, n, n + 1, 2 * n + 100)
        outcomes = located(params, pq, n_maxes)
        assert outcomes == norm_scan(params, pq, n_maxes), (params, n)
        assert outcomes[3].empirical_n0 > n and n in outcomes[3].zero_norm_indices, (params, n)


def test_small_bounds_and_ranges_stay_on_the_steps():
    # zeros below 33, and n_max at and around the first steps of the gallop
    for n in (0, 1, 5, 20, 31):
        params = zero_divisor(Rational(-2), None, n)
        n_maxes = (1, 2, 3, n + 1, 31, 32, 33, 64, 65, 200)
        assert located(params, None, n_maxes) == norm_scan(params, None, n_maxes), n
    params = zero_divisor(Rational(-3), None, 40)
    n_maxes = (31, 32, 33, 39, 40, 41, 42)
    assert located(params, None, n_maxes) == norm_scan(params, None, n_maxes)


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
    assert outcomes == norm_scan(params, pq, n_maxes)
    assert all((n in report.zero_norm_indices) == (n >= 0) for report in outcomes[1:])


@pytest.mark.parametrize("pq", [None, GenFibParams(3, -7)], ids=str)
def test_huge_betas_match_a_norm_scan(pq):
    big = 10**299 + 7
    cases = [
        AlgebraParams(Rational(big, 3), Rational(-big - 2, 10**298 + 1)),
        AlgebraParams(Rational(-big, 7), Rational(big + 4, 5)),
        AlgebraParams(Rational(5, big), Rational(-(3 * big + 1), big)),
        AlgebraParams(Rational(10**150 + 1, 3), Rational(-(10**150), 7)),
        zero_divisor(Rational(-big, 11), pq, 40),  # a zero at n = 40, 300-digit numerators
    ]
    for params in cases:
        outcomes = located(params, pq, (1, 3, 50, 130))
        assert outcomes == norm_scan(params, pq, (1, 3, 50, 130)), params
    assert 40 in outcomes[3].zero_norm_indices


@pytest.mark.parametrize(
    "params",
    [AlgebraParams(1, 1), AlgebraParams(Rational(3, 2), -1), AlgebraParams(-2, Rational(-1, 3))],
    ids=str,
)
def test_unit_multiple_seeds_match_a_norm_scan(params):
    # seeds (f_{j-1}, f_j) make p + q*alpha = alpha^j, so the lead is a unit
    # multiple of alpha^(2j-2): |sigma(lead)| is below 1e-300 of it, and with
    # beta1 = 1 or beta2 = -1 (the first two algebras) the fitted k is 0
    for j in (1, 60, 399, 400, 560, 735, 900):
        pq = GenFibParams(*fib_values(j - 1, j + 1))
        assert located(params, pq, (1, 50, 130)) == norm_scan(params, pq, (1, 50, 130)), j


def test_every_norm_past_the_bound_has_the_sign_of_E():
    # n0 at n_max = 10^6 holds past it: a scan to n0 + 200 finds the same n0,
    # so the next 200 norms all have the sign of E
    for params, pq in _seeded_algebras(200, seed=1415):
        for kind in (None, pq):
            report = invertibility_threshold(params, kind, 10**6)
            n_max = report.empirical_n0 + 200
            scanned = report._replace(scanned_up_to=n_max)
            assert norm_scan(params, kind, (n_max,)) == [scanned], (params, kind)


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
    cases = [(params, None) for params, _ in low_zero_divisors(None, 60, seed=1416)]
    seeds = GenFibParams(2, 3)
    cases += [(params, seeds) for params, _ in low_zero_divisors(seeds, 60, seed=1416)]
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
        (report,) = located(params, pq, (max(bound, 1),))
        assert (report.empirical_n0, report.zero_norm_indices) == (n0, zeros), (params, pq)
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


def test_the_search_reads_few_powers_far_out(powers):
    # at n = 6,000 and 12,000 a scan takes seconds; galloping and bisecting
    # read about 2*log2(n/2048) engine powers instead, the f-table serving
    # indices to 4,093
    for n in (6000, 12000):
        params = zero_divisor(Rational(-3), None, n)
        powers.clear()
        report = invertibility_threshold(params, None, 10**6)
        assert report.empirical_n0 == n + 1 and report.zero_norm_indices == (n,)
        assert 0 < len(powers) <= 2 * (n // 32).bit_length() + 4, (n, len(powers))


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
