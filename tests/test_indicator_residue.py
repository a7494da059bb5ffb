"""The threshold and its re-verification read one integer indicator residue.

``invertibility_threshold`` and ``verify_threshold_report`` take the sign of
E (or E') and the Binet lead from the residue 5*d1*d2*E of Z[alpha] that
``normforms._indicator`` returns, and build no QuadraticSurd; the public
growth indicators reduce the same residue, and every route to E' runs the
cross-check against E.  The re-verification reads the closed forms in
windows, so its memory does not grow with the square of n_max.
"""

import random
import tracemalloc

import pytest

from fibquat import (
    AlgebraParams,
    ConsistencyError,
    GenFibParams,
    IndicatorDegenerateError,
    Rational,
    ScanExhaustedError,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat import normforms
from fibquat.surd import ALPHA, from_residue
from threshold_oracle import located, zero_divisor


def _algebras(count, seed):
    rng = random.Random(seed)
    return [
        AlgebraParams(Rational(rng.randint(-12, 12), rng.randint(1, 6)),
                      Rational(rng.randint(-12, 12), rng.randint(1, 6)))
        for _ in range(count)
    ]


CASES = [
    (params, pq)
    for params in _algebras(40, seed=1501) + [zero_divisor(Rational(-7, 2), None, 40)]
    for pq in (None, GenFibParams(1, 2), GenFibParams(-3, 5))
]
N_MAXES = (1, 3, 50, 130)


def test_no_surd_is_built_on_the_threshold_paths(monkeypatch):
    expected = [located(params, pq, N_MAXES) for params, pq in CASES]
    assert any(
        isinstance(e, normforms.ThresholdReport) and e.zero_norm_indices
        for outcomes in expected for e in outcomes
    )

    def refuse(*args):
        raise AssertionError("from_residue called")

    monkeypatch.setattr(normforms, "from_residue", refuse)
    assert [located(params, pq, N_MAXES) for params, pq in CASES] == expected
    with pytest.raises(AssertionError, match="from_residue called"):
        growth_indicator_E(CASES[0][0])


def test_indicators_reduce_the_residue():
    for params in _algebras(100, seed=1502):
        n1, d1, n2, d2 = params.cleared
        for pq in (None, GenFibParams(2, -1), GenFibParams(0, 0)):
            c0, c1 = normforms._indicator(params, pq)
            value = growth_indicator_E(params) if pq is None else growth_indicator_Eprime(params, pq)
            assert value * (5 * d1 * d2) == c0 + c1 * ALPHA
            if pq is None or any(pq):
                report = invertibility_threshold(params, pq, 50)
                assert report.sign_of_E == value.sign()


@pytest.mark.parametrize(
    "betas",
    [(1, 1), (Rational(-3, 2), Rational(5, 4)), (0, 0), (-1, Rational(-1, 3)), (Rational(7, 4), -3)],
)
def test_zero_seeds_raise_with_the_same_message(betas):
    params = AlgebraParams(*betas)
    assert growth_indicator_Eprime(params, GenFibParams(0, 0)).is_zero()
    with pytest.raises(IndicatorDegenerateError) as caught:
        invertibility_threshold(params, GenFibParams(0, 0))
    assert str(caught.value) == (
        f"growth indicator vanishes for {params} with seeds {GenFibParams(0, 0)}"
    )


def test_the_cross_check_runs_on_every_threshold_call(monkeypatch):
    params = AlgebraParams(Rational(3, 2), Rational(-1, 4))
    report = invertibility_threshold(params, GenFibParams(1, 2))
    pair = normforms._indicator_E_pair
    wrong = [pair(params)[0], pair(params)[1] + 2]
    # the message shows both routes as surds: E' and (1 + 2 alpha)^2 * wrong/(5*d1*d2)
    message = (
        f"growth indicator routes disagree: {growth_indicator_Eprime(params, (1, 2))} "
        f"vs {(1 + 2 * ALPHA) ** 2 * from_residue(wrong, 5 * 2 * 4)}"
    )
    monkeypatch.setattr(normforms, "_indicator_E_pair", lambda p: wrong)
    for call in (lambda: invertibility_threshold(params, GenFibParams(1, 2)),
                 lambda: verify_threshold_report(report),
                 lambda: growth_indicator_Eprime(params, GenFibParams(1, 2))):
        with pytest.raises(ConsistencyError) as caught:
            call()
        assert str(caught.value) == message


def test_the_sign_of_E_is_checked_on_the_residue():
    params = AlgebraParams(Rational(-3, 2), Rational(5, 4))
    for pq in (None, GenFibParams(2, -1)):
        report = invertibility_threshold(params, pq, 300)
        verify_threshold_report(report)
        with pytest.raises(ConsistencyError, match="sign_of_E"):
            verify_threshold_report(report._replace(sign_of_E=-report.sign_of_E))


@pytest.mark.parametrize("pq", [None, GenFibParams(3, -7)], ids=str)
def test_reverify_memory_is_bounded(pq):
    report = invertibility_threshold(AlgebraParams(1, 1), pq, 6000)
    verify_threshold_report(report)  # the f table is filled before measuring
    tracemalloc.start()
    try:
        verify_threshold_report(report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000, peak


@pytest.mark.parametrize("pq", [None, GenFibParams(2, 7)], ids=str)
def test_reverify_reads_every_window(pq):
    # a zero norm in the second window, and the tail sign read at both ends
    # of the later window boundaries
    window = normforms._VERIFY_WINDOW
    params = zero_divisor(Rational(-7, 2), pq, window + 44)
    n_max = 3 * window + 5
    report = invertibility_threshold(params, pq, n_max)
    verify_threshold_report(report)
    assert window + 44 in report.zero_norm_indices
    assert report.empirical_n0 < 2 * window - 1
    with pytest.raises(ConsistencyError, match="zero norms disagree"):
        verify_threshold_report(report._replace(zero_norm_indices=report.zero_norm_indices[:-1]))
    for n in (2 * window - 1, 2 * window, 3 * window - 1, 3 * window, n_max):
        with pytest.raises(ConsistencyError, match="empirical_n0 is not minimal"):
            verify_threshold_report(report._replace(empirical_n0=n + 1))


@pytest.mark.parametrize("pq", [None, GenFibParams(2, 7)], ids=str)
def test_reverify_checks_both_ends_of_the_range(pq):
    # the zero at 300 lies one index past the scan: stretched over it, the
    # report fails there; and an n0 of 0 moved up to 1 is not minimal
    params = zero_divisor(Rational(-7, 2), pq, 300)
    report = invertibility_threshold(params, pq, 299)
    verify_threshold_report(report)
    with pytest.raises(ConsistencyError, match="tail condition fails at n = 300"):
        verify_threshold_report(report._replace(scanned_up_to=300))
    report = invertibility_threshold(AlgebraParams(1, 1), pq)
    assert report.empirical_n0 == 0
    with pytest.raises(ConsistencyError, match="empirical_n0 is not minimal"):
        verify_threshold_report(report._replace(empirical_n0=1))


@pytest.mark.parametrize(
    "field, value",
    [("empirical_n0", -1), ("empirical_n0", -7), ("empirical_n0", 52), ("scanned_up_to", -3)],
)
def test_reverify_refuses_a_report_no_scan_gives(field, value):
    # each passed, or raised IndexError, before the range was checked
    report = invertibility_threshold(AlgebraParams(1, 1), None, 50)
    verify_threshold_report(report)
    with pytest.raises(ConsistencyError, match="no scan reports"):
        verify_threshold_report(report._replace(**{field: value}))


@pytest.mark.parametrize("pq", [None, GenFibParams(2, 7)], ids=str)
def test_reverify_refuses_n0_past_the_scan(pq):
    # the zero at 300 ends the scan: the scan itself raises, and a report
    # of n0 = 301 listing that zero is refused, not passed
    params = zero_divisor(Rational(-7, 2), pq, 300)
    with pytest.raises(ScanExhaustedError):
        invertibility_threshold(params, pq, 300)
    report = invertibility_threshold(params, pq, 299)
    late = report._replace(
        scanned_up_to=300, empirical_n0=301, zero_norm_indices=report.zero_norm_indices + (300,)
    )
    with pytest.raises(ConsistencyError, match="no scan reports n0 = 301"):
        verify_threshold_report(late)
