"""The threshold tests' one oracle: a scan of ``Quaternion.norm``.

``norm_scan`` builds every F_n (``fib_quat``) or H^{p,q}_n (``gen_fib_quat``)
of [0, n_max], takes the sign of its ``Quaternion.norm``, and derives the
report that a scan of the range gives.  ``located`` is the library's side
of the same comparison, and ``zero_divisor`` builds the algebras that put a
zero norm, and so an end of a bad interval, at a chosen index.
``binet_lead`` is the coefficient of alpha^(2n) in the Binet form of the
norm, which the closed-form tests fit against.  pytest does not collect
this module; the threshold tests import it.
"""

from fibquat import (
    AlgebraParams,
    IndicatorDegenerateError,
    ScanExhaustedError,
    ThresholdReport,
    fib_quat,
    gen_fib_quat,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    normforms,
    verify_threshold_report,
)
from fibquat.sequences import fib_values, gen_fib_values
from fibquat.surd import mul


def norm_scan(params, pq, n_maxes):
    """For each n_max, the report of a scan of Quaternion.norm over
    [0, n_max]: a ThresholdReport, ScanExhaustedError when the index n_max
    is bad, or IndicatorDegenerateError when the indicator is 0.  The norms
    are read once, up to the largest n_max."""
    top = max(n_maxes) + 1
    if pq is None:
        target = growth_indicator_E(params).sign()
        signs = [fib_quat(params, n).norm().sign() for n in range(top)]
    else:
        target = growth_indicator_Eprime(params, pq).sign()
        signs = [gen_fib_quat(params, pq, n).norm().sign() for n in range(top)]
    if not target:
        return [IndicatorDegenerateError] * len(n_maxes)
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
    """For each n_max, ``invertibility_threshold``'s report, re-verified and
    listing at most two zero norms, or the type of the error it raised."""
    outcomes = []
    for n_max in n_maxes:
        try:
            report = invertibility_threshold(params, pq, n_max)
        except (ScanExhaustedError, IndicatorDegenerateError) as exc:
            outcomes.append(type(exc))
            continue
        verify_threshold_report(report)
        assert len(report.zero_norm_indices) <= 2, report
        outcomes.append(report)
    return outcomes


def zero_divisor(beta1, pq, n):
    """H(beta1, beta2) with the element of index n of norm 0, or None when
    u_{n+2} = 0 leaves beta2 free.  The norm of F_n is u_n + beta2*u_{n+2},
    with u_m = x_m^2 + beta1*x_{m+1}^2 on the sequence values x (f, or h
    for H^{p,q}_n), so beta2 = -u_n/u_{n+2}."""
    x = fib_values(n, n + 4) if pq is None else gen_fib_values(pq, n, n + 4)
    u_n, u_n2 = (x[m] ** 2 + beta1 * x[m + 1] ** 2 for m in (0, 2))
    return AlgebraParams(beta1, -u_n / u_n2) if u_n2 else None


def binet_lead(params, pq):
    """5*d1*d2 times the coefficient of alpha^(2n) in the norm: the indicator
    residue, times alpha^-2 = 2 - alpha for H^{p,q}_n."""
    lead = normforms._indicator(params, pq)
    return lead if pq is None else mul(lead, [2, -1])
