"""Errors about values with more digits than str() will print.

CPython refuses to convert an int of more than 4,300 decimal digits to text
(``sys.set_int_max_str_digits``), and a message built from such a value would
raise that ValueError in place of the library's own exception.  Each case
here must raise its own type, with a message that can itself be printed;
the three failed cross-checks are forced by stubbing one of their routes.
The limit is the interpreter's default; no test changes it.
"""

from fractions import Fraction
from unittest import mock

import pytest

from fibquat import (
    AlgebraMismatchError,
    AlgebraParams,
    ConsistencyError,
    DomainError,
    IndicatorDegenerateError,
    PrecisionGuardError,
    Rational,
    ScanExhaustedError,
    audit,
    binom,
    fib_quat,
    gen_fib,
    herd_total,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat import normforms, sequences
from fibquat.analytic import binet_fib, binet_narayana, binet_narayana_quat
from threshold_oracle import zero_divisor

HUGE = 10**5000

# beta1 = -3 and the beta2 that gives F_12000 norm 0, whose numerator and
# denominator have about 5,000 digits each
LONG_ALGEBRA = zero_divisor(Rational(-3), None, 12_000)


def message(excinfo):
    text = str(excinfo.value)
    try:
        str(HUGE)
    except ValueError:  # the digit limit is on, as it is by default
        assert "too long to print" in text
    return text


def test_a_threshold_past_n_max_raises_scan_exhausted():
    with pytest.raises(ScanExhaustedError) as excinfo:
        invertibility_threshold(LONG_ALGEBRA, None, 12_000)
    assert message(excinfo).startswith("no sign threshold within [0, 12000] for <")


def test_a_product_across_algebras_raises_algebra_mismatch():
    with pytest.raises(AlgebraMismatchError) as excinfo:
        fib_quat(LONG_ALGEBRA, 3) * fib_quat(AlgebraParams(1, 1), 1)
    assert message(excinfo).endswith(" and H(1, 1)")


def test_a_vanishing_indicator_raises_indicator_degenerate():
    with pytest.raises(IndicatorDegenerateError) as excinfo:
        invertibility_threshold(AlgebraParams(HUGE, 1), (0, 0))
    assert message(excinfo).endswith(" with seeds (0, 0)")


def test_a_fractional_seed_raises_domain_error():
    with pytest.raises(DomainError) as excinfo:
        gen_fib((Fraction(HUGE, 3), 1), 3)
    assert message(excinfo).endswith(", 1)")


def test_a_negative_binomial_argument_raises_domain_error():
    with pytest.raises(DomainError) as excinfo:
        binom(HUGE, -1)
    assert message(excinfo).endswith(", -1)")


def reverify(**fields):
    """The re-verify of H(1, 1)'s report (n0 = 0 over [0, 50], no zero norm)
    with ``fields`` replaced."""
    report = invertibility_threshold(AlgebraParams(1, 1))
    return lambda: verify_threshold_report(report._replace(**fields))


def off_by_one_E(pq):
    """The threshold of H(HUGE, 1) with the residue of E one off in c1: for
    F_n the norms then do not fit the lead, and for H^{p,q}_n the two routes
    to E' disagree."""
    pair = normforms._indicator_E_pair

    def call():
        with mock.patch.object(normforms, "_indicator_E_pair",
                               lambda p: [pair(p)[0], pair(p)[1] + 1]):
            invertibility_threshold(AlgebraParams(HUGE, 1), pq)
    return call


def herd_with_a_wrong_figurate():
    # u_30003, the herd after 30,000 years, has about 5,000 digits
    with mock.patch.object(sequences, "_herd_figurate", lambda years: 0):
        herd_total(30_000)


@pytest.mark.parametrize("error, call, start", [
    pytest.param(PrecisionGuardError, lambda: binet_fib(HUGE),
                 "binet_fib holds its tolerance only for |n| <= 70, got ", id="binet_fib"),
    pytest.param(PrecisionGuardError, lambda: binet_narayana(HUGE),
                 "binet_narayana holds its tolerance only for |n| <= 90, got ", id="binet_narayana"),
    pytest.param(PrecisionGuardError, lambda: binet_narayana_quat(AlgebraParams(1, 1), HUGE),
                 "binet_narayana_quat holds its tolerance only for |n| <= 90, got ",
                 id="binet_narayana_quat"),
    pytest.param(DomainError, lambda: audit("EQ_1_1", n_max=-HUGE),
                 "EQ_1_1 ran no instances with n_max=", id="audit"),
    pytest.param(ConsistencyError, reverify(empirical_n0=HUGE),
                 "no scan reports n0 = ", id="empirical_n0"),
    pytest.param(ConsistencyError, reverify(scanned_up_to=-HUGE),
                 "no scan reports n0 = 0 scanning [0, ", id="scanned_up_to"),
    pytest.param(ConsistencyError, reverify(zero_norm_indices=(HUGE,)),
                 "zero norms disagree: () vs ", id="zero_norm_indices"),
    pytest.param(ConsistencyError, off_by_one_E(None),
                 "the norms do not fit the leading coefficient ", id="fitted_constant"),
    pytest.param(ConsistencyError, off_by_one_E((1, 2)),
                 "growth indicator routes disagree: ", id="indicator_routes"),
    pytest.param(ConsistencyError, herd_with_a_wrong_figurate,
                 "herd routes disagree at year 30000: recurrence ", id="herd_routes"),
])
def test_a_long_argument_raises_the_library_error(error, call, start):
    with pytest.raises(error) as excinfo:
        call()
    assert message(excinfo).startswith(start)
