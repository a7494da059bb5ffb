"""Errors about values with more digits than str() will print.

CPython refuses to convert an int of more than 4,300 decimal digits to text
(``sys.set_int_max_str_digits``), and a message built from such a value would
raise that ValueError in place of the library's own exception.  Each case
here must raise its own type, with a message that can itself be printed.
The limit is the interpreter's default; no test changes it.
"""

from fractions import Fraction

import pytest

from fibquat import (
    AlgebraMismatchError,
    AlgebraParams,
    DomainError,
    IndicatorDegenerateError,
    Rational,
    ScanExhaustedError,
    binom,
    fib_quat,
    gen_fib,
    invertibility_threshold,
)
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
