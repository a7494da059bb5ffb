"""Differential tests of the integer fast paths behind the threshold lattice.

Each fast path is held against the general route it bypasses:

* the quaternion builders against the ``Quaternion`` constructor;
* the threshold, which reads the norm at a few indices, against the scan of
  ``Quaternion.norm`` at every index in ``threshold_oracle``;
* the folded closed-form numerators against a literal Rational
  transcription of the docstring formulas, kept here;
* ``Quaternion.norm`` against ``Rational(cleared_norm(...), d1*d2*den^2)``.
"""

from hypothesis import assume, given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Quaternion,
    Rational,
    fib,
    fib_quat,
    gen_fib,
    gen_fib_quat,
    narayana,
    narayana_quat,
)
from fibquat import normforms
from fibquat.sequences import TABLE_CAP, fib_values
from threshold_oracle import located, norm_scan

rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 12))
algebras = st.builds(AlgebraParams, rationals, rationals)
seeds = st.builds(GenFibParams, st.integers(-20, 20), st.integers(-20, 20))


def cleared_norm(params, x1, x2, x3, x4):
    """d1*d2 * n(x1 + x2*e2 + x3*e3 + x4*e4) for integers x1..x4, with
    beta_i = n_i/d_i: the form d2*(d1*x1^2 + n1*x2^2) + n2*(d1*x3^2 + n1*x4^2)."""
    n1, d1, n2, d2 = params.cleared
    return d2 * (d1 * x1**2 + n1 * x2**2) + n2 * (d1 * x3**2 + n1 * x4**2)


def parts(q):
    return (q.x1, q.x2, q.x3, q.x4, q.den)


@settings(max_examples=60)
@given(params=algebras, pq=seeds, n=st.integers(-TABLE_CAP - 6, TABLE_CAP + 6))
def test_builders_match_the_constructor(params, pq, n):
    for built, values in (
        (fib_quat(params, n), [fib(n + i) for i in range(4)]),
        (gen_fib_quat(params, pq, n), [gen_fib(pq, n + i) for i in range(4)]),
        (narayana_quat(params, n), [narayana(n + i) for i in range(4)]),
    ):
        reference = Quaternion(*values, params)
        assert type(built) is Quaternion
        assert parts(built) == parts(reference)
        assert built.params is params
        assert built == reference and hash(built) == hash(reference)


@settings(max_examples=60)
@given(params=algebras, pq=st.none() | seeds, n_max=st.integers(1, 60))
def test_threshold_matches_a_norm_scan(params, pq, n_max):
    assume(pq != (0, 0))
    assert located(params, pq, (n_max,)) == norm_scan(params, pq, (n_max,))


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


def assert_norm_is_the_reduced_cleared_norm(q):
    n1, d1, n2, d2 = q.params.cleared
    expected = Rational(cleared_norm(q.params, q.x1, q.x2, q.x3, q.x4), d1 * d2 * q.den**2)
    value = q.norm()
    assert type(value) is Rational
    assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)


@settings(max_examples=200)
@given(params=algebras, coefficients=st.lists(rationals, min_size=4, max_size=4))
def test_norm_is_the_reduced_cleared_norm(params, coefficients):
    q = Quaternion(*coefficients, params)
    assume(q.den > 1)
    assert_norm_is_the_reduced_cleared_norm(q)


integer_algebras = st.builds(AlgebraParams, st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=200)
@given(params=algebras | integer_algebras,
       coefficients=st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4))
def test_integer_quaternion_norm_is_the_reduced_cleared_norm(params, coefficients):
    # den == 1, and with integer betas the bottom d1*d2*den^2 is 1 too
    q = Quaternion(*coefficients, params)
    assert q.den == 1
    assert_norm_is_the_reduced_cleared_norm(q)
