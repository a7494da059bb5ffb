"""Closed-form norms of the quaternion sequences, the growth indicators
E and E' in Q(sqrt 5), and empirical invertibility thresholds.

Every norm here is evaluated with denominators cleared.  With
beta1 = n1/d1 and beta2 = n2/d2, d1*d2 times the norm of an integer
quaternion is an integer with the norm's sign, so the threshold scan and
its re-verification decide sign and zeroness on plain integers, and the
public closed forms reduce one integer numerator over d1*d2.

The closed forms evaluate h-values through h_{n+1} = p*f_n + q*f_{n+1},
with the betas' numerators and denominators folded into integer seeds: the
route independent of the integer recurrence and the quadratic form used by
the direct norms.
"""

from dataclasses import dataclass

from ._kernel import Rational
from .algebra import AlgebraParams, cleared_norm
from .errors import (
    ConsistencyError,
    DomainError,
    IndicatorDegenerateError,
    ScanExhaustedError,
)
from .sequences import GenFibParams, fib, gen_fib
from .surd import ALPHA, QuadraticSurd


def _h(p, q, m):
    # h_m for seeds p, q, via h_m = p*f_{m-1} + q*f_m
    return p * fib(m - 1) + q * fib(m)


def _cleared(params):
    b1 = params.beta1
    b2 = params.beta2
    return b1.numerator, b1.denominator, b2.numerator, b2.denominator


def _over_d1d2(params, top):
    return Rational(top, params.beta1.denominator * params.beta2.denominator)


def _sign(x):
    return (x > 0) - (x < 0)


def _fib_formula_top(params, n):
    # d1*d2 * n(F_n) by the closed form below
    n1, d1, n2, d2 = _cleared(params)
    p_hi = d2 + 2 * n2
    return (
        d1 * _h(p_hi, 3 * n2, 2 * n + 2)
        + (n1 - d1) * _h(p_hi, n2, 2 * n + 3)
        - 2 * ((n1 - d1) * (d2 + n2)) * (fib(n) * fib(n + 1))
    )


def _genfib_formula_top(params, pq, n):
    # d1*d2 * n(H^{p,q}_n) by the closed form below, term by term
    n1, d1, n2, d2 = _cleared(params)
    p, q = pq
    p_hi = d2 + 2 * n2
    p2 = p * p
    q2 = q * q
    pq2 = 2 * p * q
    total = (d1 * p2) * _h(p_hi, 3 * n2, 2 * n)
    total += (p2 * (n1 - d1)) * _h(p_hi, n2, 2 * n + 1)
    total += (d1 * q2) * _h(p_hi, 3 * n2, 2 * n + 2)
    total += (q2 * (n1 - d1)) * _h(p_hi, n2, 2 * n + 3)
    total -= (2 * p) * ((n1 - d1) * (p * n2 + (p + q) * d2)) * (fib(n - 1) * fib(n))
    total -= (2 * q2) * ((n1 - d1) * (d2 + n2)) * (fib(n) * fib(n + 1))
    total += (pq2 * n1) * _h(d2, n2, 2 * n + 1)
    total += (pq2 * (n1 * n2)) * (fib(2 * n) + fib(2 * n + 3))
    total += (pq2 * (n2 * (d1 - n1))) * (fib(n + 1) * fib(n + 2))
    return total


def norm_fib_formula(params, n):
    """Closed form of n(F_n):

    h^{1+2b2, 3b2}_{2n+2} + (b1-1) h^{1+2b2, b2}_{2n+3} - 2(b1-1)(1+b2) f_n f_{n+1}

    evaluated as one integer numerator over d1*d2.
    """
    return _over_d1d2(params, _fib_formula_top(params, n))


def norm_genfib_formula(params, pq, n):
    """Closed form of n(H^{p,q}_n) for n >= 1 (it references f_{n-1}):

    p^2 h^{1+2b2,3b2}_{2n} + p^2(b1-1) h^{1+2b2,b2}_{2n+1}
    + q^2 h^{1+2b2,3b2}_{2n+2} + q^2(b1-1) h^{1+2b2,b2}_{2n+3}
    - 2p(b1-1)(p*b2+p+q) f_{n-1} f_n - 2q^2(b1-1)(1+b2) f_n f_{n+1}
    + h^{2pq*b1, 2pq*b1*b2}_{2n+1} + 2pq*b1*b2 (f_{2n} + f_{2n+3})
    + 2pq*b2(1-b1) f_{n+1} f_{n+2}

    evaluated as one integer numerator over d1*d2.
    """
    return _over_d1d2(params, _genfib_formula_top(params, pq, n))


def swamy_norm_as_stated(pq, n):
    """The transcription 3(2pq - p^2) f_{2n+2} + (p^2 + q^2) f_{2n+3}.

    Evaluated literally so the audit can hold it against direct norms in
    H(1,1); it fails the (p,q) = (0,1) reduction.
    """
    p, q = pq
    return 3 * (2 * p * q - p * p) * fib(2 * n + 2) + (p * p + q * q) * fib(2 * n + 3)


def swamy_norm_corrected(pq, n):
    """Repaired transcription: the factor 3 applies to both terms.

    3[(2pq - p^2) f_{2n+2} + (p^2 + q^2) f_{2n+3}] equals the direct norm of
    H^{p,q}_n in H(1,1); validated exhaustively against direct norms before
    registration (and it reduces to 3 f_{2n+3} at (p,q) = (0,1)).
    """
    p, q = pq
    return 3 * ((2 * p * q - p * p) * fib(2 * n + 2) + (p * p + q * q) * fib(2 * n + 3))


def growth_indicator_E(params):
    """E(b1, b2) = (1/5)[1 + b1 + 2 b2 + 5 b1 b2 + alpha(b1 + 3 b2 + 8 b1 b2)].

    Exact element of Q(sqrt 5); its sign is the eventual sign of n(F_n).
    Nonzero for every rational (b1, b2): E = 0 would force
    b2^2 + 7 b2 + 1 = 0, whose discriminant 45 is not a perfect square.
    """
    b1 = params.beta1
    b2 = params.beta2
    c0 = 1 + b1 + 2 * b2 + 5 * (b1 * b2)
    c1 = b1 + 3 * b2 + 8 * (b1 * b2)
    fifth = Rational(1, 5)
    return QuadraticSurd(fifth * (c0 + c1 * Rational(1, 2)), fifth * (c1 * Rational(1, 2)))


def growth_indicator_Eprime(params, pq):
    """E'(b1, b2) = (1/5)(p + alpha*q)^2 [1 + b1 a^2 + b2 a^4 + b1 b2 a^6].

    Evaluated literally from powers of alpha, then cross-checked against the
    reduced form (p + alpha*q)^2 * E(b1, b2); the two must agree exactly.
    """
    b1 = params.beta1
    b2 = params.beta2
    p, q = pq
    a2 = ALPHA * ALPHA
    a4 = a2 * a2
    a6 = a4 * a2
    bracket = 1 + b1 * a2 + b2 * a4 + (b1 * b2) * a6
    weight = (p + q * ALPHA) ** 2
    literal = Rational(1, 5) * (weight * bracket)
    reduced = weight * growth_indicator_E(params)
    if literal != reduced:
        raise ConsistencyError(
            f"growth indicator routes disagree: {literal} vs {reduced}"
        )
    return literal


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of an invertibility scan over n in [0, scanned_up_to].

    empirical_n0 is the least index from which every scanned norm is nonzero
    with sign equal to sign_of_E; it is an observation about the scanned
    range, not a proven bound.  Zero norms below it are listed.
    """

    params: AlgebraParams
    pq: GenFibParams | None
    sign_of_E: int
    empirical_n0: int
    scanned_up_to: int
    zero_norm_indices: tuple[int, ...]


def invertibility_threshold(params, pq=None, n_max=50):
    """Scan exact norms of F_n (or H^{p,q}_n when pq is given) for n in [0, n_max].

    One list of the n_max + 4 sequence values f_0.. (or h_0..) feeds the
    integer form ``cleared_norm``, d1*d2 times each norm, whose sign and
    zeroness are those of the norm itself; no Quaternion or Rational is
    built per index.

    Raises IndicatorDegenerateError when the applicable growth indicator is
    zero (only possible for pq == (0, 0) with rational parameters), and
    ScanExhaustedError when even the last scanned index breaks the sign
    condition.
    """
    if n_max < 1:
        raise DomainError(f"invertibility_threshold requires n_max >= 1, got {n_max}")
    if pq is None:
        indicator = growth_indicator_E(params)
        values = [fib(m) for m in range(n_max + 4)]
    else:
        indicator = growth_indicator_Eprime(params, pq)
        values = [gen_fib(pq, m) for m in range(n_max + 4)]
    if indicator.is_zero():
        raise IndicatorDegenerateError(
            f"growth indicator vanishes for {params} with seeds {pq}"
        )
    target = indicator.sign()
    signs = [
        _sign(cleared_norm(params, x1, x2, x3, x4))
        for x1, x2, x3, x4 in zip(values, values[1:], values[2:], values[3:])
    ]
    n0 = 0
    for n in range(n_max, -1, -1):
        if signs[n] != target:  # zero norm also fails this
            n0 = n + 1
            break
    if n0 > n_max:
        raise ScanExhaustedError(
            f"no sign threshold within [0, {n_max}] for {params} with seeds {pq}"
        )
    zeros = tuple(n for n in range(n0) if not signs[n])
    return ThresholdReport(
        params=params,
        pq=pq,
        sign_of_E=target,
        empirical_n0=n0,
        scanned_up_to=n_max,
        zero_norm_indices=zeros,
    )


def verify_threshold_report(report):
    """Re-verify a ThresholdReport by an independent second scan.

    The second scan evaluates d1*d2 times each norm through the closed-form
    route instead of the quadratic form on recurrence values, and rechecks
    every invariant: the tail is uniformly nonzero with sign sign_of_E,
    empirical_n0 is minimal, and zero_norm_indices lists exactly the zero
    norms below it.  Raises ConsistencyError on any disagreement.
    """
    params = report.params
    pq = report.pq
    indicator = (
        growth_indicator_E(params)
        if pq is None
        else growth_indicator_Eprime(params, pq)
    )
    if indicator.sign() != report.sign_of_E:
        raise ConsistencyError("sign_of_E does not match the growth indicator")
    signs = [_sign(_formula_top(params, pq, n)) for n in range(report.scanned_up_to + 1)]
    for n in range(report.empirical_n0, report.scanned_up_to + 1):
        if signs[n] != report.sign_of_E:
            raise ConsistencyError(f"tail condition fails at n = {n}")
    if report.empirical_n0 > 0 and signs[report.empirical_n0 - 1] == report.sign_of_E:
        raise ConsistencyError("empirical_n0 is not minimal")
    zeros = tuple(n for n in range(report.empirical_n0) if not signs[n])
    if zeros != report.zero_norm_indices:
        raise ConsistencyError(
            f"zero norms disagree: {zeros} vs {report.zero_norm_indices}"
        )


def _formula_top(params, pq, n):
    # d1*d2 * norm by the closed forms
    if pq is None:
        return _fib_formula_top(params, n)
    if n >= 1:
        return _genfib_formula_top(params, pq, n)
    # the closed form is stated for n >= 1; fall back to the quadratic form
    # evaluated on closed-form coefficients h_m = p f_{m-1} + q f_m
    p, q = pq
    return cleared_norm(params, *(_h(p, q, m) for m in range(n, n + 4)))
