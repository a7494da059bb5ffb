"""Closed-form norms of the quaternion sequences, the growth indicators
E and E' in Q(sqrt 5), and invertibility thresholds.

Every norm here is one integer, V(n) = 5*d1*d2 times the norm of F_n or
H^{p,q}_n, with beta1 = n1/d1 and beta2 = n2/d2: the Binet form below.  It
has the norm's sign, so the threshold and its re-verification decide sign
and zeroness on V itself, and the public closed forms divide it once, by
5*d1*d2, in the Rational they build.

The closed forms evaluate h-values through h_{n+1} = p*f_n + q*f_{n+1},
with the betas' numerators and denominators folded into one integer
coefficient each of f_{2n+1}, f_{2n} and (-1)^n in V(n): the route
independent of the integer recurrence and the quadratic form used by the
direct norms.
They are one fold, of n(H^{p,q}_n) (Theorem 2.5) over an index range, and
n(F_n) (Theorem 2.4) is its case (p, q) = (0, 1), as F_n = H^{0,1}_n: the
public single-index forms read one index, the threshold re-verification
and the audit's norm entries windows of 256.  Each growth indicator is one
integer residue c0 + c1*alpha of Z[alpha], 5*d1*d2 times E or E', which the
public indicators reduce to a QuadraticSurd and the threshold and its
re-verification read on the integers.

The threshold reports what a scan of every n in [0, n_max] reports, from
O(log n_max) single-index norms.  V(n) = A*alpha^(2n) +
sigma(A)*alpha^(-2n) + k*(-1)^n, with A from the indicator residue and k
fitted to three norms (the fit is the proof, checked on every call).  With
s = sign A, s*V(n) = G(n) + s*k*(-1)^r on each parity r of n, where G(x) =
s*(A*alpha^(2x) + sigma(A)*alpha^(-2x)) is strictly convex and positive
when sign sigma(A) = s (the convex case), else strictly increasing (the
monotone case).  So the bad indices of parity r, where the norm is zero or
has the sign opposite to E, s*V(n) <= 0, are one interval of the integers,
bounded in the convex case and running to -infinity in the monotone case.
A zero norm sits at an end of its interval, as a strictly convex or
increasing sequence that is <= 0 on both sides of an index is < 0 there;
so there are at most two zero norms over all of Z: in the convex case
G > 0 leaves an interval only on the parity with -s*k*(-1)^r > 0, and in
the monotone case each interval has one end.  The threshold locates each
parity's interval by galloping and bisection.  Its re-verification reads
every index of [0, n_max] by the closed forms instead, and shares only the
indicator with it.
"""

from functools import partial
from itertools import cycle
from typing import NamedTuple

from ._kernel import Rational
from .algebra import AlgebraParams
from .errors import (
    ConsistencyError,
    DomainError,
    IndicatorDegenerateError,
    ScanExhaustedError,
    _shown,
)
from .sequences import GenFibParams, _integer_seeds, fib, fib_values, gen_fib_values
from .surd import from_residue, mul, residue_sign


def _genfib_formula_tops(params, pq, start, high):
    """V(n) = 5*d1*d2 * n(H^{p,q}_n) by the closed form, for n = start,
    start+1, ...

    high[i] must be f_{2*start+i}; index n reads only f_{2n} and f_{2n+1},
    and the range ends where the list does.  Seeds (0, 1) give n(F_n):
    Theorem 2.4 is the case (p, q) = (0, 1) of Theorem 2.5.  The closed form
    of ``norm_genfib_formula`` has five coefficients of f_{2n-1}, ...,
    f_{2n+3} and three of the products f_m f_{m+1}, m = n-1, n, n+1; it is
    folded onto f_{2n+1}, f_{2n} and f_{n-1} f_n by f_{2n-1} = f_{2n+1} -
    f_{2n}, f_{2n+2} = f_{2n+1} + f_{2n}, f_{2n+3} = 2 f_{2n+1} + f_{2n},
    f_n f_{n+1} = f_{2n} - f_{n-1} f_n and f_{n+1} f_{n+2} = f_{n-1} f_n +
    f_{2n+1}, and then by 5 f_{n-1} f_n = 3 f_{2n} - f_{2n+1} + (-1)^n onto
    f_{2n+1}, f_{2n} and (-1)^n, which is why V carries the factor 5.
    """
    n1, d1, n2, d2 = params
    p, q = _integer_seeds(*pq)
    p_hi = d2 + 2 * n2
    n2_3 = 3 * n2
    b1_less_1 = n1 - d1
    p2 = p * p
    q2 = q * q
    pq2 = 2 * p * q
    # the bracketed terms of the closed form, each times d1*d2:
    k1 = d1 * p2                  # p^2 h^{1+2b2,3b2}_{2n}
    k2 = p2 * b1_less_1           # p^2 (b1-1) h^{1+2b2,b2}_{2n+1}
    k3 = d1 * q2                  # q^2 h^{1+2b2,3b2}_{2n+2}
    k4 = q2 * b1_less_1           # q^2 (b1-1) h^{1+2b2,b2}_{2n+3}
    k7 = pq2 * n1                 # h^{2pq b1, 2pq b1 b2}_{2n+1}
    k8 = pq2 * (n1 * n2)          # 2pq b1 b2 (f_{2n} + f_{2n+3})
    # the coefficients of f_{2n-1}, ..., f_{2n+3}
    c0 = k1 * p_hi
    c1 = k1 * n2_3 + k2 * p_hi + k7 * d2 + k8
    c2 = (k2 + k7) * n2 + k3 * p_hi
    c3 = k3 * n2_3 + k4 * p_hi
    c4 = k4 * n2 + k8
    # and of the products f_{n-1} f_n, f_n f_{n+1} and f_{n+1} f_{n+2}
    k5 = (2 * p) * (b1_less_1 * (p * n2 + (p + q) * d2))
    k6 = (2 * q2) * (b1_less_1 * (d2 + n2))
    k9 = pq2 * (n2 * (d1 - n1))
    # folded onto f_{n-1} f_n, then 5 times onto f_{2n+1}, f_{2n} and (-1)^n
    product_c = k6 + k9 - k5
    odd_c = 5 * (c0 + c2 + c3 + 2 * c4 + k9) - product_c
    even_c = 5 * (c1 - c0 + c3 + c4 - k6) + 3 * product_c
    units = cycle((product_c, -product_c) if start % 2 == 0 else (-product_c, product_c))
    return [
        odd_c * x1 + even_c * x0 + unit for x0, x1, unit in zip(high[0::2], high[1::2], units)
    ]


def _formula_tops(params, pq, start, stop):
    """V(n), 5*d1*d2 times the closed-form norm of F_n (pq is None, the seeds
    (0, 1)) or H^{p,q}_n, for n in [start, stop), from one range of f-values."""
    return _genfib_formula_tops(params, pq or (0, 1), start, fib_values(2 * start, 2 * stop))


def norm_fib_formula(params, n):
    """Closed form of n(F_n) for any signed n:

    h^{1+2b2, 3b2}_{2n+2} + (b1-1) h^{1+2b2, b2}_{2n+3} - 2(b1-1)(1+b2) f_n f_{n+1}

    the case (p, q) = (0, 1) of ``norm_genfib_formula``, as V(n) over 5*d1*d2.
    """
    n1, d1, n2, d2 = params
    return Rational(_formula_tops(params, None, n, n + 1)[0], 5 * d1 * d2)


def norm_genfib_formula(params, pq, n):
    """Closed form of n(H^{p,q}_n) for any signed n:

    p^2 h^{1+2b2,3b2}_{2n} + p^2(b1-1) h^{1+2b2,b2}_{2n+1}
    + q^2 h^{1+2b2,3b2}_{2n+2} + q^2(b1-1) h^{1+2b2,b2}_{2n+3}
    - 2p(b1-1)(p*b2+p+q) f_{n-1} f_n - 2q^2(b1-1)(1+b2) f_n f_{n+1}
    + h^{2pq*b1, 2pq*b1*b2}_{2n+1} + 2pq*b1*b2 (f_{2n} + f_{2n+3})
    + 2pq*b2(1-b1) f_{n+1} f_{n+2}

    evaluated as one integer numerator, V(n), over 5*d1*d2.  Here h^{a,b}_m
    is a f_{m-1} + b f_m, and f extends to negative indices.
    """
    n1, d1, n2, d2 = params
    return Rational(_formula_tops(params, pq, n, n + 1)[0], 5 * d1 * d2)


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


def _indicator_E_pair(params):
    # 5*d1*d2 * E as the residue [c0, c1] of c0 + c1*alpha in Z[alpha]
    n1, d1, n2, d2 = params
    return [
        d1 * d2 + n1 * d2 + 2 * (d1 * n2) + 5 * (n1 * n2),  # d1*d2 (1 + b1 + 2 b2 + 5 b1 b2)
        n1 * d2 + 3 * (d1 * n2) + 8 * (n1 * n2),            # d1*d2 (b1 + 3 b2 + 8 b1 b2)
    ]


# 1, alpha^2, alpha^4, alpha^6 as residues of Z[alpha], read by E' literally
_ALPHA_EVEN_POWERS = [fib_values(m - 1, m + 1) for m in (0, 2, 4, 6)]


def _indicator(params, pq):
    """5*d1*d2 times E (pq is None) or E', as an unreduced residue [c0, c1]
    of c0 + c1*alpha in Z[alpha]; its sign is that of the indicator.

    E' is evaluated literally, as (p + alpha*q)^2 times the bracket
    d1*d2 [1 + b1 a^2 + b2 a^4 + b1 b2 a^6] from powers of alpha, and
    cross-checked against (p + alpha*q)^2 * E: as Z[alpha] has no zero
    divisors, the two differ exactly when the bracket differs from E's
    residue and (p, q) != (0, 0), and then ConsistencyError shows both.
    """
    pair = _indicator_E_pair(params)
    if pq is None:
        return pair
    n1, d1, n2, d2 = params
    weights = (d1 * d2, n1 * d2, d1 * n2, n1 * n2)
    bracket = [sum(w * a[i] for w, a in zip(weights, _ALPHA_EVEN_POWERS)) for i in (0, 1)]
    p, q = _integer_seeds(*pq)
    square = [p * p + q * q, (2 * p + q) * q]  # (p + alpha*q)^2, as alpha^2 = 1 + alpha
    if bracket != pair and any(square):
        bottom = 5 * d1 * d2
        raise ConsistencyError(
            "growth indicator routes disagree: "
            f"{_shown(from_residue(mul(square, bracket), bottom))} "
            f"vs {_shown(from_residue(mul(square, pair), bottom))}"
        )
    return mul(square, bracket)


def growth_indicator_E(params):
    """E(b1, b2) = (1/5)[1 + b1 + 2 b2 + 5 b1 b2 + alpha(b1 + 3 b2 + 8 b1 b2)].

    Exact element of Q(sqrt 5); its sign is the eventual sign of n(F_n).
    Nonzero for every rational (b1, b2): E = 0 would force
    b2^2 + 7 b2 + 1 = 0, whose discriminant 45 is not a perfect square.
    The integer residue of ``_indicator`` over 5*d1*d2, reduced.
    """
    n1, d1, n2, d2 = params
    return from_residue(_indicator(params, None), 5 * d1 * d2)


def growth_indicator_Eprime(params, pq):
    """E'(b1, b2) = (1/5)(p + alpha*q)^2 [1 + b1 a^2 + b2 a^4 + b1 b2 a^6].

    Evaluated literally from powers of alpha, then cross-checked against the
    reduced form (p + alpha*q)^2 * E(b1, b2); the two must agree exactly.
    The integer residue of ``_indicator`` over 5*d1*d2, reduced.
    """
    n1, d1, n2, d2 = params
    return from_residue(_indicator(params, pq), 5 * d1 * d2)


class ThresholdReport(NamedTuple):
    """Outcome of an invertibility threshold over n in [0, scanned_up_to].

    empirical_n0 is the least index from which every norm in
    [0, scanned_up_to] is nonzero with sign equal to sign_of_E, and zero
    norms below it are listed, at most two: the report is always that of a
    scan of the whole range.  empirical_n0 holds for every n >= it only
    when each parity's interval of bad indices (the module docstring) ends
    inside [0, scanned_up_to], and the report does not say whether they do:
    in H(-12, -12614708645908898764136/86462499333591078659879) the report
    at scanned_up_to = 50 has empirical_n0 = 50 and no zero norm, yet the
    norm of F_51 is 0.
    """

    params: AlgebraParams
    pq: GenFibParams | None
    sign_of_E: int
    empirical_n0: int
    scanned_up_to: int
    zero_norm_indices: tuple[int, ...]


def _fitted_constant(lead, tops):
    """k with tops[n] = V(n) = Tr(lead*alpha^(2n)) + k*(-1)^n at n = 0, 1, 2.

    The norms of F_n and H^{p,q}_n satisfy one order-3 recurrence with roots
    alpha^2, alpha^-2 and -1, so three consecutive values fix them: the fit
    holding at n = 0, 1, 2 proves V(n) = lead*alpha^(2n) +
    sigma(lead)*alpha^(-2n) + k*(-1)^n for every n, sigma conjugating
    sqrt 5.  Raises ConsistencyError when it does not hold.
    """
    c0, c1 = lead
    k = tops[0] - (2 * c0 + c1)  # Tr(c0 + c1*alpha) = 2 c0 + c1
    # alpha^2 = 1 + alpha and alpha^4 = 2 + 3 alpha
    if tops[1] != 3 * c0 + 4 * c1 - k or tops[2] != 7 * c0 + 11 * c1 + k:
        raise ConsistencyError(
            f"the norms do not fit the leading coefficient {_shown(c0)} + {_shown(c1)}*alpha"
        )
    return k


class _SignedNorms(dict):
    """n: s*V(n) for F_n (pq is None) or H^{p,q}_n and a sign s, read on first
    use: the integer quadratic form of ``Quaternion.norm`` on the four
    sequence values from n, as one read of the recurrence, with the weights
    5*s*(d1*d2, n1*d2, d1*n2, n1*n2) fixed at construction."""

    __slots__ = ("_read", "_weights")

    def __init__(self, params, pq, s):
        n1, d1, n2, d2 = params
        self._read = fib_values if pq is None else partial(gen_fib_values, pq)
        self._weights = (5 * s * d1 * d2, 5 * s * n1 * d2, 5 * s * d1 * n2, 5 * s * n1 * n2)

    def __missing__(self, n):
        x1, x2, x3, x4 = self._read(n, n + 4)
        w1, w2, w3, w4 = self._weights
        value = self[n] = w1 * x1 * x1 + w2 * x2 * x2 + w3 * x3 * x3 + w4 * x4 * x4
        return value


def _reach(holds, limit):
    """The largest t in [0, limit] with holds(t), for a holds that is true on
    a prefix of [0, limit], t = 0 included and never evaluated: t = 1, 3, 7,
    ... is tried until it fails or passes limit, and the last step bisected."""
    low, high = 0, 1
    while high <= limit and holds(high):
        low, high = high, 2 * high + 1
    high = min(high, limit + 1)  # fails, or is past limit
    while high - low > 1:
        mid = (low + high) // 2
        if holds(mid):
            low = mid
        else:
            high = mid
    return low


def invertibility_threshold(params, pq=None, n_max=50):
    """The sign threshold of the exact norms of F_n (or H^{p,q}_n when pq is
    given) over n in [0, n_max]: the report of a scan of the whole range.
    Its empirical_n0 holds past n_max only when each parity's interval of
    bad indices ends inside [0, n_max] (see ``ThresholdReport``).

    The Binet lead A is the residue 5*d1*d2*E of ``_indicator`` (for F_n),
    or its 5*d1*d2*E' times alpha^-2 (for H^{p,q}_n), and sign_of_E is its
    sign s; the fit at n = 0, 1, 2 proves the Binet form
    (``_fitted_constant``), so each parity's bad indices are one interval
    (see the module docstring).  On parity r the locator starts at the
    least s*V in [r, n_max], galloping while s*V(n+2) <= s*V(n), which is r
    itself when s*V increases from r, as it does in the monotone case.  From
    there it gallops and bisects (``_reach``) down and up to the ends of the
    interval within [0, n_max]: n0 is 1 plus the largest end, and the zero
    norms are the ends where V = 0.  Each V(n) is read alone
    (``_SignedNorms``), O(log n_max) of them in all.

    Raises IndicatorDegenerateError when the applicable growth indicator is
    zero (only possible for pq == (0, 0) with rational parameters),
    ScanExhaustedError when even the index n_max breaks the sign condition,
    and ConsistencyError when the norms do not fit the Binet form.
    """
    if n_max < 1:
        raise DomainError(f"invertibility_threshold requires n_max >= 1, got {_shown(n_max)}")
    c0, c1 = _indicator(params, pq)
    target = residue_sign(c0, c1)
    if not target:
        raise IndicatorDegenerateError(
            f"growth indicator vanishes for {_shown(params)} with seeds {_shown(pq)}"
        )
    if pq is not None:  # h_m ~ alpha^(m-1) (p + alpha*q)/sqrt 5, so E' * alpha^-2
        c0, c1 = 2 * c0 - c1, c1 - c0  # times alpha^-2 = 2 - alpha
    norms = _SignedNorms(params, pq, target)
    _fitted_constant((c0, c1), [target * norms[n] for n in range(3)])  # the proof of the form
    ends = set()
    for r in (0, 1):
        least = r + 2 * _reach(lambda t: norms[r + 2 * t] <= norms[r + 2 * t - 2], (n_max - r) // 2)
        if norms[least] <= 0:
            low = least - 2 * _reach(lambda t: norms[least - 2 * t] <= 0, (least - r) // 2)
            high = least + 2 * _reach(lambda t: norms[least + 2 * t] <= 0, (n_max - least) // 2)
            ends.update((low, high))
    n0 = max(ends, default=-1) + 1
    if n0 > n_max:
        raise ScanExhaustedError(
            f"no sign threshold within [0, {n_max}] for {_shown(params)} with seeds {_shown(pq)}"
        )
    zeros = tuple(sorted(n for n in ends if not norms[n])) if ends else ()
    return ThresholdReport(params, pq, target, n0, n_max, zeros)


# indices per closed-form read of the re-verification, and per range read of
# the audit entries that read windows
_VERIFY_WINDOW = 256


def verify_threshold_report(report):
    """Re-verify a ThresholdReport by an independent scan.

    The scan evaluates each V(n), 5*d1*d2 times the norm, through the
    closed-form route instead of the quadratic form on recurrence values, at
    every index of [0, scanned_up_to], read in windows of _VERIFY_WINDOW
    indices whose signs alone are kept, taken on V without dividing; it
    does not rely on the interval structure that ``invertibility_threshold``
    locates.
    It rechecks every invariant: sign_of_E is the indicator's, the tail
    is uniformly nonzero with sign sign_of_E, empirical_n0 is minimal and in
    [0, scanned_up_to], scanned_up_to >= 1, and zero_norm_indices lists
    exactly the zero norms below n0, over all of [0, scanned_up_to].  Raises
    ConsistencyError on any disagreement.
    """
    params, pq, s, n0, n_max, listed = report
    if residue_sign(*_indicator(params, pq)) != s:
        raise ConsistencyError("sign_of_E does not match the growth indicator")
    if n_max < 1 or not 0 <= n0 <= n_max + 1:  # n_max + 1 is refused further down
        raise ConsistencyError(f"no scan reports n0 = {_shown(n0)} scanning [0, {_shown(n_max)}]")
    signs = []
    for start in range(0, n_max + 1, _VERIFY_WINDOW):
        tops = _formula_tops(params, pq, start, min(start + _VERIFY_WINDOW, n_max + 1))
        signs += [(top > 0) - (top < 0) for top in tops]
    tail = signs[n0:]
    if tail.count(s) != len(tail):
        n = next(n for n, sign in enumerate(tail, n0) if sign != s)
        raise ConsistencyError(f"tail condition fails at n = {n}")
    if n0 > 0 and signs[n0 - 1] == s:
        raise ConsistencyError("empirical_n0 is not minimal")
    if n0 > n_max:
        raise ConsistencyError(f"no scan reports n0 = {_shown(n0)} scanning [0, {_shown(n_max)}]")
    zeros = tuple(n for n in range(n0) if not signs[n])
    if zeros != listed:
        raise ConsistencyError(f"zero norms disagree: {zeros} vs {_shown(listed)}")
