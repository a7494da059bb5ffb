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
the direct norms.  They are written once, over an index range: the public
single-index forms pass one index, the threshold re-verification a whole
scan fed by one list of f-values.  The growth indicators are likewise
integer residues c0 + c1*alpha of Z[alpha] over 5*d1*d2, multiplied by the
residue ring of ``surd``, and returned as QuadraticSurds.
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
from .sequences import GenFibParams, fib, fib_values, gen_fib_values
from .surd import from_residue, mul, t_power


def _h(p, q, m):
    # h_m for seeds p, q, via h_m = p*f_{m-1} + q*f_m
    return p * fib(m - 1) + q * fib(m)


def _over_d1d2(params, top):
    n1, d1, n2, d2 = params.cleared
    return Rational(top, d1 * d2)


def _sign(x):
    return (x > 0) - (x < 0)


def _fib_values(indices):
    # f[m] = f_m for every m in indices (any sign), for one closed-form index
    return {m: fib(m) for m in indices}


def _fib_formula_tops(params, f, ns):
    """d1*d2 * n(F_n) by the closed form, for each n in ns.

    f[m] must be f_m for m in {n, n+1, 2n+1, 2n+2, 2n+3}: a list from f_0 for
    a scan over n >= 0, a dict for one arbitrary index.  The constants of the
    algebra are computed once for the whole range.
    """
    n1, d1, n2, d2 = params.cleared
    p_hi = d2 + 2 * n2
    n2_3 = 3 * n2
    b1_less_1 = n1 - d1
    cross = 2 * (b1_less_1 * (d2 + n2))
    tops = []
    for n in ns:
        m = 2 * n
        # d1 h^{p_hi, 3n2}_{2n+2} + (n1-d1) h^{p_hi, n2}_{2n+3} - cross f_n f_{n+1}
        tops.append(
            d1 * (p_hi * f[m + 1] + n2_3 * f[m + 2])
            + b1_less_1 * (p_hi * f[m + 2] + n2 * f[m + 3])
            - cross * (f[n] * f[n + 1])
        )
    return tops


def _genfib_formula_tops(params, pq, f, ns):
    """d1*d2 * n(H^{p,q}_n) by the closed form, term by term, for each n in ns.

    f[m] must be f_m for m in n-1..n+2 and 2n-1..2n+3 (see _fib_formula_tops).
    """
    n1, d1, n2, d2 = params.cleared
    p, q = pq
    p_hi = d2 + 2 * n2
    n2_3 = 3 * n2
    b1_less_1 = n1 - d1
    p2 = p * p
    q2 = q * q
    pq2 = 2 * p * q
    k1 = d1 * p2
    k2 = p2 * b1_less_1
    k3 = d1 * q2
    k4 = q2 * b1_less_1
    k5 = (2 * p) * (b1_less_1 * (p * n2 + (p + q) * d2))
    k6 = (2 * q2) * (b1_less_1 * (d2 + n2))
    k7 = pq2 * n1
    k8 = pq2 * (n1 * n2)
    k9 = pq2 * (n2 * (d1 - n1))
    tops = []
    for n in ns:
        m = 2 * n
        f0, f1, f2, f3, f4 = f[m - 1], f[m], f[m + 1], f[m + 2], f[m + 3]
        g0, g1, g2, g3 = f[n - 1], f[n], f[n + 1], f[n + 2]
        tops.append(
            k1 * (p_hi * f0 + n2_3 * f1)    # p^2 d1 h^{p_hi, 3n2}_{2n}
            + k2 * (p_hi * f1 + n2 * f2)    # p^2 (n1-d1) h^{p_hi, n2}_{2n+1}
            + k3 * (p_hi * f2 + n2_3 * f3)  # q^2 d1 h^{p_hi, 3n2}_{2n+2}
            + k4 * (p_hi * f3 + n2 * f4)    # q^2 (n1-d1) h^{p_hi, n2}_{2n+3}
            - k5 * (g0 * g1)
            - k6 * (g1 * g2)
            + k7 * (d2 * f1 + n2 * f2)      # 2pq n1 h^{d2, n2}_{2n+1}
            + k8 * (f1 + f4)
            + k9 * (g2 * g3)
        )
    return tops


def norm_fib_formula(params, n):
    """Closed form of n(F_n):

    h^{1+2b2, 3b2}_{2n+2} + (b1-1) h^{1+2b2, b2}_{2n+3} - 2(b1-1)(1+b2) f_n f_{n+1}

    evaluated as one integer numerator over d1*d2.
    """
    f = _fib_values((n, n + 1, 2 * n + 1, 2 * n + 2, 2 * n + 3))
    return _over_d1d2(params, _fib_formula_tops(params, f, (n,))[0])


def norm_genfib_formula(params, pq, n):
    """Closed form of n(H^{p,q}_n) for n >= 1 (it references f_{n-1}):

    p^2 h^{1+2b2,3b2}_{2n} + p^2(b1-1) h^{1+2b2,b2}_{2n+1}
    + q^2 h^{1+2b2,3b2}_{2n+2} + q^2(b1-1) h^{1+2b2,b2}_{2n+3}
    - 2p(b1-1)(p*b2+p+q) f_{n-1} f_n - 2q^2(b1-1)(1+b2) f_n f_{n+1}
    + h^{2pq*b1, 2pq*b1*b2}_{2n+1} + 2pq*b1*b2 (f_{2n} + f_{2n+3})
    + 2pq*b2(1-b1) f_{n+1} f_{n+2}

    evaluated as one integer numerator over d1*d2.
    """
    f = _fib_values((*range(n - 1, n + 3), *range(2 * n - 1, 2 * n + 4)))
    return _over_d1d2(params, _genfib_formula_tops(params, pq, f, (n,))[0])


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
    n1, d1, n2, d2 = params.cleared
    return [
        d1 * d2 + n1 * d2 + 2 * (d1 * n2) + 5 * (n1 * n2),  # d1*d2 (1 + b1 + 2 b2 + 5 b1 b2)
        n1 * d2 + 3 * (d1 * n2) + 8 * (n1 * n2),            # d1*d2 (b1 + 3 b2 + 8 b1 b2)
    ]


def growth_indicator_E(params):
    """E(b1, b2) = (1/5)[1 + b1 + 2 b2 + 5 b1 b2 + alpha(b1 + 3 b2 + 8 b1 b2)].

    Exact element of Q(sqrt 5); its sign is the eventual sign of n(F_n).
    Nonzero for every rational (b1, b2): E = 0 would force
    b2^2 + 7 b2 + 1 = 0, whose discriminant 45 is not a perfect square.
    Evaluated as an integer residue of Z[alpha] over 5*d1*d2.
    """
    n1, d1, n2, d2 = params.cleared
    return from_residue(_indicator_E_pair(params), 5 * d1 * d2)


# 1, alpha^2, alpha^4, alpha^6 as residues of Z[alpha], read by E' literally
_ALPHA_EVEN_POWERS = [t_power(2, m) for m in (0, 2, 4, 6)]


def growth_indicator_Eprime(params, pq):
    """E'(b1, b2) = (1/5)(p + alpha*q)^2 [1 + b1 a^2 + b2 a^4 + b1 b2 a^6].

    Evaluated literally from powers of alpha, then cross-checked against the
    reduced form (p + alpha*q)^2 * E(b1, b2); the two must agree exactly.
    Both routes work on integer residues of Z[alpha] over 5*d1*d2.
    """
    n1, d1, n2, d2 = params.cleared
    # d1*d2 [1 + b1 a^2 + b2 a^4 + b1 b2 a^6]
    weights = (d1 * d2, n1 * d2, d1 * n2, n1 * n2)
    bracket = [sum(w * a[i] for w, a in zip(weights, _ALPHA_EVEN_POWERS)) for i in (0, 1)]
    root = list(pq)  # p + alpha*q
    square = mul(root, root)
    literal = mul(square, bracket)
    reduced = mul(square, _indicator_E_pair(params))
    bottom = 5 * d1 * d2
    if literal != reduced:
        raise ConsistencyError(
            f"growth indicator routes disagree: {from_residue(literal, bottom)} "
            f"vs {from_residue(reduced, bottom)}"
        )
    return from_residue(literal, bottom)


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
        values = fib_values(0, n_max + 4)
    else:
        indicator = growth_indicator_Eprime(params, pq)
        values = gen_fib_values(pq, 0, n_max + 4)
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
    route instead of the quadratic form on recurrence values: one list of
    f-values f_0..f_{2N+3} feeds the closed forms for the whole range
    n in [0, N].  It rechecks every invariant: the tail is uniformly nonzero
    with sign sign_of_E, empirical_n0 is minimal, and zero_norm_indices lists
    exactly the zero norms below it.  Raises ConsistencyError on any
    disagreement.
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
    n_max = report.scanned_up_to
    f = fib_values(0, 2 * n_max + 4)
    if pq is None:
        tops = _fib_formula_tops(params, f, range(n_max + 1))
    else:
        tops = [_genfib_start_top(params, pq)]
        tops += _genfib_formula_tops(params, pq, f, range(1, n_max + 1))
    signs = [_sign(top) for top in tops]
    for n in range(report.empirical_n0, n_max + 1):
        if signs[n] != report.sign_of_E:
            raise ConsistencyError(f"tail condition fails at n = {n}")
    if report.empirical_n0 > 0 and signs[report.empirical_n0 - 1] == report.sign_of_E:
        raise ConsistencyError("empirical_n0 is not minimal")
    zeros = tuple(n for n in range(report.empirical_n0) if not signs[n])
    if zeros != report.zero_norm_indices:
        raise ConsistencyError(
            f"zero norms disagree: {zeros} vs {report.zero_norm_indices}"
        )


def _genfib_start_top(params, pq):
    # d1*d2 * n(H^{p,q}_0): the closed form is stated for n >= 1, so this is
    # the quadratic form on closed-form coefficients h_m = p f_{m-1} + q f_m
    p, q = pq
    return cleared_norm(params, *(_h(p, q, m) for m in range(4)))
