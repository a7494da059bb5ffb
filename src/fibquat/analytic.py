"""Floating-point layer: roots of t^3 - t^2 - 1, Binet-style evaluations,
and the exact generating-function coefficient check.

Everything numeric here carries an explicit index guard sized so hardware
doubles stay within the documented tolerances; every exactness-critical
statement lives in the exact modules instead.
"""

from dataclasses import dataclass

from .errors import ConsistencyError, DomainError, PrecisionGuardError, SeriesMismatchError
from .sequences import narayana

_SQRT5 = 5 ** 0.5
_PHI = (1 + _SQRT5) / 2
_PSI = (1 - _SQRT5) / 2

#: |n| caps keeping the relative error of the Binet evaluations below 1e-9.
FIB_INDEX_GUARD = 70
NARAYANA_INDEX_GUARD = 90

_RESIDUAL_BOUND = 1e-14
_IMAG_RESIDUE_BOUND = 1e-10


@dataclass(frozen=True)
class CubicRoots:
    """The three roots of t^3 - t^2 - 1: one real > 1, one conjugate pair."""

    alpha: float
    beta: complex
    gamma: complex
    residual_bound: float


def cubic_roots():
    """Roots of t^3 - t^2 - 1 = 0, refined until the residual bound holds.

    The real root comes from bracketed Newton iteration on [1, 2]; the
    complex pair from deflation and the quadratic formula.  Deterministic,
    computed once at import.
    """
    return _CUBIC_ROOTS


def _solve_cubic():
    lo, hi = 1.0, 2.0
    t = 1.5
    for _ in range(200):
        f = t * t * t - t * t - 1.0
        if f > 0:
            hi = t
        else:
            lo = t
        step = f / (3 * t * t - 2 * t)
        nxt = t - step
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if nxt == t:
            break
        t = nxt
    alpha = t
    # t^3 - t^2 - 1 = (t - alpha)(t^2 + Bt + C) with B = alpha - 1, C = 1/alpha
    b = alpha - 1.0
    c = 1.0 / alpha
    disc = b * b - 4.0 * c
    if disc >= 0:
        raise ConsistencyError("complex pair of t^3 - t^2 - 1 collapsed to reals")
    half = (-disc) ** 0.5 / 2.0
    beta = complex(-b / 2.0, half)
    gamma = beta.conjugate()
    worst = max(
        abs(alpha**3 - alpha**2 - 1) / max(1.0, abs(alpha) ** 3),
        abs(beta**3 - beta**2 - 1) / max(1.0, abs(beta) ** 3),
        abs(gamma**3 - gamma**2 - 1) / max(1.0, abs(gamma) ** 3),
    )
    if worst > _RESIDUAL_BOUND:
        raise ConsistencyError(f"cubic root residual {worst} exceeds bound")
    return CubicRoots(alpha=alpha, beta=beta, gamma=gamma, residual_bound=_RESIDUAL_BOUND)


_CUBIC_ROOTS = _solve_cubic()


def binet_fib(n):
    """f_n = (phi^n - psi^n)/sqrt(5), for |n| <= 70."""
    if abs(n) > FIB_INDEX_GUARD:
        raise PrecisionGuardError(
            f"binet_fib holds its tolerance only for |n| <= {FIB_INDEX_GUARD}, got {n}"
        )
    return (_PHI**n - _PSI**n) / _SQRT5


def binet_narayana(n):
    """u_n through the roots of t^3 - t^2 - 1, for |n| <= 90.

    Returns the real part of the symmetric three-root expression; its
    imaginary part must vanish to rounding (< 1e-10).
    """
    if abs(n) > NARAYANA_INDEX_GUARD:
        raise PrecisionGuardError(
            f"binet_narayana holds its tolerance only for |n| <= "
            f"{NARAYANA_INDEX_GUARD}, got {n}"
        )
    value = _narayana_symmetric(n)
    if abs(value.imag) >= _IMAG_RESIDUE_BOUND:
        raise ConsistencyError(f"imaginary residue {value.imag} at n = {n}")
    return value.real


def _narayana_symmetric(n):
    roots = cubic_roots()
    a, b, g = roots.alpha, roots.beta, roots.gamma
    num = a ** (n + 1) * (g - b) + b ** (n + 1) * (a - g) + g ** (n + 1) * (b - a)
    return num / ((a - b) * (b - g) * (g - a))


def binet_narayana_quat(params, n):
    """The four coefficients of U_n from the weighted three-root expansion

        U_n = D a^{n+1}/((b-a)(g-a)) + E b^{n+1}/((a-b)(g-b)) + F g^{n+1}/((b-g)(a-g))

    with D = (1, a, a^2, a^3) over the basis (1, e2, e3, e4), and E, F the
    same powers of the other two roots.  Component k therefore reproduces the
    scalar expansion at index n + k.  The algebra parameters do not enter the
    coefficients; they are accepted to mirror the exact builder's signature.
    """
    del params
    if abs(n) > NARAYANA_INDEX_GUARD:
        raise PrecisionGuardError(
            f"binet_narayana_quat holds its tolerance only for |n| <= "
            f"{NARAYANA_INDEX_GUARD}, got {n}"
        )
    roots = cubic_roots()
    a, b, g = roots.alpha, roots.beta, roots.gamma
    wa = a ** (n + 1) / ((b - a) * (g - a))
    wb = b ** (n + 1) / ((a - b) * (g - b))
    wc = g ** (n + 1) / ((b - g) * (a - g))
    out = []
    for k in range(4):
        value = wa * a**k + wb * b**k + wc * g**k
        if abs(value.imag) >= _IMAG_RESIDUE_BOUND:
            raise ConsistencyError(
                f"imaginary residue {value.imag} in component {k} at n = {n}"
            )
        out.append(value.real)
    return tuple(out)


@dataclass(frozen=True)
class SeriesCheck:
    """Result of the generating-function check; all residuals must be zero."""

    degree_checked: int
    max_abs_residual_coefficient: tuple[int, int, int, int]


def gf_check(max_degree):
    """Multiply the truncated series sum U_n t^n by (1 - t - t^3) exactly.

    The product's coefficients are integer quaternion quadruples; degrees 0-2
    must equal U_0, U_1 - U_0, U_2 - U_1 and every later coefficient through
    max_degree must vanish, which is precisely the three-term recurrence.
    """
    if max_degree < 3:
        raise DomainError(f"gf_check requires max_degree >= 3, got {max_degree}")
    series = [
        (narayana(n), narayana(n + 1), narayana(n + 2), narayana(n + 3))
        for n in range(max_degree + 1)
    ]
    # (1 - t - t^3): term list of (shift, scalar)
    multiplier = ((0, 1), (1, -1), (3, -1))
    expected_head = [
        series[0],
        _sub(series[1], series[0]),
        _sub(series[2], series[1]),
    ]
    worst = (0, 0, 0, 0)
    for degree in range(max_degree + 1):
        coeff = (0, 0, 0, 0)
        for shift, scalar in multiplier:
            i = degree - shift
            if i >= 0:
                coeff = tuple(c + scalar * s for c, s in zip(coeff, series[i]))
        if degree < 3:
            if coeff != expected_head[degree]:
                raise SeriesMismatchError(degree, coeff)
        else:
            worst = tuple(max(w, abs(c)) for w, c in zip(worst, coeff))
            if any(coeff):
                raise SeriesMismatchError(degree, coeff)
    return SeriesCheck(degree_checked=max_degree, max_abs_residual_coefficient=worst)


def _sub(x, y):
    return tuple(a - b for a, b in zip(x, y))
