"""Floating-point layer: roots of t^3 - t^2 - 1, Binet-style evaluations,
and the exact generating-function coefficient check.

Everything numeric here carries an explicit index guard sized so hardware
doubles stay within the documented tolerances; every exactness-critical
statement lives in the exact modules instead.
"""

from typing import NamedTuple

from .errors import ConsistencyError, DomainError, PrecisionGuardError, SeriesMismatchError, _shown
from .sequences import narayana_values

_SQRT5 = 5 ** 0.5
_PHI = (1 + _SQRT5) / 2
_PSI = (1 - _SQRT5) / 2

#: |n| caps keeping the relative error of the Binet evaluations below 1e-9.
FIB_INDEX_GUARD = 70
NARAYANA_INDEX_GUARD = 90

_RESIDUAL_BOUND = 1e-14
_IMAG_RESIDUE_BOUND = 1e-10


class CubicRoots(NamedTuple):
    """The three roots of t^3 - t^2 - 1: one real > 1, one conjugate pair."""

    alpha: float
    beta: complex
    gamma: complex
    residual_bound: float


def cubic_roots():
    """Roots of t^3 - t^2 - 1 = 0, refined until the residual bound holds.

    The real root is correctly rounded, with no floating point on the way:
    the doubles m/2^52 of [1, 2] are bisected on the exact integer sign of
    (t^3 - t^2 - 1)*2^156 = m^3 - m^2*2^52 - 2^156, and of the two adjacent
    doubles that bracket the root, the one where that value is least in
    absolute value is kept.  The complex pair comes from deflation and the
    quadratic formula.  Deterministic, computed once at import.
    """
    return _CUBIC_ROOTS


def _cubic_gap(m):
    # (t^3 - t^2 - 1) * 2^156 at the double t = m / 2^52 of [1, 2], exactly
    return m * m * (m - (1 << 52)) - (1 << 156)


def _solve_cubic():
    lo, hi = 1 << 52, 1 << 53  # t = 1 and t = 2, where the cubic is -1 and 3
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if _cubic_gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    alpha = min(lo, hi, key=lambda m: abs(_cubic_gap(m))) / (1 << 52)
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
            f"binet_fib holds its tolerance only for |n| <= {FIB_INDEX_GUARD}, got {_shown(n)}"
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
            f"{NARAYANA_INDEX_GUARD}, got {_shown(n)}"
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
            f"{NARAYANA_INDEX_GUARD}, got {_shown(n)}"
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


class SeriesCheck(NamedTuple):
    """Result of the generating-function check; all residuals must be zero."""

    degree_checked: int
    max_abs_residual_coefficient: tuple[int, int, int, int]


def gf_check(max_degree):
    """Multiply the truncated series sum U_n t^n by (1 - t - t^3) exactly.

    The product's coefficients are integer quaternion quadruples.  Degrees 0-2
    are U_0, U_1 - U_0, U_2 - U_1 by construction; every later coefficient
    through max_degree must vanish, which is precisely the three-term
    recurrence, so a wrong U_0..U_2 shows up in the residuals of degree 3.

    U_n has components u_n..u_{n+3}, so component k of the coefficient at
    degree d >= 3 is the residual r_{d+k} = u_{d+k} - u_{d+k-1} - u_{d+k-3}.
    Every residual r_3 .. r_{max_degree+3} is computed once, 256 per read of
    u in windows that overlap by 3 values, so memory stays flat in
    max_degree; at the first nonzero residual r_m the four residuals of
    degree max(3, m - 3), the least degree whose coefficient holds r_m, are
    recomputed from one read of the 7 values they use and reported.
    """
    if max_degree < 3:
        raise DomainError(f"gf_check requires max_degree >= 3, got {_shown(max_degree)}")
    for start in range(0, max_degree + 1, 256):
        u = narayana_values(start, min(start + 259, max_degree + 4))
        residuals = [a - b - c for a, b, c in zip(u[3:], u[2:], u)]  # r_{start+3} ..
        if any(residuals):
            first = next(m for m, r in enumerate(residuals, start + 3) if r)
            degree = max(3, first - 3)
            u = narayana_values(degree - 3, degree + 4)
            raise SeriesMismatchError(degree, tuple(a - b - c for a, b, c in zip(u[3:], u[2:], u)))
    # every residual is zero, so is the largest of each component
    return SeriesCheck(degree_checked=max_degree, max_abs_residual_coefficient=(0, 0, 0, 0))
