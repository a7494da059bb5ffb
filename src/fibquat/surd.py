"""Exact integer residues modulo chi_k(t) = t^k - t^(k-1) - 1, and the field
Q(sqrt 5) built on them.

A residue is a coefficient list [c_0, ..., c_{k-1}] standing for
c_0 + c_1 t + ... + c_{k-1} t^(k-1) modulo chi_k, for k = 2 and 3.  chi_2 =
t^2 - t - 1 has the golden ratio alpha = (1 + sqrt 5)/2 as a root, so its
residues are the ring Z[alpha]; chi_3 = t^3 - t^2 - 1 is the Narayana
polynomial.  chi_k is also the characteristic polynomial of
x_n = x_{n-1} + x_{n-k}, so t^n modulo chi_k stands for the k x k
companion-matrix power in k numbers (see ``sequences``).  ``mul`` is the one
residue product and ``power`` the one binary power; ``t_power`` gives t^n for
any signed n.

A QuadraticSurd r + s*sqrt(5) is a k = 2 residue over one positive
denominator, (c0 + c1*alpha)/den with gcd(c0, c1, den) == 1, and is
immutable: the tuple (c0, c1, den).  Two surds are equal exactly when these
integers are; r and s are Rational views.  The sign is decided exactly on
the integers; no floating point is involved.
"""

from math import gcd, lcm
from operator import itemgetter

from ._kernel import Rational
from .algebra import _FieldTuple, as_rational
from .errors import ConsistencyError


def _reduce(poly, k):
    # fold degrees >= k down with t^d = t^(d-1) + t^(d-k) (mod chi_k)
    for d in range(len(poly) - 1, k - 1, -1):
        top = poly[d]
        poly[d - 1] += top
        poly[d - k] += top
    return poly[:k]


def mul(a, b):
    """a*b modulo chi_k for residues of one length k.  A square (b is a)
    takes k(k+1)/2 big multiplications instead of k^2."""
    k = len(a)
    poly = [0] * (2 * k - 1)
    if b is a:
        for i, ai in enumerate(a):
            poly[2 * i] += ai * ai
            for j in range(i + 1, k):
                poly[i + j] += (ai * a[j]) << 1
    else:
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                poly[i + j] += ai * bj
    return _reduce(poly, k)


def power(base, n):
    """base^n modulo chi_k for n >= 0, by left-to-right binary exponentiation."""
    out = [1] + [0] * (len(base) - 1)
    for bit in bin(n)[2:]:
        out = mul(out, out)
        if bit == "1":
            out = mul(out, base)
    return out


def t_power(k, n):
    """t^n modulo chi_k for any signed n, with 1/t = t^(k-1) - t^(k-2)."""
    base = [0, 1] + [0] * (k - 2) if n >= 0 else [0] * (k - 2) + [-1, 1]
    return power(base, abs(n))


def _as_surd(other):
    # an int or Rational as a QuadraticSurd; any other operand is returned as it is
    if isinstance(other, (int, Rational)):
        other = as_rational(other)
        return from_residue((other.numerator, 0), other.denominator)
    return other


def _coerced(method):
    # a QuadraticSurd binary method; int and Rational operands are coerced first
    def binary(self, other):
        other = _as_surd(other)
        return method(self, other) if isinstance(other, QuadraticSurd) else NotImplemented
    return binary


class QuadraticSurd(_FieldTuple):
    """r + s*sqrt(5) with rational r, s, held as (c0 + c1*alpha)/den; immutable,
    and as a tuple also the sequence (c0, c1, den)."""

    __slots__ = ()

    def __new__(cls, r, s=0):
        r = as_rational(r)
        s = as_rational(s)
        den = lcm(r.denominator, s.denominator)
        top = s.numerator * (den // s.denominator)
        # r + s*sqrt 5 = (r - s) + 2s*alpha, in lowest terms by from_residue
        return from_residue((r.numerator * (den // r.denominator) - top, 2 * top), den)

    c0 = property(itemgetter(0))
    c1 = property(itemgetter(1))
    den = property(itemgetter(2))

    @property
    def r(self):
        return Rational(2 * self.c0 + self.c1, 2 * self.den)

    @property
    def s(self):
        return Rational(self.c1, 2 * self.den)

    @_coerced
    def __add__(self, other):
        da, db = self.den, other.den
        return from_residue((self.c0 * db + other.c0 * da, self.c1 * db + other.c1 * da), da * db)

    __radd__ = __add__

    @_coerced
    def __sub__(self, other):
        return self + -other

    @_coerced
    def __rsub__(self, other):
        return other + -self

    @_coerced
    def __mul__(self, other):
        return from_residue(mul([self.c0, self.c1], [other.c0, other.c1]), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("surd powers take non-negative integer exponents")
        return from_residue(power([self.c0, self.c1], exponent), self.den ** exponent)

    def __neg__(self):
        return from_residue((-self.c0, -self.c1), self.den)

    def __eq__(self, other):
        return _FieldTuple.__eq__(self, _as_surd(other))

    def __hash__(self):
        # a rational value hashes as its Rational, which it equals
        return tuple.__hash__(self) if self.c1 else hash(self.r)

    def __bool__(self):
        return bool(self.c0 or self.c1)

    def is_zero(self):
        return not self

    def sign(self):
        """Exact sign of the real value r + s*sqrt(5): -1, 0 or +1."""
        return residue_sign(self.c0, self.c1)

    def __float__(self):
        return float(self.r) + float(self.s) * 5 ** 0.5

    def __str__(self):
        return f"{self.r} + {self.s}*sqrt(5)"

    def __repr__(self):
        return f"QuadraticSurd({self.r!r}, {self.s!r})"


def residue_sign(c0, c1):
    """Exact sign of c0 + c1*alpha for integers c0, c1: -1, 0 or +1."""
    # twice the value is u + v*sqrt 5, with u = 2 c0 + c1 and v = c1
    v = c1
    u = 2 * c0 + v
    if u * v >= 0:  # no cancellation
        w = u + v
    else:
        # opposite signs: |u| vs |v|*sqrt(5), i.e. u^2 vs 5 v^2
        gap = u * u - 5 * (v * v)
        if gap == 0:
            # would make sqrt(5) rational
            raise ConsistencyError(f"irrationality violated for {c0} + {c1}*alpha")
        w = u if gap > 0 else v
    return (w > 0) - (w < 0)


def from_residue(residue, den):
    """(c0 + c1*alpha)/den in lowest terms, for a chi_2 residue [c0, c1] and den > 0."""
    c0, c1 = residue
    g = gcd(c0, c1, den)
    return tuple.__new__(QuadraticSurd, (c0 // g, c1 // g, den // g))


#: The golden ratio (1 + sqrt 5)/2, the dominant root of t^2 - t - 1.
ALPHA = from_residue((0, 1), 1)
