"""Exact arithmetic in the generalized quaternion algebra H(beta1, beta2).

Basis 1, e2, e3, e4 with the defining products

    e2*e2 = -beta1      e3*e3 = -beta2      e4*e4 = -beta1*beta2
    e2*e3 =  e4         e3*e2 = -e4
    e2*e4 = -beta1*e3   e4*e2 =  beta1*e3
    e3*e4 =  beta2*e2   e4*e3 = -beta2*e2

beta1 = beta2 = 1 gives Hamilton's division quaternions; other parameters
may give split algebras with zero divisors.  All values are immutable and
every operation is a pure function, so everything here is safe to share
between threads.
"""

from dataclasses import dataclass
from math import lcm

from ._kernel import Rational
from .errors import AlgebraMismatchError, NotInvertibleError


def as_rational(x):
    """Coerce an int (or Rational) to Rational."""
    if isinstance(x, Rational):
        return x
    if isinstance(x, int):  # n/1 is already reduced
        return Rational._raw(x, 1)
    return Rational(x)


@dataclass(frozen=True)
class AlgebraParams:
    """The pair (beta1, beta2) fixing one algebra.  Any rationals are allowed."""

    beta1: Rational
    beta2: Rational

    def __post_init__(self):
        object.__setattr__(self, "beta1", as_rational(self.beta1))
        object.__setattr__(self, "beta2", as_rational(self.beta2))

    def __str__(self):
        return f"H({self.beta1}, {self.beta2})"


def cleared_norm(params, x1, x2, x3, x4):
    """d1*d2 * n(x1 + x2*e2 + x3*e3 + x4*e4) for integer x1..x4, as an int.

    With beta1 = n1/d1 and beta2 = n2/d2 this is the integer quadratic form
    d2*(d1*x1^2 + n1*x2^2) + n2*(d1*x3^2 + n1*x4^2).  Denominators are
    positive, so it has the sign of the norm and vanishes exactly with it.
    """
    b1 = params.beta1
    b2 = params.beta2
    n1 = b1.numerator
    d1 = b1.denominator
    return b2.denominator * (d1 * (x1 * x1) + n1 * (x2 * x2)) + b2.numerator * (
        d1 * (x3 * x3) + n1 * (x4 * x4)
    )


class Quaternion:
    """a1*1 + a2*e2 + a3*e3 + a4*e4 with exact rational coefficients.

    Instances remember their algebra; mixing algebras in an operation is a
    hard error, never a silent coercion.  Treat instances as immutable.
    """

    __slots__ = ("a1", "a2", "a3", "a4", "params")

    def __init__(self, a1, a2, a3, a4, params):
        self.a1 = as_rational(a1)
        self.a2 = as_rational(a2)
        self.a3 = as_rational(a3)
        self.a4 = as_rational(a4)
        self.params = params

    @classmethod
    def _raw(cls, a1, a2, a3, a4, params):
        # internal: coefficients already Rational
        self = object.__new__(cls)
        self.a1 = a1
        self.a2 = a2
        self.a3 = a3
        self.a4 = a4
        self.params = params
        return self

    @classmethod
    def zero(cls, params):
        z = Rational(0)
        return cls._raw(z, z, z, z, params)

    @classmethod
    def one(cls, params):
        return cls._raw(Rational(1), Rational(0), Rational(0), Rational(0), params)

    @classmethod
    def scalar(cls, value, params):
        z = Rational(0)
        return cls._raw(as_rational(value), z, z, z, params)

    @property
    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4)

    @property
    def scalar_part(self):
        return self.a1

    def is_scalar(self):
        return not (self.a2 or self.a3 or self.a4)

    def _require_same_algebra(self, other):
        if self.params != other.params:
            raise AlgebraMismatchError(
                f"cannot combine elements of {self.params} and {other.params}"
            )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        return Quaternion._raw(
            self.a1 + other.a1,
            self.a2 + other.a2,
            self.a3 + other.a3,
            self.a4 + other.a4,
            self.params,
        )

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        return Quaternion._raw(
            self.a1 - other.a1,
            self.a2 - other.a2,
            self.a3 - other.a3,
            self.a4 - other.a4,
            self.params,
        )

    def __neg__(self):
        return Quaternion._raw(-self.a1, -self.a2, -self.a3, -self.a4, self.params)

    def scale(self, k):
        k = as_rational(k)
        return Quaternion._raw(
            k * self.a1, k * self.a2, k * self.a3, k * self.a4, self.params
        )

    def __mul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        b1 = self.params.beta1
        b2 = self.params.beta2
        a1, a2, a3, a4 = self.a1, self.a2, self.a3, self.a4
        c1, c2, c3, c4 = other.a1, other.a2, other.a3, other.a4
        return Quaternion._raw(
            a1 * c1 - b1 * (a2 * c2) - b2 * (a3 * c3) - b1 * (b2 * (a4 * c4)),
            a1 * c2 + a2 * c1 + b2 * (a3 * c4 - a4 * c3),
            a1 * c3 + a3 * c1 + b1 * (a4 * c2 - a2 * c4),
            a1 * c4 + a4 * c1 + a2 * c3 - a3 * c2,
            self.params,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        return NotImplemented

    # -- involution, trace, norm ------------------------------------------

    def conj(self):
        return Quaternion._raw(self.a1, -self.a2, -self.a3, -self.a4, self.params)

    def trace(self):
        """2*a1, so that a + conj(a) == trace(a)*1 exactly."""
        return 2 * self.a1

    def norm(self):
        """a1^2 + beta1*a2^2 + beta2*a3^2 + beta1*beta2*a4^2, exactly.

        Evaluated with denominators cleared: the coefficients are scaled by
        L, the lcm of their denominators (L = 1 for every sequence
        quaternion), ``cleared_norm`` gives the integer d1*d2*L^2 * n(a), and
        a single reduction over d1*d2*L^2 returns the Rational.
        """
        a1, a2, a3, a4 = self.a1, self.a2, self.a3, self.a4
        params = self.params
        den1, den2, den3, den4 = (
            a1.denominator, a2.denominator, a3.denominator, a4.denominator
        )
        scale = lcm(den1, den2, den3, den4)
        top = cleared_norm(
            params,
            a1.numerator * (scale // den1),
            a2.numerator * (scale // den2),
            a3.numerator * (scale // den3),
            a4.numerator * (scale // den4),
        )
        return Rational(
            top, params.beta1.denominator * params.beta2.denominator * scale * scale
        )

    def square(self):
        return self * self

    def inverse(self):
        """conj(a)/norm(a); raises NotInvertibleError on zero norm."""
        n = self.norm()
        if not n:
            raise NotInvertibleError(n)
        return self.conj().scale(1 / n)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (
            self.params == other.params
            and self.a1 == other.a1
            and self.a2 == other.a2
            and self.a3 == other.a3
            and self.a4 == other.a4
        )

    def __hash__(self):
        return hash((self.a1, self.a2, self.a3, self.a4, self.params))

    def __bool__(self):
        return bool(self.a1 or self.a2 or self.a3 or self.a4)

    def __str__(self):
        return (
            f"{self.a1} + {self.a2}*e2 + {self.a3}*e3 + {self.a4}*e4"
        )

    def __repr__(self):
        return (
            f"Quaternion({self.a1}, {self.a2}, {self.a3}, {self.a4}; {self.params})"
        )


def basis(params):
    """The four basis elements (1, e2, e3, e4) of the given algebra."""
    zero = Rational(0)
    one = Rational(1)
    return (
        Quaternion._raw(one, zero, zero, zero, params),
        Quaternion._raw(zero, one, zero, zero, params),
        Quaternion._raw(zero, zero, one, zero, params),
        Quaternion._raw(zero, zero, zero, one, params),
    )


def combine(a, b, lam, mu):
    """lam*a + mu*b, the linear structure of the algebra."""
    if a.params != b.params:
        raise AlgebraMismatchError(
            f"cannot combine elements of {a.params} and {b.params}"
        )
    lam = as_rational(lam)
    mu = as_rational(mu)
    return Quaternion._raw(
        lam * a.a1 + mu * b.a1,
        lam * a.a2 + mu * b.a2,
        lam * a.a3 + mu * b.a3,
        lam * a.a4 + mu * b.a4,
        a.params,
    )


def mul(a, b):
    return a * b


def conj(a):
    return a.conj()


def trace(a):
    return a.trace()


def norm(a):
    return a.norm()


def square(a):
    return a.square()


def inverse(a):
    return a.inverse()
