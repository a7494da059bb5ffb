"""Exact arithmetic in the generalized quaternion algebra H(beta1, beta2).

Basis 1, e2, e3, e4 with the defining products

    e2*e2 = -beta1      e3*e3 = -beta2      e4*e4 = -beta1*beta2
    e2*e3 =  e4         e3*e2 = -e4
    e2*e4 = -beta1*e3   e4*e2 =  beta1*e3
    e3*e4 =  beta2*e2   e4*e3 = -beta2*e2

beta1 = beta2 = 1 gives Hamilton's division quaternions; other parameters
may give split algebras with zero divisors.

A quaternion is held as four integer numerators over one positive common
denominator, (x1 + x2*e2 + x3*e3 + x4*e4)/den, reduced so that
gcd(x1, x2, x3, x4, den) == 1.  With beta_i = n_i/d_i, every operation works
on these integers with the betas' denominators cleared too, and reduces its
result once by a single gcd; products, norms and inverses build no Rational
per coefficient.  The coefficients a1..a4 are Rational views built on demand.

All values are immutable and every operation is a pure function, so
everything here is safe to share between threads.
"""

from dataclasses import dataclass, field
from math import gcd, lcm

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
    """The pair (beta1, beta2) fixing one algebra.  Any rationals are allowed.

    ``cleared`` is (n1, d1, n2, d2) with beta_i = n_i/d_i and d_i > 0, the
    integers every cleared product and norm reads; it is derived from the
    betas, so it takes no part in equality, hashing or repr.
    """

    beta1: Rational
    beta2: Rational
    cleared: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b1 = as_rational(self.beta1)
        b2 = as_rational(self.beta2)
        object.__setattr__(self, "beta1", b1)
        object.__setattr__(self, "beta2", b2)
        object.__setattr__(
            self, "cleared", (b1.numerator, b1.denominator, b2.numerator, b2.denominator)
        )

    def __str__(self):
        return f"H({self.beta1}, {self.beta2})"


def cleared_norm(params, x1, x2, x3, x4):
    """d1*d2 * n(x1 + x2*e2 + x3*e3 + x4*e4) for integer x1..x4, as an int.

    With beta1 = n1/d1 and beta2 = n2/d2 this is the integer quadratic form
    d2*(d1*x1^2 + n1*x2^2) + n2*(d1*x3^2 + n1*x4^2).  Denominators are
    positive, so it has the sign of the norm and vanishes exactly with it.
    """
    n1, d1, n2, d2 = params.cleared
    return d2 * (d1 * (x1 * x1) + n1 * (x2 * x2)) + n2 * (d1 * (x3 * x3) + n1 * (x4 * x4))


class Quaternion:
    """a1*1 + a2*e2 + a3*e3 + a4*e4 with exact rational coefficients.

    Stored as (x1, x2, x3, x4, den): a_i = x_i/den with integer x_i, and the
    invariant den > 0 and gcd(x1, x2, x3, x4, den) == 1, so two quaternions
    of one algebra are equal exactly when these tuples are.  ``a1``..``a4``,
    ``coefficients`` and ``scalar_part`` are Rational views of them.

    Instances remember their algebra; mixing algebras in an operation is a
    hard error, never a silent coercion.  Treat instances as immutable.
    """

    __slots__ = ("x1", "x2", "x3", "x4", "den", "params")

    def __init__(self, a1, a2, a3, a4, params):
        """Coefficients may be ints or Rationals.  Four ints are stored as
        they are, over den = 1; otherwise the numerators are put over the
        least common denominator, which leaves no common factor."""
        if type(a1) is int and type(a2) is int and type(a3) is int and type(a4) is int:
            self.x1, self.x2, self.x3, self.x4 = a1, a2, a3, a4
            self.den = 1
        else:
            coefficients = [as_rational(a) for a in (a1, a2, a3, a4)]
            den = lcm(*(c.denominator for c in coefficients))
            self.x1, self.x2, self.x3, self.x4 = (
                c.numerator * (den // c.denominator) for c in coefficients
            )
            self.den = den
        self.params = params

    @classmethod
    def zero(cls, params):
        return _new(0, 0, 0, 0, 1, params)

    @classmethod
    def one(cls, params):
        return _new(1, 0, 0, 0, 1, params)

    @classmethod
    def scalar(cls, value, params):
        value = as_rational(value)
        return _new(value.numerator, 0, 0, 0, value.denominator, params)

    # -- Rational views ----------------------------------------------------

    @property
    def a1(self):
        return Rational(self.x1, self.den)

    @property
    def a2(self):
        return Rational(self.x2, self.den)

    @property
    def a3(self):
        return Rational(self.x3, self.den)

    @property
    def a4(self):
        return Rational(self.x4, self.den)

    @property
    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4)

    @property
    def scalar_part(self):
        return self.a1

    def is_scalar(self):
        return not (self.x2 or self.x3 or self.x4)

    def _require_same_algebra(self, other):
        if self.params is not other.params and self.params != other.params:
            raise AlgebraMismatchError(
                f"cannot combine elements of {self.params} and {other.params}"
            )

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        return _linear(self, 1, 1, other, 1, 1)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        return _linear(self, 1, 1, other, -1, 1)

    def __neg__(self):
        return _new(-self.x1, -self.x2, -self.x3, -self.x4, self.den, self.params)

    def scale(self, k):
        k = as_rational(k)
        top = k.numerator
        return _reduced(
            top * self.x1, top * self.x2, top * self.x3, top * self.x4,
            k.denominator * self.den, self.params,
        )

    def __mul__(self, other):
        """The product table with the betas cleared: numerators over
        d1*d2*den_a*den_b, reduced once."""
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        self._require_same_algebra(other)
        n1, d1, n2, d2 = self.params.cleared
        x1, x2, x3, x4 = self.x1, self.x2, self.x3, self.x4
        y1, y2, y3, y4 = other.x1, other.x2, other.x3, other.x4
        # times d1*d2, the factors 1, beta1, beta2, beta1*beta2 of the table
        # become the integers d1*d2, n1*d2, d1*n2, n1*n2
        dd = d1 * d2
        return _reduced(
            dd * (x1 * y1) - n1 * d2 * (x2 * y2) - d1 * n2 * (x3 * y3) - n1 * n2 * (x4 * y4),
            dd * (x1 * y2 + x2 * y1) + d1 * n2 * (x3 * y4 - x4 * y3),
            dd * (x1 * y3 + x3 * y1) + n1 * d2 * (x4 * y2 - x2 * y4),
            dd * (x1 * y4 + x4 * y1 + x2 * y3 - x3 * y2),
            dd * self.den * other.den,
            self.params,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        return NotImplemented

    # -- involution, trace, norm ------------------------------------------

    def conj(self):
        return _new(self.x1, -self.x2, -self.x3, -self.x4, self.den, self.params)

    def trace(self):
        """2*a1, so that a + conj(a) == trace(a)*1 exactly."""
        return Rational(2 * self.x1, self.den)

    def norm(self):
        """a1^2 + beta1*a2^2 + beta2*a3^2 + beta1*beta2*a4^2, exactly.

        ``cleared_norm`` of the numerators is d1*d2*den^2 * n(a), so one
        reduction over d1*d2*den^2 returns the Rational.
        """
        params = self.params
        den = self.den
        top = cleared_norm(params, self.x1, self.x2, self.x3, self.x4)
        n1, d1, n2, d2 = params.cleared
        return Rational(top, d1 * d2 * den * den)

    def square(self):
        return self * self

    def inverse(self):
        """conj(a)/norm(a); raises NotInvertibleError on zero norm."""
        n = self.norm()
        if not n:
            raise NotInvertibleError(n)
        top = n.numerator
        bottom = n.denominator
        if top < 0:
            top, bottom = -top, -bottom
        return _reduced(
            bottom * self.x1, -bottom * self.x2, -bottom * self.x3, -bottom * self.x4,
            top * self.den, self.params,
        )

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return (
            self.x1 == other.x1
            and self.x2 == other.x2
            and self.x3 == other.x3
            and self.x4 == other.x4
            and self.den == other.den
            and self.params == other.params
        )

    def __hash__(self):
        return hash((self.x1, self.x2, self.x3, self.x4, self.den, self.params))

    def __bool__(self):
        return bool(self.x1 or self.x2 or self.x3 or self.x4)

    def __str__(self):
        return (
            f"{self.a1} + {self.a2}*e2 + {self.a3}*e3 + {self.a4}*e4"
        )

    def __repr__(self):
        return (
            f"Quaternion({self.a1}, {self.a2}, {self.a3}, {self.a4}; {self.params})"
        )


def _new(x1, x2, x3, x4, den, params):
    # internal: (x1, x2, x3, x4, den) is already canonical
    q = object.__new__(Quaternion)
    q.x1 = x1
    q.x2 = x2
    q.x3 = x3
    q.x4 = x4
    q.den = den
    q.params = params
    return q


def _reduced(x1, x2, x3, x4, den, params):
    # internal: den > 0; divides out the one common factor
    g = gcd(x1, x2, x3, x4, den)
    if g != 1:
        return _new(x1 // g, x2 // g, x3 // g, x4 // g, den // g, params)
    return _new(x1, x2, x3, x4, den, params)


def _linear(a, lam_top, lam_bottom, b, mu_top, mu_bottom):
    # (lam_top/lam_bottom)*a + (mu_top/mu_bottom)*b, bottoms positive
    s = lam_top * mu_bottom * b.den
    t = mu_top * lam_bottom * a.den
    return _reduced(
        s * a.x1 + t * b.x1,
        s * a.x2 + t * b.x2,
        s * a.x3 + t * b.x3,
        s * a.x4 + t * b.x4,
        lam_bottom * mu_bottom * a.den * b.den,
        a.params,
    )


def basis(params):
    """The four basis elements (1, e2, e3, e4) of the given algebra."""
    return (
        _new(1, 0, 0, 0, 1, params),
        _new(0, 1, 0, 0, 1, params),
        _new(0, 0, 1, 0, 1, params),
        _new(0, 0, 0, 1, 1, params),
    )


def combine(a, b, lam, mu):
    """lam*a + mu*b, the linear structure of the algebra."""
    if a.params is not b.params and a.params != b.params:
        raise AlgebraMismatchError(
            f"cannot combine elements of {a.params} and {b.params}"
        )
    lam = as_rational(lam)
    mu = as_rational(mu)
    return _linear(a, lam.numerator, lam.denominator, b, mu.numerator, mu.denominator)


# Function forms of the Quaternion operations, kept on purpose: nothing in the
# package calls them, but they are public exports and perfbench/tracer.py
# looks mul, conj, trace, norm, square and inverse up here by name to time
# them.  They can go once the tracer reads counters owned by the library.

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
