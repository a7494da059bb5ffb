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
gcd(x1, x2, x3, x4, den) == 1, and an algebra as the tuple (n1, d1, n2, d2)
with beta_i = n_i/d_i in lowest terms.  Every operation works on these
integers and reduces its result once by a single gcd; products, norms and
inverses build no Rational per coefficient.  A result over den = 1, such as
a sum of integer quaternions or an integer multiple of one, is reduced
already and takes no gcd.  a1..a4, beta1 and beta2 are Rational views.

All values are immutable and every operation is a pure function, so
everything here is safe to share between threads.
"""

from math import gcd, lcm
from operator import itemgetter

from ._kernel import Rational, _raw
from .errors import AlgebraMismatchError, NotInvertibleError, _shown


def as_rational(x):
    """Coerce an int (or Rational) to Rational."""
    if isinstance(x, Rational):
        return x
    if x.__class__ is int:  # n/1 is already reduced; a bool goes through Rational
        return _raw(x, 1)
    return Rational(x)


_tuple_new = tuple.__new__


class _FieldTuple(tuple):
    """A value held as the tuple of its canonical (lowest-terms) fields: equal
    only to a value of its own type with the same fields, hashed as the tuple,
    not ordered, and copied or pickled field for field.  It is still a tuple:
    len, indexing, ``in`` and iteration see the fields, and ``(1,) + value``
    concatenates into a plain tuple."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def _unordered(self, other):
        raise TypeError(f"{self.__class__.__name__} values are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self):
        return tuple.__new__, (self.__class__, tuple(self))


class AlgebraParams(_FieldTuple):
    """The pair (beta1, beta2) fixing one algebra.  Any rationals are allowed.

    Stored as the tuple (n1, d1, n2, d2) with beta_i = n_i/d_i in lowest terms
    and d_i > 0, which every cleared product and norm reads; ``beta1`` and
    ``beta2`` are Rational views of it, and ``cleared`` is the plain tuple.
    """

    __slots__ = ()

    def __new__(cls, beta1, beta2):
        b1 = as_rational(beta1)
        b2 = as_rational(beta2)
        return _tuple_new(cls, (b1.numerator, b1.denominator, b2.numerator, b2.denominator))

    @property
    def beta1(self):
        return _raw(self[0], self[1])

    @property
    def beta2(self):
        return _raw(self[2], self[3])

    cleared = property(tuple)

    def __repr__(self):
        return f"AlgebraParams(beta1={self.beta1!r}, beta2={self.beta2!r})"

    def __str__(self):
        # each beta as Rational.__str__ renders it, from the stored integers
        n1, d1, n2, d2 = self
        beta1 = f"{n1}" if d1 == 1 else f"{n1}/{d1}"
        beta2 = f"{n2}" if d2 == 1 else f"{n2}/{d2}"
        return f"H({beta1}, {beta2})"


def _integer_params(n1, d1, n2, d2):
    """The algebra H(n1/d1, n2/d2) from ints with d1, d2 > 0: each beta
    reduced by one gcd into the canonical fields, with no Rational built."""
    g1 = gcd(n1, d1)
    g2 = gcd(n2, d2)
    return _tuple_new(AlgebraParams, (n1 // g1, d1 // g1, n2 // g2, d2 // g2))


class Quaternion(_FieldTuple):
    """a1*1 + a2*e2 + a3*e3 + a4*e4 with exact rational coefficients.

    Stored as the tuple (x1, x2, x3, x4, den, params): a_i = x_i/den with
    integer x_i, and the invariant den > 0 and gcd(x1, x2, x3, x4, den) == 1,
    so two quaternions are equal exactly when these tuples are.  ``a1``..``a4``,
    ``coefficients`` and ``scalar_part`` are Rational views of them.

    Instances remember their algebra; mixing algebras in an operation is a
    hard error, never a silent coercion.  A quaternion is immutable, and as
    a tuple it is also the sequence of those six fields.
    """

    __slots__ = ()

    def __new__(cls, a1, a2, a3, a4, params):
        """Coefficients may be ints or Rationals.  Four ints are stored as
        they are, over den = 1; otherwise the numerators are put over the
        least common denominator, which leaves no common factor."""
        if type(a1) is int and type(a2) is int and type(a3) is int and type(a4) is int:
            return _new(a1, a2, a3, a4, 1, params)
        coefficients = [as_rational(a) for a in (a1, a2, a3, a4)]
        den = lcm(*(c.denominator for c in coefficients))
        x1, x2, x3, x4 = (c.numerator * (den // c.denominator) for c in coefficients)
        return _new(x1, x2, x3, x4, den, params)

    x1 = property(itemgetter(0))
    x2 = property(itemgetter(1))
    x3 = property(itemgetter(2))
    x4 = property(itemgetter(3))
    den = property(itemgetter(4))
    params = property(itemgetter(5))

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

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return _linear(self, 1, 1, other, 1, 1)

    def __sub__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return _linear(self, 1, 1, other, -1, 1)

    def __neg__(self):
        x1, x2, x3, x4, den, params = self
        return _new(-x1, -x2, -x3, -x4, den, params)

    def scale(self, k):
        x1, x2, x3, x4, den, params = self
        if type(k) is int:  # k/1: the denominator stays den
            return _reduced(k * x1, k * x2, k * x3, k * x4, den, params)
        k = as_rational(k)
        top = k.numerator
        return _reduced(top * x1, top * x2, top * x3, top * x4, k.denominator * den, params)

    def __mul__(self, other):
        """The product table with the betas cleared: numerators over
        d1*d2*den_a*den_b, reduced once."""
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        if not isinstance(other, Quaternion):
            return NotImplemented
        x1, x2, x3, x4, den_a, params = self
        y1, y2, y3, y4, den_b, other_params = other
        _require_same_algebra(params, other_params)
        n1, d1, n2, d2 = params
        # times d1*d2, the factors 1, beta1, beta2, beta1*beta2 of the table
        # become the integers d1*d2, n1*d2, d1*n2, n1*n2
        dd = d1 * d2
        return _reduced(
            dd * (x1 * y1) - n1 * d2 * (x2 * y2) - d1 * n2 * (x3 * y3) - n1 * n2 * (x4 * y4),
            dd * (x1 * y2 + x2 * y1) + d1 * n2 * (x3 * y4 - x4 * y3),
            dd * (x1 * y3 + x3 * y1) + n1 * d2 * (x4 * y2 - x2 * y4),
            dd * (x1 * y4 + x4 * y1 + x2 * y3 - x3 * y2),
            dd * den_a * den_b,
            params,
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Rational)):
            return self.scale(other)
        return NotImplemented

    # -- involution, trace, norm ------------------------------------------

    def conj(self):
        x1, x2, x3, x4, den, params = self
        return _new(x1, -x2, -x3, -x4, den, params)

    def trace(self):
        """2*a1, so that a + conj(a) == trace(a)*1 exactly."""
        return Rational(2 * self.x1, self.den)

    def norm(self):
        """a1^2 + beta1*a2^2 + beta2*a3^2 + beta1*beta2*a4^2, exactly.

        With beta1 = n1/d1 and beta2 = n2/d2, the integer quadratic form
        d2*(d1*x1^2 + n1*x2^2) + n2*(d1*x3^2 + n1*x4^2) of the numerators is
        d1*d2*den^2 * n(a).  Denominators are positive, so it has the sign of
        the norm and vanishes exactly with it, and one gcd against
        d1*d2*den^2 gives the reduced Rational.
        """
        x1, x2, x3, x4, den, params = self
        n1, d1, n2, d2 = params
        top = d2 * (d1 * (x1 * x1) + n1 * (x2 * x2)) + n2 * (d1 * (x3 * x3) + n1 * (x4 * x4))
        bottom = d1 * d2
        if den != 1:
            bottom *= den * den
        if bottom == 1:
            return _raw(top, 1)
        g = gcd(top, bottom)
        if g != 1:
            return _raw(top // g, bottom // g)
        return _raw(top, bottom)

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
        x1, x2, x3, x4, den, params = self
        return _reduced(
            bottom * x1, -bottom * x2, -bottom * x3, -bottom * x4, top * den, params
        )

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
    return _tuple_new(Quaternion, (x1, x2, x3, x4, den, params))


def _reduced(x1, x2, x3, x4, den, params):
    # internal: den > 0; divides out the one common factor, which over
    # den = 1 (every integer quaternion) is 1 without a gcd
    if den != 1:
        g = gcd(x1, x2, x3, x4, den)
        if g != 1:
            x1, x2, x3, x4, den = x1 // g, x2 // g, x3 // g, x4 // g, den // g
    return _tuple_new(Quaternion, (x1, x2, x3, x4, den, params))


def _require_same_algebra(p, q):
    if p is not q and p != q:
        raise AlgebraMismatchError(f"cannot combine elements of {_shown(p)} and {_shown(q)}")


def _linear(a, lam_top, lam_bottom, b, mu_top, mu_bottom):
    # (lam_top/lam_bottom)*a + (mu_top/mu_bottom)*b, bottoms positive
    x1, x2, x3, x4, den_a, params = a
    y1, y2, y3, y4, den_b, other_params = b
    _require_same_algebra(params, other_params)
    s = lam_top * mu_bottom * den_b
    t = mu_top * lam_bottom * den_a
    return _reduced(
        s * x1 + t * y1,
        s * x2 + t * y2,
        s * x3 + t * y3,
        s * x4 + t * y4,
        lam_bottom * mu_bottom * den_a * den_b,
        params,
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
