"""Pure-Python rational scalar kernel.

Every coefficient in the package is a ``Rational``: an always-reduced
fraction of arbitrary-precision integers with a positive denominator.
Quaternion arithmetic, norms, thresholds and closed forms run on cleared
integers, so this class mostly holds views, norms and the betas: one
``audit --all`` builds 6,539 and compares 4,490 but multiplies 91, and a
grid iteration makes 100,682 ``sign`` calls and 3,362 ``int * Rational``
products.  So the arithmetic is plain: each operator reads its operand by
one rule (``_pair``) and reduces its result by at most one gcd.
"""

import sys
from math import gcd
from operator import ge, gt, le, lt

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _comparison(op):
    # an ordering method: self against a Rational or int operand, cross-multiplied
    def compare(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        return op(self._num * pair[1], pair[0] * self._den)
    return compare


class Rational:
    """Exact fraction.  Invariants: denominator > 0, gcd(|num|, den) == 1.
    An operand is a Rational or an int; any other gets NotImplemented."""

    __slots__ = ("_num", "_den")

    def __init__(self, num=0, den=1):
        if isinstance(num, Rational):
            if den != 1:
                raise ValueError("denominator must be 1 when wrapping a Rational")
            self._num = num._num
            self._den = num._den
            return
        if num.__class__ is not int or den.__class__ is not int:
            if not isinstance(num, int) or not isinstance(den, int):
                raise TypeError("Rational components must be integers")
            num, den = int(num), int(den)  # a bool is stored as 0 or 1
        if den == 0:
            raise ZeroDivisionError("rational with zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        self._num = num
        self._den = den

    @classmethod
    def from_str(cls, text):
        """Parse "a" or "a/b" with arbitrary-precision integer parts."""
        text = text.strip()
        if "/" in text:
            top, _, bottom = text.partition("/")
            return cls(int(top), int(bottom))
        return cls(int(text), 1)

    @property
    def numerator(self):
        return self._num

    @property
    def denominator(self):
        return self._den

    def sign(self):
        """-1, 0 or +1."""
        if self._num > 0:
            return 1
        if self._num < 0:
            return -1
        return 0

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        num, den = pair
        return _reduced(self._num * den + num * self._den, self._den * den)

    __radd__ = __add__

    def __sub__(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        num, den = pair
        return _reduced(self._num * den - num * self._den, self._den * den)

    def __rsub__(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        num, den = pair
        return _reduced(num * self._den - self._num * den, self._den * den)

    def __mul__(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        num, den = pair
        return _reduced(self._num * num, self._den * den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        num, den = pair
        return Rational(self._num * den, self._den * num)

    def __rtruediv__(self, other):
        if (pair := _pair(other)) is None:
            return NotImplemented
        num, den = pair
        return Rational(num * self._den, den * self._num)

    def __pow__(self, exponent, modulo=None):
        if modulo is not None or not isinstance(exponent, int):
            return NotImplemented
        if exponent >= 0:  # powers of coprime integers are coprime
            return _raw(self._num**exponent, self._den**exponent)
        return Rational(self._den ** (-exponent), self._num ** (-exponent))

    def __neg__(self):
        return _raw(-self._num, self._den)

    def __pos__(self):
        return self

    def __abs__(self):
        return _raw(abs(self._num), self._den)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Rational):
            return self._num == other._num and self._den == other._den
        if isinstance(other, int):
            return self._den == 1 and self._num == other
        return NotImplemented

    __lt__ = _comparison(lt)
    __le__ = _comparison(le)
    __gt__ = _comparison(gt)
    __ge__ = _comparison(ge)

    def __hash__(self):
        # same scheme as the stdlib numeric tower, so hash(Rational(k)) == hash(k)
        try:
            dinv = pow(self._den, -1, _HASH_MODULUS)
        except ValueError:
            h = _HASH_INF
        else:
            h = hash(abs(self._num)) * dinv % _HASH_MODULUS
        result = h if self._num >= 0 else -h
        return -2 if result == -1 else result

    def __bool__(self):
        return self._num != 0

    def __float__(self):
        return self._num / self._den

    def __str__(self):
        if self._den == 1:
            return str(self._num)
        return f"{self._num}/{self._den}"

    def __repr__(self):
        return f"Rational({self._num}, {self._den})"


_object_new = object.__new__


def _raw(num, den):
    """The Rational num/den, built without checks: the caller guarantees
    den > 0 and gcd(num, den) == 1."""
    self = _object_new(Rational)
    self._num = num
    self._den = den
    return self


def _pair(x):
    """(numerator, denominator) of a Rational or an int, else None."""
    if isinstance(x, Rational):
        return x._num, x._den
    return (x, 1) if isinstance(x, int) else None


def _reduced(num, den):
    """The Rational num/den in lowest terms, for den > 0: one gcd."""
    g = gcd(num, den)
    return _raw(num // g, den // g)
