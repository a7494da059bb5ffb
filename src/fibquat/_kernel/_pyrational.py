"""Pure-Python rational scalar kernel.

Every coefficient in the package is a ``Rational``: an always-reduced
fraction of arbitrary-precision integers with a positive denominator.
Quaternion arithmetic, norms and closed forms run on cleared integers, so
this class mostly holds views, norms and the betas.
"""

import sys
from math import gcd

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class Rational:
    """Exact fraction.  Invariants: denominator > 0, gcd(|num|, den) == 1."""

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
    # The add/mul gcd shortcuts are the classic ones: pulling common
    # factors out first keeps the intermediate integers small.

    def __add__(self, other):
        if isinstance(other, Rational):
            na, da = self._num, self._den
            nb, db = other._num, other._den
        elif isinstance(other, int):
            return _raw(self._num + other * self._den, self._den)
        else:
            return NotImplemented
        g = gcd(da, db)
        if g == 1:
            return _raw(na * db + nb * da, da * db)
        s = da // g
        t = na * (db // g) + nb * s
        g2 = gcd(t, g)
        if g2 == 1:
            return _raw(t, s * db)
        return _raw(t // g2, s * (db // g2))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rational):
            return self.__add__(_raw(-other._num, other._den))
        if isinstance(other, int):
            return _raw(self._num - other * self._den, self._den)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return _raw(other * self._den - self._num, self._den)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Rational):
            na, da = self._num, self._den
            nb, db = other._num, other._den
        elif isinstance(other, int):
            na, da = self._num, self._den
            nb, db = other, 1
        else:
            return NotImplemented
        g1 = gcd(na, db)
        if g1 > 1:
            na //= g1
            db //= g1
        g2 = gcd(nb, da)
        if g2 > 1:
            nb //= g2
            da //= g2
        return _raw(na * nb, da * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Rational):
            nb, db = other._num, other._den
        elif isinstance(other, int):
            nb, db = other, 1
        else:
            return NotImplemented
        if nb == 0:
            raise ZeroDivisionError("division by zero rational")
        if nb < 0:
            nb, db = -nb, -db
        # reciprocal of a reduced fraction is reduced, so _raw is safe
        return self.__mul__(_raw(db, nb))

    def __rtruediv__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        if self._num == 0:
            raise ZeroDivisionError("division by zero rational")
        return Rational(other * self._den, self._num)

    def __pow__(self, exponent, modulo=None):
        if modulo is not None:
            return NotImplemented
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent >= 0:
            return _raw(self._num**exponent, self._den**exponent)
        if self._num == 0:
            raise ZeroDivisionError("zero to a negative power")
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

    def __lt__(self, other):
        if isinstance(other, Rational):
            return self._num * other._den < other._num * self._den
        if isinstance(other, int):
            return self._num < other * self._den
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, Rational):
            return self._num * other._den <= other._num * self._den
        if isinstance(other, int):
            return self._num <= other * self._den
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, Rational):
            return self._num * other._den > other._num * self._den
        if isinstance(other, int):
            return self._num > other * self._den
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, Rational):
            return self._num * other._den >= other._num * self._den
        if isinstance(other, int):
            return self._num >= other * self._den
        return NotImplemented

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
