"""Scalar kernel: the pure-Python ``Rational``; ``_raw``, which builds one
from an already reduced pair without checks; and ``_reduced``, which reduces
a pair over a positive denominator by one gcd."""

from ._pyrational import Rational, _raw, _reduced

KERNEL_BACKEND = "pure-python"

__all__ = ["Rational", "KERNEL_BACKEND"]
