"""Scalar kernel: the pure-Python ``Rational``, and ``_raw``, which builds one
from an already reduced pair without checks."""

from ._pyrational import Rational, _raw

KERNEL_BACKEND = "pure-python"

__all__ = ["Rational", "KERNEL_BACKEND"]
