"""Scalar kernel: the pure-Python ``Rational``."""

from ._pyrational import Rational

KERNEL_BACKEND = "pure-python"

__all__ = ["Rational", "KERNEL_BACKEND"]
