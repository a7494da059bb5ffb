"""Quaternion-valued sequences: F_n, H_n^{p,q} and U_n in any H(beta1, beta2).

Four consecutive sequence values become the coefficients of one quaternion:
F_n = f_n*1 + f_{n+1}*e2 + f_{n+2}*e3 + f_{n+3}*e4, and likewise for the
generalized and Fibonacci-Narayana variants.  All builders accept any signed
index; the scalar sequences extend backward by their own recurrences.  The
values are integers, so each quaternion is built directly over denominator 1,
which is already canonical.
"""

from .algebra import _new
from .sequences import fib_values, gen_fib_values, narayana_values


def fib_quat(params, n):
    """Fibonacci quaternion F_n."""
    x1, x2, x3, x4 = fib_values(n, n + 4)
    return _new(x1, x2, x3, x4, 1, params)


def gen_fib_quat(params, pq, n):
    """Generalized Fibonacci quaternion H_n^{p,q}."""
    x1, x2, x3, x4 = gen_fib_values(pq, n, n + 4)
    return _new(x1, x2, x3, x4, 1, params)


def narayana_quat(params, n):
    """Fibonacci-Narayana quaternion U_n."""
    x1, x2, x3, x4 = narayana_values(n, n + 4)
    return _new(x1, x2, x3, x4, 1, params)
