"""Quaternion-valued sequences: F_n, H_n^{p,q} and U_n in any H(beta1, beta2).

Four consecutive sequence values become the coefficients of one quaternion:
F_n = f_n*1 + f_{n+1}*e2 + f_{n+2}*e3 + f_{n+3}*e4, and likewise for the
generalized and Fibonacci-Narayana variants.  All builders accept any signed
index; the scalar sequences extend backward by their own recurrences.  The
values are integers, so each quaternion is built directly over denominator 1,
which is already canonical.  When the engine's forward table already holds
indices n..n+3 (0 <= n and n + 4 <= its length), the four values are read
from it in place; any other window, negative, not yet filled or past the
table's cap (TABLE_CAP, or GENFIB_TABLE_CAP for a seed pair), goes through
the engine's ``values``.
"""

from .algebra import Quaternion, _new, _tuple_new
from .sequences import _fib, _genfib_engine, _narayana


def fib_quat(params, n):
    """Fibonacci quaternion F_n."""
    fwd = _fib._fwd
    if 0 <= n and n + 4 <= len(fwd):
        return _tuple_new(Quaternion, (fwd[n], fwd[n + 1], fwd[n + 2], fwd[n + 3], 1, params))
    x1, x2, x3, x4 = _fib.values(n, n + 4)
    return _new(x1, x2, x3, x4, 1, params)


def gen_fib_quat(params, pq, n):
    """Generalized Fibonacci quaternion H_n^{p,q}."""
    p, q = pq
    engine = _genfib_engine(p, q)
    fwd = engine._fwd
    if 0 <= n and n + 4 <= len(fwd):
        return _tuple_new(Quaternion, (fwd[n], fwd[n + 1], fwd[n + 2], fwd[n + 3], 1, params))
    x1, x2, x3, x4 = engine.values(n, n + 4)
    return _new(x1, x2, x3, x4, 1, params)


def narayana_quat(params, n):
    """Fibonacci-Narayana quaternion U_n."""
    fwd = _narayana._fwd
    if 0 <= n and n + 4 <= len(fwd):
        return _tuple_new(Quaternion, (fwd[n], fwd[n + 1], fwd[n + 2], fwd[n + 3], 1, params))
    x1, x2, x3, x4 = _narayana.values(n, n + 4)
    return _new(x1, x2, x3, x4, 1, params)
