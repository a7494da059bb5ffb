"""Exact integer sequences: Fibonacci, generalized Fibonacci, Fibonacci-Narayana,
binomials, figurate sums, and the cow-herd count.

The recurrence sequences share one engine.  Indices with |n| <= TABLE_CAP
come from tables filled by the recurrence (backward for negative n); larger
ones jump there in O(log n) multiplications by powers of the companion matrix
or its inverse.  Every cache is bounded: tables stop at the cap, and the jump
states and gen_fib seed tables are cleared when full.  All of them are guarded
by locks, so concurrent callers always see the same deterministic values.
"""

import math
import threading
from typing import NamedTuple

from .errors import ConsistencyError, DomainError


class GenFibParams(NamedTuple):
    """Seeds (p, q) of the generalized Fibonacci sequence h0 = p, h1 = q."""

    p: int
    q: int


TABLE_CAP = 4096  # largest |n| kept in a recurrence-filled table
JUMP_CACHE_CAP = 16  # largest number of jump states one sequence keeps
JUMP_STEP_LIMIT = 64  # farthest a jump state is walked by the recurrence
GENFIB_CACHE_CAP = 4096  # largest number of (p, q) seed tables kept

# Companion matrix C_k of x_n = x_{n-1} + x_{n-k} and its integer inverse
# (det = +-1).  C_k maps the state (x_{n+k-1}, ..., x_n) to the state at n + 1.
_COMPANIONS = {
    2: ((1, 1), (1, 0)),
    3: ((1, 0, 1), (1, 0, 0), (0, 1, 0)),
}
_INVERSES = {
    2: ((0, 1), (1, -1)),
    3: ((0, 1, 0), (0, 0, 1), (1, -1, 0)),
}


def _mat_mul(a, b):
    return tuple(
        tuple(sum(row[m] * b[m][j] for m in range(len(b))) for j in range(len(b)))
        for row in a
    )


class _Recurrence:
    """x_n = x_{n-1} + x_{n-k} for k = len(seeds), 2 or 3, extended both ways
    from the seeds x_0, ..., x_{k-1}.

    Indices with |n| <= TABLE_CAP are read from lists filled by the recurrence
    (forward, and backward by x_n = x_{n+k} - x_{n+k-1}).  Beyond the cap, the
    value comes from a jump state, k consecutive values (x_b, ..., x_{b+k-1}):
    one within JUMP_STEP_LIMIT of n is walked to n by the recurrence, else the
    state at n is C_k^n applied to the seeds (C_k^-1 for n < 0), by binary
    exponentiation.  At most JUMP_CACHE_CAP states are kept; they are all
    dropped when that many are held.
    """

    def __init__(self, *seeds):
        self._k = len(seeds)
        self._fwd = list(seeds)  # x_0, x_1, ...
        self._bwd = [seeds[0]]   # x_0, x_-1, x_-2, ...
        self._jumps = {}         # b -> (x_b, ..., x_{b+k-1}), |b| > TABLE_CAP
        self._lock = threading.Lock()

    def value(self, n):
        if n >= 0:
            fwd = self._fwd
            if n < len(fwd):
                return fwd[n]
            if n > TABLE_CAP:
                return self._jump(n)
            k = self._k
            with self._lock:
                while n >= len(self._fwd):
                    self._fwd.append(self._fwd[-1] + self._fwd[-k])
            return self._fwd[n]
        m = -n
        bwd = self._bwd
        if m < len(bwd):
            return bwd[m]
        if m > TABLE_CAP:
            return self._jump(n)
        k = self._k
        with self._lock:
            while m >= len(self._bwd):
                i = -len(self._bwd)  # next index to fill
                self._bwd.append(self.value(i + k) - self.value(i + k - 1))
        return self._bwd[m]

    def _jump(self, n):
        with self._lock:
            jumps = self._jumps
            base = min(jumps, key=lambda b: abs(n - b), default=None)
            if base is None or abs(n - base) > JUMP_STEP_LIMIT:
                state = self._power(n)
            else:
                state = jumps.pop(base)
                for _ in range(base, n):
                    state = state[1:] + (state[-1] + state[0],)
                for _ in range(n, base):
                    state = (state[-1] - state[-2],) + state[:-1]
            if len(jumps) >= JUMP_CACHE_CAP:
                jumps.clear()
            jumps[n] = state
        return state[0]

    def _power(self, n):
        """(x_n, ..., x_{n+k-1}) as C_k^n applied to the seeds."""
        k = self._k
        step = _COMPANIONS[k] if n >= 0 else _INVERSES[k]
        power = tuple(tuple(int(i == j) for j in range(k)) for i in range(k))
        for bit in bin(abs(n))[2:]:
            power = _mat_mul(power, power)
            if bit == "1":
                power = _mat_mul(power, step)
        start = self._fwd[k - 1::-1]  # (x_{k-1}, ..., x_0)
        top = tuple(sum(c * s for c, s in zip(row, start)) for row in power)
        return top[::-1]


_fib = _Recurrence(0, 1)
_narayana = _Recurrence(0, 1, 1)

_genfib_caches = {}
_genfib_lock = threading.Lock()


def fib(n):
    """Fibonacci number f_n for any signed n (f_0 = 0, f_1 = 1)."""
    return _fib.value(n)


def gen_fib(pq, n):
    """Generalized Fibonacci number h_n with seeds h_0 = p, h_1 = q.

    Computed from its own seeds (by the recurrence or by powers of its
    companion matrix, never through fib), so it can be checked independently
    against h_{n+1} = p*f_n + q*f_{n+1}.  At most GENFIB_CACHE_CAP seed
    tables are kept; the set is cleared when full.
    """
    p, q = pq
    key = (p, q)
    cache = _genfib_caches.get(key)
    if cache is None:
        with _genfib_lock:
            cache = _genfib_caches.get(key)
            if cache is None:
                if len(_genfib_caches) >= GENFIB_CACHE_CAP:
                    _genfib_caches.clear()
                cache = _genfib_caches[key] = _Recurrence(p, q)
    return cache.value(n)


def narayana(n):
    """Fibonacci-Narayana number u_n for any signed n (u_0, u_1, u_2 = 0, 1, 1)."""
    return _narayana.value(n)


def binom(n, k):
    """Exact binomial coefficient C(n, k) = n!/(k!(n-k)!)."""
    if n < 0 or k < 0:
        raise DomainError(f"binom requires non-negative arguments, got ({n}, {k})")
    if k > n:
        raise DomainError(f"binom requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def figurate(n, m):
    """Figurate sum S_n^(m) = n(n+1)...(n+m) / (m+1)!.

    Equals the m-fold iterated prefix sum of 1..n; the quotient is always
    an integer.
    """
    if n < 1:
        raise DomainError(f"figurate requires n >= 1, got {n}")
    if m < 0:
        raise DomainError(f"figurate requires m >= 0, got {m}")
    num = 1
    for i in range(n, n + m + 1):
        num *= i
    return num // math.factorial(m + 1)


def herd_total(years):
    """Herd size after the given number of years.

    Starts at 2 head (a cow and her heifer); grows by x_n = x_{n-1} + x_{n-3}
    with x_1, x_2, x_3 = 2, 3, 4.  The same count is recomputed through the
    figurate expansion 1 + Y + sum_{j>=1, Y-3j>=1} S^(j)_{Y-3j}; the two
    routes must agree.
    """
    if years < 1:
        raise DomainError(f"herd_total requires years >= 1, got {years}")
    by_recurrence = _herd_recurrence(years)
    by_figurate = 1 + years
    j = 1
    while years - 3 * j >= 1:
        by_figurate += figurate(years - 3 * j, j)
        j += 1
    if by_recurrence != by_figurate:
        raise ConsistencyError(
            f"herd routes disagree at year {years}: "
            f"recurrence {by_recurrence}, figurate {by_figurate}"
        )
    return by_recurrence


_herd = _Recurrence(2, 3, 4)  # indexed from year 1 at position 0


def _herd_recurrence(years):
    return _herd.value(years - 1)
