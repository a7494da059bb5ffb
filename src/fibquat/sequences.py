"""Exact integer sequences: Fibonacci, generalized Fibonacci, Fibonacci-Narayana,
binomials, figurate sums, and the cow-herd count.

The recurrence sequences share one engine.  Indices with |n| <= TABLE_CAP
come from tables filled by the recurrence (backward for negative n); larger
ones jump there in O(log n) multiplications, by powers of t modulo the
characteristic polynomial (the companion-matrix power held as k numbers).
Every cache is bounded: tables stop at the cap, and the jump states and
gen_fib seed tables are cleared when full.  All of them are guarded
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

# Residues modulo chi(t) = t^k - t^(k-1) - 1, the characteristic polynomial of
# x_n = x_{n-1} + x_{n-k}, are coefficient lists [c_0, ..., c_{k-1}].  If
# t^n = sum c_i t^i (mod chi) then x_n = sum c_i x_i for every solution, so the
# k numbers of t^n mod chi stand for the k x k companion-matrix power C_k^n.


def _reduce(poly, k):
    # fold degrees >= k down with t^d = t^(d-1) + t^(d-k) (mod chi)
    for d in range(len(poly) - 1, k - 1, -1):
        top = poly[d]
        poly[d - 1] += top
        poly[d - k] += top
    return poly[:k]


def _square(c):
    k = len(c)
    poly = [0] * (2 * k - 1)
    for i, ci in enumerate(c):
        poly[2 * i] += ci * ci
        for j in range(i + 1, k):
            poly[i + j] += (ci * c[j]) << 1
    return _reduce(poly, k)


def _times_t(c):
    return _reduce([0, *c], len(c))


def _over_t(c):
    # c/t, with 1/t = t^(k-1) - t^(k-2) (mod chi)
    low = c[0]
    out = [*c[1:], low]
    out[-2] -= low
    return out


class _Recurrence:
    """x_n = x_{n-1} + x_{n-k} for k = len(seeds), 2 or 3, extended both ways
    from the seeds x_0, ..., x_{k-1}.

    Indices with |n| <= TABLE_CAP are read from lists filled by the recurrence
    (forward, and backward by x_n = x_{n+k} - x_{n+k-1}).  Beyond the cap, the
    value comes from a jump state, k consecutive values (x_b, ..., x_{b+k-1}):
    one within JUMP_STEP_LIMIT of n is walked to n by the recurrence, else the
    state at n comes from t^n modulo the characteristic polynomial, by binary
    exponentiation (k(k+1)/2 big multiplications per squaring).  At most
    JUMP_CACHE_CAP states are kept; they are all dropped when that many are
    held.
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

    def values(self, start, stop):
        """[x_start, ..., x_{stop-1}]: one slice when the forward table holds them."""
        fwd = self._fwd
        if 0 <= start and stop <= len(fwd):
            return fwd[start:stop]
        return [self.value(m) for m in range(start, stop)]

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
        """(x_n, ..., x_{n+k-1}) from t^n modulo the characteristic polynomial."""
        k = self._k
        step = _times_t if n >= 0 else _over_t
        residue = [1] + [0] * (k - 1)
        for bit in bin(abs(n))[2:]:
            residue = _square(residue)
            if bit == "1":
                residue = step(residue)
        seeds = self._fwd[:k]
        state = []
        for _ in range(k):
            state.append(sum(c * x for c, x in zip(residue, seeds)))
            residue = _times_t(residue)
        return tuple(state)


_fib = _Recurrence(0, 1)
_narayana = _Recurrence(0, 1, 1)

_genfib_caches = {}
_genfib_lock = threading.Lock()


def fib(n):
    """Fibonacci number f_n for any signed n (f_0 = 0, f_1 = 1)."""
    return _fib.value(n)


def fib_values(start, stop):
    """[f_start, ..., f_{stop-1}] for any signed start <= stop."""
    return _fib.values(start, stop)


def _genfib_engine(pq):
    p, q = pq
    key = (p, q)
    engine = _genfib_caches.get(key)
    if engine is None:
        with _genfib_lock:
            engine = _genfib_caches.get(key)
            if engine is None:
                if len(_genfib_caches) >= GENFIB_CACHE_CAP:
                    _genfib_caches.clear()
                engine = _genfib_caches[key] = _Recurrence(p, q)
    return engine


def gen_fib(pq, n):
    """Generalized Fibonacci number h_n with seeds h_0 = p, h_1 = q.

    Computed from its own seeds (by the recurrence or by powers of t modulo
    its characteristic polynomial, never through fib), so it can be checked independently
    against h_{n+1} = p*f_n + q*f_{n+1}.  At most GENFIB_CACHE_CAP seed
    tables are kept; the set is cleared when full.
    """
    return _genfib_engine(pq).value(n)


def gen_fib_values(pq, start, stop):
    """[h_start, ..., h_{stop-1}] for seeds (p, q), computed as gen_fib does."""
    return _genfib_engine(pq).values(start, stop)


def narayana(n):
    """Fibonacci-Narayana number u_n for any signed n (u_0, u_1, u_2 = 0, 1, 1)."""
    return _narayana.value(n)


def narayana_values(start, stop):
    """[u_start, ..., u_{stop-1}] for any signed start <= stop."""
    return _narayana.values(start, stop)


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
    by_figurate = _herd_figurate(years)
    if by_recurrence != by_figurate:
        raise ConsistencyError(
            f"herd routes disagree at year {years}: "
            f"recurrence {by_recurrence}, figurate {by_figurate}"
        )
    return by_recurrence


def _herd_figurate(years):
    """1 + Y + sum_{j>=1, Y-3j>=1} T_j, T_j = S^(j)_{Y-3j} = C(Y-2j, j+1), built
    from T_1 = ``figurate(Y-3, 1)`` by the exact ratio T_{j+1} / T_j =
    (Y-3j-1)(Y-3j-2)(Y-3j-3) / ((Y-2j)(Y-2j-1)(j+2)): O(Y) big-integer steps."""
    total = 1 + years
    if years <= 3:
        return total
    term = figurate(years - 3, 1)
    for j in range(1, (years - 1) // 3 + 1):
        total += term
        r = years - 3 * j
        term = term * (r - 1) * (r - 2) * (r - 3) // (
            (years - 2 * j) * (years - 2 * j - 1) * (j + 2)
        )
    return total


_herd = _Recurrence(2, 3, 4)  # indexed from year 1 at position 0


def _herd_recurrence(years):
    return _herd.value(years - 1)
