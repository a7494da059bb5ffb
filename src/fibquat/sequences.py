"""Exact integer sequences: Fibonacci, generalized Fibonacci, Fibonacci-Narayana,
binomials, figurate sums, and the cow-herd count.

The recurrence sequences share one engine, with one table per recurrence; the
cow-herd count is the Narayana sequence shifted by three and is read from its
table.  Indices up to an engine's cap, |n| <= TABLE_CAP for f_n and u_n and
|n| <= GENFIB_TABLE_CAP for each (p, q) seed pair, come from tables filled by
the recurrence (backward for negative n); a larger one comes from one power
of t modulo the characteristic polynomial t^k - t^(k-1) - 1 (O(log n)
multiplications in the residue ring of ``surd``, the companion-matrix power
held as k numbers), and a range past the tables from one such power at its
start, then the recurrence forward.  Every forward extension is one walk
that carries the running value, x_{i+k} = x_{i+k-1} + x_i, so each step
reads one earlier entry.  Each engine keeps one run, the last 3k values of
its last such range [start, stop), and a range that starts in
[stop - 2k, stop] continues it instead, so a run of windows or of the
builders' overlapping reads takes one power.  Every route gives the same
values.
Every cache is bounded, in memory as well as in count: tables stop at their
engine's cap, and at most GENFIB_CACHE_CAP gen_fib seed engines are kept, the
least recently used dropped first.  ``fib``, ``narayana`` and the builders
in ``quatseq`` read a filled forward table directly.  Tables fill under a
lock per engine, so concurrent callers always see the same deterministic
values.
"""

import functools
import math
import threading
from typing import NamedTuple

from .errors import ConsistencyError, DomainError, _shown
from .surd import t_power


class GenFibParams(NamedTuple):
    """Seeds (p, q) of the generalized Fibonacci sequence h0 = p, h1 = q."""

    p: int
    q: int


TABLE_CAP = 4096  # largest |n| kept in the f_n and u_n tables
# largest |n| kept in one (p, q) seed table: it bounds each seed engine to
# about 0.06 MB, while every index the audit reads (h up to 201) stays tabled
GENFIB_TABLE_CAP = 512
GENFIB_CACHE_CAP = 4096  # largest number of (p, q) seed engines kept


def _walk(xs, k, size):
    """Extend ``xs``, k or more consecutive values of a recurrence of order k,
    to ``size`` values by one forward walk that carries the running value:
    x_{i+k} = x_{i+k-1} + x_i, so each step reads one earlier entry."""
    last = xs[-1]
    append = xs.append
    for i in range(len(xs) - k, size - k):
        last += xs[i]
        append(last)


class _Recurrence:
    """x_n = x_{n-1} + x_{n-k} for k = len(seeds), 2 or 3, extended both ways
    from the seeds x_0, ..., x_{k-1}.

    Indices with |n| <= cap are read from lists filled by the recurrence
    (forward, and backward by x_n = x_{n+k} - x_{n+k-1}); a range of them is
    sliced from those lists.  Beyond the cap, x_n comes from t^n modulo the
    characteristic polynomial, by binary exponentiation (k(k+1)/2 big
    multiplications per squaring).  A range [start, stop) past the cap runs
    the recurrence forward from its start through x_{stop+k-1} and keeps the
    last 3k values of that run, x_{stop-2k} .. x_{stop+k-1} (fewer when the
    range is shorter).  The next range past the cap continues the kept run
    when it starts in [stop - 2k, stop], and else takes one power: so the
    quaternion builders' [n, n+4) after [n-1, n+3) continues, as do
    consecutive windows.  Every forward extension, of the table, of such a
    run and of the seeds for a power, is one ``_walk`` that carries the
    running value.
    """

    def __init__(self, *seeds, cap=TABLE_CAP):
        k = self._k = len(seeds)
        self._cap = cap
        self._fwd = list(seeds)  # x_0, x_1, ...
        # x_0, x_-1, x_-2, ...: x_-1 .. x_-(k-1) come from the seeds alone,
        # x_{i-k} = x_i - x_{i-1} for i = k-1 down to 1
        bwd = self._bwd = [seeds[0]]
        for i in range(k - 1, 0, -1):
            bwd.append(seeds[i] - seeds[i - 1])
        # (i, (x_i, x_{i+1}, ...)): the kept run of the last range past the cap
        self._resume = (0, ())
        self._lock = threading.Lock()

    def _forward(self, size):
        """The forward table, filled to at least ``size`` entries."""
        fwd = self._fwd
        if len(fwd) < size:
            with self._lock:  # the walk reads its running value under the lock
                _walk(fwd, self._k, size)
        return fwd

    def _backward(self, size):
        """The backward table, filled to at least ``size`` entries."""
        bwd = self._bwd
        if len(bwd) < size:
            k = self._k
            with self._lock:
                append = bwd.append
                for i in range(len(bwd), size):  # x_-i = x_{-i+k} - x_{-i+k-1}
                    append(bwd[i - k] - bwd[i - k + 1])
        return bwd

    def value(self, n):
        return self.values(n, n + 1)[0]

    def values(self, start, stop):
        """[x_start, ..., x_{stop-1}]: table slices when every index is within
        the cap, else the state at start from the kept run or by one power,
        then the recurrence."""
        fwd = self._fwd
        if 0 <= start and stop <= len(fwd):
            return fwd[start:stop]
        cap = self._cap
        if start < -cap or stop > cap + 1:
            k = self._k
            length = max(0, stop - start)
            base, tail = self._resume
            if base <= start <= base + len(tail) - k:
                run = list(tail[start - base:])
            else:
                run = list(self._power(start))
            _walk(run, k, length + k)  # through x_{stop+k-1}
            keep = max(0, length - 2 * k)
            self._resume = (start + keep, tuple(run[keep:length + k]))
            return run[:length]
        if start >= 0:
            return self._forward(stop)[start:stop]
        # bwd[j] = x_-j, so x_start .. x_min(stop, 0)-1 is a slice stepping down
        bwd = self._backward(1 - start)
        if stop <= 0:
            return bwd[-start:-stop:-1]
        return bwd[-start:0:-1] + self._forward(stop)[:stop]

    def _power(self, n):
        """(x_n, ..., x_{n+k-1}) from t^n modulo the characteristic polynomial."""
        k = self._k
        residue = t_power(k, n)
        xs = self._fwd[:k]
        _walk(xs, k, 2 * k - 1)  # extend the seeds to x_0, ..., x_{2k-2}
        # t^(n+j) = sum c_i t^(i+j), so x_{n+j} = sum c_i x_{i+j}
        return tuple(sum(c * x for c, x in zip(residue, xs[j:])) for j in range(k))


_fib = _Recurrence(0, 1)
_narayana = _Recurrence(0, 1, 1)


def _integer_seeds(p, q):
    """[p, q] as ints by the seed rule of ``gen_fib``."""
    if p.__class__ is not int or q.__class__ is not int:
        seeds = [int(x) if isinstance(x, float) and x.is_integer() else x for x in (p, q)]
        if any(getattr(x, "denominator", None) != 1 for x in seeds):  # nan, inf, 1.5, 1/2
            raise DomainError(f"gen_fib seeds must be integers, got ({_shown(p)}, {_shown(q)})")
        p, q = (int(x.numerator) for x in seeds)  # a numpy integer's numerator is itself
    return [p, q]


@functools.lru_cache(maxsize=GENFIB_CACHE_CAP)
def _genfib_engine(p, q):
    """The engine of one (p, q) seed pair, its tables bounded by
    GENFIB_TABLE_CAP, on int seeds: a key equal to (1, 1), such as (1.0, 1.0),
    builds on a miss the engine it finds on a hit.  Two threads racing on a
    fresh seed may each build one, and both fill it identically."""
    return _Recurrence(*_integer_seeds(p, q), cap=GENFIB_TABLE_CAP)


def fib(n):
    """Fibonacci number f_n for any signed n (f_0 = 0, f_1 = 1).

    Past TABLE_CAP a call takes one power unless it continues the engine's
    last read past the cap, starting in [stop - 4, stop] of that read:
    consecutive calls take one power in all.
    """
    fwd = _fib._fwd
    if 0 <= n < len(fwd):
        return fwd[n]
    return _fib.value(n)


def fib_values(start, stop):
    """[f_start, ..., f_{stop-1}] for any signed start <= stop."""
    return _fib.values(start, stop)


def gen_fib(pq, n):
    """Generalized Fibonacci number h_n with seeds h_0 = p, h_1 = q.

    Computed from its own seeds, never through fib, so it can be checked
    against h_{n+1} = p*f_n + q*f_{n+1}.  At most GENFIB_CACHE_CAP seed
    engines are kept, the least recently used dropped first, each tabling
    |n| <= GENFIB_TABLE_CAP, past which consecutive calls take one power in
    all, as ``fib`` does.  A seed equal to an integer (an int or bool, an
    integral float, a Rational or Fraction over 1) is read as that int, and
    any other seed, nan and inf included, raises DomainError.
    """
    p, q = pq  # a seed tuple of any other length raises here
    return _genfib_engine(p, q).value(n)


def gen_fib_values(pq, start, stop):
    """[h_start, ..., h_{stop-1}] for seeds (p, q), computed as gen_fib does."""
    p, q = pq
    return _genfib_engine(p, q).values(start, stop)


def narayana(n):
    """Fibonacci-Narayana number u_n for any signed n (u_0, u_1, u_2 = 0, 1, 1).

    Past TABLE_CAP a call takes one power unless it continues the engine's
    last read past the cap, starting in [stop - 6, stop] of that read:
    consecutive calls take one power in all.
    """
    fwd = _narayana._fwd
    if 0 <= n < len(fwd):
        return fwd[n]
    return _narayana.value(n)


def narayana_values(start, stop):
    """[u_start, ..., u_{stop-1}] for any signed start <= stop."""
    return _narayana.values(start, stop)


def binom(n, k):
    """Exact binomial coefficient C(n, k) = n!/(k!(n-k)!)."""
    if n < 0 or k < 0:
        raise DomainError(f"binom requires non-negative arguments, got ({_shown(n)}, {_shown(k)})")
    if k > n:
        raise DomainError(f"binom requires k <= n, got ({_shown(n)}, {_shown(k)})")
    return math.comb(n, k)


def figurate(n, m):
    """Figurate sum S_n^(m) = n(n+1)...(n+m) / (m+1)! = C(n+m, m+1).

    Equals the m-fold iterated prefix sum of 1..n.
    """
    if n < 1:
        raise DomainError(f"figurate requires n >= 1, got {_shown(n)}")
    if m < 0:
        raise DomainError(f"figurate requires m >= 0, got {_shown(m)}")
    return math.comb(n + m, m + 1)


def herd_total(years):
    """Herd size after the given number of years.

    Starts at 2 head (a cow and her heifer); grows by x_n = x_{n-1} + x_{n-3}
    with x_1, x_2, x_3 = 2, 3, 4 = u_4, u_5, u_6, so x_Y = u_{Y+3} is read from
    the Narayana table (one power past it).  The same count is recomputed
    through the figurate expansion 1 + Y + sum_{j>=1, Y-3j>=1} S^(j)_{Y-3j};
    the two routes must agree.
    """
    if years < 1:
        raise DomainError(f"herd_total requires years >= 1, got {_shown(years)}")
    by_recurrence = narayana(years + 3)
    by_figurate = _herd_figurate(years)
    if by_recurrence != by_figurate:
        raise ConsistencyError(
            f"herd routes disagree at year {_shown(years)}: "
            f"recurrence {_shown(by_recurrence)}, figurate {_shown(by_figurate)}"
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
