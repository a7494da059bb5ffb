"""The recurrence engine behind fib, gen_fib and narayana.

Indices past TABLE_CAP take the jump route (powers of t modulo the
characteristic polynomial; a range takes one power at its start, then the
recurrence).  Both routes are held against each other and against references
kept here: fast doubling for f_n, and plain recurrence loops for u_n and h_n.
The bounded-memory tests check that no table or cache grows past its cap.
"""

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import fib, gen_fib, narayana
from fibquat import sequences
from fibquat.sequences import fib_values, gen_fib_values, narayana_values
from fibquat.sequences import GENFIB_CACHE_CAP, TABLE_CAP, _Recurrence

BIG = 10**5


def fib_pair(n):
    """(f_n, f_{n+1}) for n >= 0 by fast doubling."""
    if n == 0:
        return 0, 1
    a, b = fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def fib_ref(n):
    f = fib_pair(abs(n))[0]
    return -f if n < 0 and n % 2 == 0 else f


def loop_run(seeds, n, count=1):
    """x_n, ..., x_{n+count-1} of x_n = x_{n-1} + x_{n-k}, k = len(seeds),
    by a plain loop."""
    window = list(seeds)  # x_i, ..., x_{i+k-1}, starting at i = 0
    for _ in range(n):
        window = window[1:] + [window[-1] + window[0]]
    for _ in range(-n):
        window = [window[-1] - window[-2]] + window[:-1]
    out = []
    for _ in range(count):
        out.append(window[0])
        window = window[1:] + [window[-1] + window[0]]
    return out


def loop_ref(seeds, n):
    return loop_run(seeds, n)[0]


STRADDLE = [s * (TABLE_CAP + d) for s in (1, -1) for d in (-3, -1, 0, 1, 2, 5)]
FAR = [BIG, BIG + 1, BIG + 3, BIG + 65, BIG - 2, 2 * BIG + 3]
FAR += [-n for n in FAR]


@pytest.mark.parametrize("n", STRADDLE + FAR)
def test_fib_matches_fast_doubling(n):
    assert fib(n) == fib_ref(n)


def test_narayana_matches_loop():
    for n in STRADDLE:
        assert narayana(n) == loop_ref((0, 1, 1), n)
    ahead = loop_run((0, 1, 1), BIG, 66)
    assert [narayana(BIG + i) for i in (0, 2, 65, 1)] == [ahead[i] for i in (0, 2, 65, 1)]
    behind = loop_run((0, 1, 1), -BIG - 5, 7)
    assert [narayana(-BIG + i) for i in (0, -5, 1)] == [behind[5 + i] for i in (0, -5, 1)]


@settings(max_examples=25, deadline=None)
@given(p=st.integers(-10**6, 10**6), q=st.integers(-10**6, 10**6),
       n=st.integers(TABLE_CAP - 4, 2 * TABLE_CAP) | st.integers(-2 * TABLE_CAP, -TABLE_CAP + 4))
def test_gen_fib_matches_loop(p, q, n):
    assert gen_fib((p, q), n) == loop_ref((p, q), n)
    assert gen_fib((p, q), n + 1) == loop_ref((p, q), n + 1)


@pytest.mark.parametrize("n", [BIG, -BIG, TABLE_CAP + 1, -TABLE_CAP - 1, 3 * TABLE_CAP + 7,
                               -3 * TABLE_CAP - 7])
def test_gen_fib_far_matches_loop(n):
    assert gen_fib((3, -7), n) == loop_ref((3, -7), n)


@pytest.mark.parametrize("seeds", [(0, 1), (5, -7), (0, 1, 1), (2, 3, 4), (-4, 0, 9),
                                   (1, 0), (1, 0, 0), (0, 0, 1)])  # unit seeds read t^n's coefficients
def test_jump_route_matches_table_route(seeds):
    engine = _Recurrence(*seeds)
    k = len(seeds)
    for n in list(range(-40, 41)) + [TABLE_CAP - k, TABLE_CAP // 2, -TABLE_CAP]:
        assert engine._power(n) == tuple(engine.value(n + i) for i in range(k))


def table_sizes_bounded(engine):
    k = engine._k
    return len(engine._fwd) <= TABLE_CAP + k and len(engine._bwd) <= TABLE_CAP + k


def test_bounded_memory_after_large_indices():
    fib(10**6)
    narayana(-BIG)
    gen_fib((3, -7), BIG)
    engines = [sequences._fib, sequences._narayana, sequences._herd]
    engines += list(sequences._genfib_caches.values())
    assert all(table_sizes_bounded(engine) for engine in engines)
    assert len(sequences._genfib_caches) <= GENFIB_CACHE_CAP


def test_genfib_seed_tables_cleared_when_full(monkeypatch):
    monkeypatch.setattr(sequences, "_genfib_caches", {})
    monkeypatch.setattr(sequences, "GENFIB_CACHE_CAP", 8)
    for p in range(20):
        assert gen_fib((p, 1), 10) == loop_ref((p, 1), 10)
        assert len(sequences._genfib_caches) <= 8


def test_jump_states_shared_by_threads():
    import sys
    import threading

    # the tables of a fresh engine are the only state the threads share; the
    # far reads take powers in between
    engine = _Recurrence(0, 1, 1)
    indices = [TABLE_CAP, -TABLE_CAP, 3, 2000, -9, 5 * TABLE_CAP, 40, -2500, 1, -5 * TABLE_CAP]
    expected = [loop_ref((0, 1, 1), n) for n in indices]
    results = {}

    def worker(tag):
        order = indices[tag % len(indices):] + indices[:tag % len(indices)]
        results[tag] = dict(zip(order, (engine.value(n) for n in order)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(results[i] == dict(zip(indices, expected)) for i in range(8))
    assert table_sizes_bounded(engine)


@pytest.mark.parametrize("start, stop", [
    (0, 0), (0, 54), (-6, 5), (-30, -20), (TABLE_CAP - 3, TABLE_CAP + 4),
    (-TABLE_CAP - 2, -TABLE_CAP + 2), (BIG, BIG + 4), (-BIG - 3, -BIG + 1),
    (BIG, BIG + 200), (-TABLE_CAP - 5, TABLE_CAP + 5),
])
def test_value_ranges_match_single_reads(start, stop):
    assert fib_values(start, stop) == [fib_ref(m) for m in range(start, stop)]
    assert gen_fib_values((3, -7), start, stop) == [gen_fib((3, -7), m) for m in range(start, stop)]
    assert narayana_values(start, stop) == [narayana(m) for m in range(start, stop)]
    fresh = _Recurrence(2, 3, 4)
    assert fresh.values(start, stop) == [fresh.value(m) for m in range(start, stop)]


@settings(max_examples=80)
@given(
    seeds=st.lists(st.integers(-50, 50), min_size=2, max_size=3),
    start=st.sampled_from([-TABLE_CAP - 3, -TABLE_CAP + 2, -40, -3, 0, 5, TABLE_CAP - 6])
    | st.integers(-TABLE_CAP - 4, TABLE_CAP + 4),
    length=st.integers(0, 12),
)
def test_fresh_engine_ranges_match_single_reads(seeds, start, length):
    # the range read comes first, so it fills the tables itself
    stop = start + length
    by_range = _Recurrence(*seeds).values(start, stop)
    by_index = _Recurrence(*seeds)
    assert by_range == [by_index.value(m) for m in range(start, stop)]
    if abs(start) < 100:
        assert by_range == loop_run(seeds, start, length)


def test_value_ranges_are_copies():
    values = fib_values(0, 10)
    values[3] = -1
    assert fib(3) == 2
