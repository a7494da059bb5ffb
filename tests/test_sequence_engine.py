"""The recurrence engine behind fib, gen_fib and narayana.

Indices past TABLE_CAP take the jump route (powers of t modulo the
characteristic polynomial; a range takes one power at its start, then the
recurrence).  Both routes are held against each other and against two
references: fast doubling for f_n, kept here, and ``sequence_oracle.walk``
for u_n and h_n.  The bounded-memory tests check that no table or cache
grows past its cap, and that a gen_fib seed engine stays small.
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import AlgebraParams, fib, fib_quat, gen_fib, gen_fib_quat, herd_total, narayana
from fibquat import sequences
from fibquat.sequences import fib_values, gen_fib_values, narayana_values
from fibquat.sequences import (
    GENFIB_CACHE_CAP,
    GENFIB_TABLE_CAP,
    TABLE_CAP,
    _Recurrence,
    _herd_figurate,
)
from sequence_oracle import walk

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


STRADDLE = [s * (TABLE_CAP + d) for s in (1, -1) for d in (-3, -1, 0, 1, 2, 5)]
FAR = [BIG, BIG + 1, BIG + 3, BIG + 65, BIG - 2, 2 * BIG + 3]
FAR += [-n for n in FAR]


@pytest.mark.parametrize("n", STRADDLE + FAR)
def test_fib_matches_fast_doubling(n):
    assert fib(n) == fib_ref(n)


def test_narayana_matches_loop():
    for n in STRADDLE:
        assert [narayana(n)] == walk((0, 1, 1), n, n + 1)
    ahead = walk((0, 1, 1), BIG, BIG + 66)
    assert [narayana(BIG + i) for i in (0, 2, 65, 1)] == [ahead[i] for i in (0, 2, 65, 1)]
    behind = walk((0, 1, 1), -BIG - 5, -BIG + 2)
    assert [narayana(-BIG + i) for i in (0, -5, 1)] == [behind[5 + i] for i in (0, -5, 1)]


@settings(max_examples=25, deadline=None)
@given(p=st.integers(-10**6, 10**6), q=st.integers(-10**6, 10**6),
       n=st.integers(TABLE_CAP - 4, 2 * TABLE_CAP) | st.integers(-2 * TABLE_CAP, -TABLE_CAP + 4))
def test_gen_fib_matches_loop(p, q, n):
    xs = walk((p, q), n, n + 2)
    assert gen_fib((p, q), n) == xs[0]
    assert gen_fib((p, q), n + 1) == xs[1]


@pytest.mark.parametrize("n", [BIG, -BIG, TABLE_CAP + 1, -TABLE_CAP - 1, 3 * TABLE_CAP + 7,
                               -3 * TABLE_CAP - 7])
def test_gen_fib_far_matches_loop(n):
    assert [gen_fib((3, -7), n)] == walk((3, -7), n, n + 1)


@pytest.mark.parametrize("seeds", [(0, 1), (5, -7), (0, 1, 1), (2, 3, 4), (-4, 0, 9),
                                   (1, 0), (1, 0, 0), (0, 0, 1)])  # unit seeds read t^n's coefficients
def test_jump_route_matches_table_route(seeds):
    engine = _Recurrence(*seeds)
    k = len(seeds)
    for n in list(range(-40, 41)) + [TABLE_CAP - k, TABLE_CAP // 2, -TABLE_CAP]:
        assert engine._power(n) == tuple(engine.value(n + i) for i in range(k))


def table_sizes_bounded(engine):
    bound = engine._cap + engine._k
    return len(engine._fwd) <= bound and len(engine._bwd) <= bound


def test_indices_within_cap_are_tabled():
    # |n| <= TABLE_CAP is read from the tables, which then end at that index;
    # one step past the cap takes a power and keeps nothing
    engine = _Recurrence(0, 1, 1)
    for edge in (TABLE_CAP, TABLE_CAP + 1):
        assert [engine.value(edge), engine.value(-edge)] == (
            walk((0, 1, 1), edge, edge + 1) + walk((0, 1, 1), -edge, -edge + 1))
        assert len(engine._fwd) == len(engine._bwd) == TABLE_CAP + 1


def test_bounded_memory_after_large_indices():
    fib(10**6)
    narayana(-BIG)
    assert [gen_fib((3, -7), BIG)] == walk((3, -7), BIG, BIG + 1)
    engines = [sequences._fib, sequences._narayana, sequences._genfib_engine(3, -7)]
    assert all(table_sizes_bounded(engine) for engine in engines)
    info = sequences._genfib_engine.cache_info()
    assert info.maxsize == GENFIB_CACHE_CAP and info.currsize <= GENFIB_CACHE_CAP


def test_genfib_seed_tables_end_at_their_cap():
    # a seed engine tables |n| <= GENFIB_TABLE_CAP; reads past it, as far as
    # TABLE_CAP and beyond, take a power and keep nothing
    sequences._genfib_engine.cache_clear()
    engine = sequences._genfib_engine(5, -2)
    assert engine._cap == GENFIB_TABLE_CAP < TABLE_CAP
    for n in (GENFIB_TABLE_CAP, GENFIB_TABLE_CAP + 1, TABLE_CAP, TABLE_CAP + 1, 3 * TABLE_CAP + 7):
        assert [gen_fib((5, -2), n), gen_fib((5, -2), -n)] == (
            walk((5, -2), n, n + 1) + walk((5, -2), -n, -n + 1))
        assert len(engine._fwd) == len(engine._bwd) == GENFIB_TABLE_CAP + 1
    assert gen_fib_values((5, -2), GENFIB_TABLE_CAP - 2, GENFIB_TABLE_CAP + 3) == walk(
        (5, -2), GENFIB_TABLE_CAP - 2, GENFIB_TABLE_CAP + 3)
    assert len(engine._fwd) == GENFIB_TABLE_CAP + 1


def test_genfib_seed_engine_memory():
    # 20 seed engines, each read at +-TABLE_CAP and filled to +-GENFIB_TABLE_CAP,
    # hold at most 0.1 MB apiece
    sequences._genfib_engine.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for p in range(20):
            for n in (TABLE_CAP, -TABLE_CAP, GENFIB_TABLE_CAP, -GENFIB_TABLE_CAP):
                gen_fib((p, 1), n)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sequences._genfib_engine.cache_info().currsize == 20
    assert held / 20 <= 0.1 * 2**20


def test_genfib_seed_engines_bounded():
    sequences._genfib_engine.cache_clear()
    for p in range(GENFIB_CACHE_CAP + 10):
        assert [gen_fib((p, 1), 10)] == walk((p, 1), 10, 11)
    info = sequences._genfib_engine.cache_info()
    assert info.currsize == info.maxsize == GENFIB_CACHE_CAP
    assert info.misses == GENFIB_CACHE_CAP + 10


def test_reread_seed_keeps_its_engine():
    # the least recently used engine goes first, so a seed read between the
    # fills of GENFIB_CACHE_CAP + 10 others is never dropped
    sequences._genfib_engine.cache_clear()
    kept = sequences._genfib_engine(7, -3)
    for p in range(GENFIB_CACHE_CAP + 10):
        assert [gen_fib((p, 1), 3)] == walk((p, 1), 3, 4)
        assert [gen_fib((7, -3), 5)] == walk((7, -3), 5, 6)
    assert sequences._genfib_engine(7, -3) is kept


@pytest.mark.parametrize("seeds", [(1,), (1, 2, 3)])
def test_gen_fib_takes_exactly_two_seeds(seeds):
    with pytest.raises(ValueError):
        gen_fib(seeds, 5)
    with pytest.raises(ValueError):
        gen_fib_values(seeds, 0, 3)


def test_herd_reads_shifted_narayana_across_cap():
    herd = walk((2, 3, 4), 0, TABLE_CAP + 5)  # x_1, x_2, ... from position 0
    for year in list(range(1, 301)) + list(range(TABLE_CAP - 5, TABLE_CAP + 6)):
        assert herd_total(year) == narayana(year + 3) == _herd_figurate(year) == herd[year - 1]


@pytest.mark.parametrize("seeds, cap, indices", [
    ((0, 1, 1), TABLE_CAP,
     [TABLE_CAP, -TABLE_CAP, 3, 2000, -9, 5 * TABLE_CAP, 40, -2500, 1, -5 * TABLE_CAP]),
    # a gen_fib seed engine: its k = 2 fill carries a running value under the lock
    ((1031, -1033), GENFIB_TABLE_CAP,
     [GENFIB_TABLE_CAP, -GENFIB_TABLE_CAP, 3, 250, -9, 5 * GENFIB_TABLE_CAP, 40, -300, 1,
      -5 * GENFIB_TABLE_CAP]),
], ids=["narayana", "gen_fib"])
def test_jump_states_shared_by_threads(seeds, cap, indices):
    import sys
    import threading

    # the tables of a fresh engine are the only state the threads share; the
    # far reads take powers in between
    engine = _Recurrence(*seeds, cap=cap)
    expected = [walk(seeds, n, n + 1)[0] for n in indices]
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
        assert by_range == walk(seeds, start, stop)


def test_value_ranges_are_copies():
    values = fib_values(0, 10)
    values[3] = -1
    assert fib(3) == 2


def test_builder_loops_past_the_cap_reuse_the_kept_ends(monkeypatch, powers):
    # consecutive single reads, and the builders' [n, n+4) after [n-1, n+3),
    # continue the run the engine keeps instead of taking a power each
    for engine in (sequences._fib, sequences._narayana, sequences._genfib_engine(1039, 1049)):
        monkeypatch.setattr(engine, "_resume", (0, ()))  # forget earlier reads
    for name, read, seeds, start in (
        ("fib", fib, (0, 1), 5000),
        ("narayana", narayana, (0, 1, 1), 5000),
        ("gen_fib", lambda n: gen_fib((1031, -1033), n), (1031, -1033), 600),
    ):
        powers.clear()
        assert [read(n) for n in range(start, start + 100)] == walk(seeds, start, start + 100), name
        assert powers == [start], name
    params = AlgebraParams(2, -3)
    for name, build, seeds, start, count in (
        ("gen_fib_quat", lambda n: gen_fib_quat(params, (1039, 1049), n), (1039, 1049), 600, 100),
        ("fib_quat", lambda n: fib_quat(params, n), (0, 1), 5000, 400),
    ):
        powers.clear()
        xs = walk(seeds, start, start + count + 3)
        for n in range(start, start + count):
            q = build(n)
            assert (q.x1, q.x2, q.x3, q.x4, q.den) == (*xs[n - start:n - start + 4], 1), (name, n)
        assert powers == [start], name
