"""Runs of range reads past an engine's table cap.

Past the cap an engine keeps one run: the last 3k values of its last range
there, x_{stop-2k} .. x_{stop+k-1} (k = 2 for f and h, 3 for u; fewer when
the range is shorter).  A range that starts in [stop - 2k, stop] continues
that run, and any other range past the cap takes one power at its start.
So a run of consecutive windows takes one power, and so does a loop of the
quaternion builders' overlapping reads, [n + 1, n + 5) after [n, n + 4).
Two runs interleaved on one engine take one power per switch, as the
audit's THM_2_4 does past the cap when it builds F_n between its closed-form
windows: at most two powers per window.  A range that starts inside the
forward table and ends past the cap takes one power too.
"""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import fib_quat, normforms, sequences
from fibquat.algebra import AlgebraParams
from fibquat.normforms import invertibility_threshold, verify_threshold_report
from fibquat.sequences import (
    TABLE_CAP,
    GenFibParams,
    _Recurrence,
    fib_values,
    gen_fib_values,
)


@pytest.fixture
def powers(monkeypatch):
    """The index of every power the engines take."""
    power = _Recurrence._power
    calls = []
    monkeypatch.setattr(_Recurrence, "_power", lambda self, n: calls.append(n) or power(self, n))
    return calls


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
def test_two_interleaved_window_runs_take_one_power_each(powers, seeds):
    # each read switches runs, so each takes one power; each run alone
    # would take one in all
    engine = _Recurrence(*seeds)
    origin = TABLE_CAP + 10
    reads = []
    for start in range(origin, origin + 10 * 256, 256):
        stop = start + 256
        reads.append((start, stop + 1, engine.values(start, stop + 1)))
        reads.append((2 * start + 1, 2 * stop + 2, engine.values(2 * start + 1, 2 * stop + 2)))
    assert powers == [start for start, _, _ in reads]
    k = len(seeds)
    xs = list(seeds)
    while len(xs) < reads[-1][1]:
        xs.append(xs[-1] + xs[-k])
    for start, stop, values in reads:
        assert values == xs[start:stop], (start, stop)
    assert len(engine._resume[1]) <= 3 * k


@pytest.mark.parametrize("pq", [None, GenFibParams(1, 2)], ids=str)
def test_the_reverify_takes_at_most_two_powers(monkeypatch, powers, pq):
    params = AlgebraParams(1, 1)
    n_max = 12000
    report = invertibility_threshold(params, pq, n_max)
    formula = normforms._formula_tops
    tops = []

    def recorded(*args):
        values = formula(*args)
        tops.extend(values)
        return values

    monkeypatch.setattr(normforms, "_formula_tops", recorded)
    powers.clear()
    verify_threshold_report(report)
    assert 0 < len(powers) <= 2
    # the re-verify read every V(n) in [0, n_max], 5 times the quadratic form
    # d2*(d1*x1^2 + n1*x2^2) + n2*(d1*x3^2 + n1*x4^2), here d1 = d2 = 1
    x = fib_values(0, n_max + 4) if pq is None else gen_fib_values(pq, 0, n_max + 4)
    squares = [value * value for value in x]
    u = [a + b for a, b in zip(squares, squares[1:])]
    assert tops == [5 * (a + b) for a, b in zip(u, u[2:])]


def plain(seeds, stop, start=0):
    """x_start, ..., x_{stop-1} for any signed start <= stop, by the
    recurrence alone (backward by x_n = x_{n+k} - x_{n+k-1})."""
    k = len(seeds)
    xs, low = list(seeds), 0  # x_low, x_{low+1}, ...
    while low > start:
        xs.insert(0, xs[k - 1] - xs[k - 2])
        low -= 1
    while low + len(xs) < stop:
        xs.append(xs[-1] + xs[-k])
    return xs[start - low:stop - low]


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
def test_a_range_leaving_the_table_runs_on_from_it(powers, seeds):
    # a range leaving the table runs on from one power at its start
    xs = plain(seeds, TABLE_CAP + 3)
    engine = _Recurrence(*seeds)
    assert engine.values(0, TABLE_CAP + 3) == xs
    assert powers == [0]
    assert engine.values(0, TABLE_CAP + 1) == xs[:-2]
    # the read filled the table to the cap and no further
    assert len(engine._fwd) == TABLE_CAP + 1
    assert engine.values(3840, 4098) == xs[3840:4098]
    assert powers == [0, 3840] and len(engine._fwd) == TABLE_CAP + 1
    # a read that starts past the cap takes its power and leaves the table as it is
    assert engine.values(3 * TABLE_CAP, 3 * TABLE_CAP + 5) == plain(seeds, 3 * TABLE_CAP + 5)[-5:]
    assert powers == [0, 3840, 3 * TABLE_CAP] and len(engine._fwd) == TABLE_CAP + 1


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
def test_a_range_ending_at_the_cap_takes_no_power(powers, seeds):
    assert _Recurrence(*seeds).values(-5, TABLE_CAP + 1)[5:] == plain(seeds, TABLE_CAP + 1)
    assert powers == []


def test_a_far_read_does_not_fill_the_table(powers):
    engine = _Recurrence(0, 1)
    assert engine.values(TABLE_CAP + 1, TABLE_CAP + 3) == plain((0, 1), TABLE_CAP + 3)[-2:]
    assert powers == [TABLE_CAP + 1] and engine._fwd == [0, 1]


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
@pytest.mark.parametrize("origin", [TABLE_CAP + 10, -TABLE_CAP - 700])
def test_a_read_continues_the_kept_run_only_from_stop_less_2k_to_stop(powers, seeds, origin):
    k = len(seeds)
    engine = _Recurrence(*seeds)
    expected = []

    def read(start, stop, power):
        assert engine.values(start, stop) == plain(seeds, stop, start), (start, stop)
        if power:
            expected.append(start)
        assert powers == expected, (start, stop)
        return stop

    stop = read(origin, origin + 20, True)
    stop = read(stop, stop + 20, False)  # starts at stop
    stop = read(stop - 2 * k, stop + 7, False)  # starts at stop - 2k
    stop = read(stop - 2 * k - 1, stop + 9, True)  # one before stop - 2k
    stop = read(stop + 1, stop + 30, True)  # one past stop
    # a read shorter than 2k keeps x_start .. x_{stop+k-1} only, so a read
    # starting before its start takes a power, though after stop - 2k
    start = stop
    stop = read(start, start + 1, False)
    stop = read(start - 1, start + 3, True)
    read(stop, stop, False)
    assert len(engine._resume[1]) <= 3 * k


def oracle_powers(reads, k, cap):
    """The start of every read that takes a power under the one-run rule."""
    out, kept = [], None  # kept: the starts that continue the last run
    for start, stop in reads:
        if start < -cap or stop > cap + 1:
            if kept is None or not kept[0] <= start <= kept[1]:
                out.append(start)
            kept = (max(start, stop - 2 * k), stop)
    return out


CAP = 40  # a small cap, so the reads cross and leave both tables often


@settings(max_examples=150, deadline=None)
@given(
    seeds=st.lists(st.integers(-50, 50), min_size=2, max_size=3),
    first=st.integers(-3 * CAP, 3 * CAP),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(-3 * CAP, 3 * CAP), st.integers(-8, 2), st.integers(0, 14)),
        min_size=0, max_size=11,
    ),
)
def test_each_read_takes_the_powers_of_the_one_run_rule(seeds, first, steps):
    # each read starts near the last one's stop, or anywhere
    k = len(seeds)
    engine = _Recurrence(*seeds, cap=CAP)
    powers = []
    engine._power = lambda n: powers.append(n) or _Recurrence._power(engine, n)
    reads = [(first, first + 5)]
    for anywhere, start, offset, length in steps:
        if not anywhere:
            start = reads[-1][1] + offset
        reads.append((start, start + length))
    for start, stop in reads:
        assert engine.values(start, stop) == plain(seeds, stop, start), (start, stop)
    assert powers == oracle_powers(reads, k, CAP)
    assert len(engine._resume[1]) <= 3 * k


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
def test_threads_reading_builder_windows_on_one_engine_see_the_recurrence(seeds):
    engine = _Recurrence(*seeds)
    low = TABLE_CAP + 100
    xs = plain(seeds, low + 400, low)
    failures = []

    def worker(tag):
        # overlapping builder loops: each thread's [n, n+4) windows overlap
        # the next thread's, and every read may land between two others
        for n in range(low + 20 * tag, low + 20 * tag + 200):
            if engine.values(n, n + 4) != xs[n - low:n - low + 4]:
                failures.append((tag, n))

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
    assert failures == []
    assert len(engine._resume[1]) <= 3 * len(seeds)


def test_windows_interleaved_with_builds_take_at_most_two_powers_each(monkeypatch, powers):
    # the cost the one kept run accepts: THM_2_4 past the cap reads a window
    # of closed forms at 2n, then builds F_n through the same engine, so
    # each window and each builder loop takes a power of its own
    monkeypatch.setattr(sequences._fib, "_resume", (0, ()))
    params = AlgebraParams(2, -3)
    origin, windows = 5000, 6
    xs = plain((0, 1), origin + windows * 256 + 3, origin)
    for low in range(origin, origin + windows * 256, 256):
        tops = normforms._formula_tops(params, None, low, low + 256)
        builds = [fib_quat(params, n) for n in range(low, low + 256)]
        for n, top, q in zip(range(low, low + 256), tops, builds):
            assert (q.x1, q.x2, q.x3, q.x4) == tuple(xs[n - origin:n - origin + 4]), n
            assert top == 5 * q.norm(), n  # V(n), with d1 = d2 = 1
    assert 0 < len(powers) <= 2 * windows
