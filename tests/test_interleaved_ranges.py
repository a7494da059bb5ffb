"""Interleaved runs of range reads past an engine's table cap.

The engine keeps the ends of its last two ranges past the cap, so each of
two interleaved runs continues from its own end: one power per run, not one
per read.  A loop of short overlapping reads is such a pair of runs: the
quaternion builders read [n, n + 4) and then [n + 1, n + 5), which starts at
the end of the read before last.  So is a run of windows interleaved with
such a loop, as in the audit's THM_2_4, which builds F_n between its
closed-form windows.  A range that starts inside the forward table and ends
past the cap runs on from the table without one.
"""

import pytest

from fibquat import normforms
from fibquat.algebra import AlgebraParams
from fibquat.normforms import (
    _cleared_norm_scan,
    invertibility_threshold,
    verify_threshold_report,
)
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
    engine = _Recurrence(*seeds)
    origin = TABLE_CAP + 10
    reads = []
    for start in range(origin, origin + 10 * 256, 256):
        stop = start + 256
        reads.append((start, stop + 1, engine.values(start, stop + 1)))
        reads.append((2 * start + 1, 2 * stop + 2, engine.values(2 * start + 1, 2 * stop + 2)))
    assert powers == [origin, 2 * origin + 1]
    k = len(seeds)
    xs = list(seeds)
    while len(xs) < reads[-1][1]:
        xs.append(xs[-1] + xs[-k])
    for start, stop, values in reads:
        assert values == xs[start:stop], (start, stop)
    assert len(engine._resume[1]) <= 2 * k and len(engine._earlier[1]) <= 2 * k


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
    # the re-verify read every norm in [0, n_max], equal to a full scan's
    values = fib_values(0, n_max + 4) if pq is None else gen_fib_values(pq, 0, n_max + 4)
    assert tops == _cleared_norm_scan(params, values)


def plain(seeds, stop):
    """x_0, ..., x_{stop-1} by the recurrence alone."""
    k = len(seeds)
    xs = list(seeds)
    while len(xs) < stop:
        xs.append(xs[-1] + xs[-k])
    return xs


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
def test_a_range_leaving_the_table_runs_on_from_it(powers, seeds):
    xs = plain(seeds, TABLE_CAP + 3)
    engine = _Recurrence(*seeds)
    assert engine.values(0, TABLE_CAP + 3) == xs
    # the read filled the table to the cap and no further
    assert len(engine._fwd) == TABLE_CAP + 1
    assert engine.values(3840, 4098) == xs[3840:4098]
    assert powers == []
    # a read that starts past the cap takes its power and leaves the table as it is
    assert engine.values(3 * TABLE_CAP, 3 * TABLE_CAP + 5) == plain(seeds, 3 * TABLE_CAP + 5)[-5:]
    assert powers == [3 * TABLE_CAP] and len(engine._fwd) == TABLE_CAP + 1


@pytest.mark.parametrize("seeds", [(0, 1), (3, -7), (0, 1, 1)])
def test_a_range_ending_at_the_cap_takes_no_power(powers, seeds):
    assert _Recurrence(*seeds).values(-5, TABLE_CAP + 1)[5:] == plain(seeds, TABLE_CAP + 1)
    assert powers == []


def test_a_far_read_does_not_fill_the_table(powers):
    engine = _Recurrence(0, 1)
    assert engine.values(TABLE_CAP + 1, TABLE_CAP + 3) == plain((0, 1), TABLE_CAP + 3)[-2:]
    assert powers == [TABLE_CAP + 1] and engine._fwd == [0, 1]
