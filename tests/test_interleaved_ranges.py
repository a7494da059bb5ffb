"""Two interleaved runs of range reads past an engine's table cap.

``normforms._formula_tops`` reads a low f-range [s, ...] and a high one
[2s + 1, ...] from the one f-engine for every window, so the engine keeps
the ends of its last two ranges and each run continues from its own end:
one power per run, not one per window.
"""

import pytest

from fibquat import normforms
from fibquat.algebra import AlgebraParams
from fibquat.normforms import (
    _cleared_norm_scan,
    invertibility_threshold,
    verify_threshold_report,
)
from fibquat.sequences import TABLE_CAP, _Recurrence, fib_values


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


def test_the_reverify_takes_at_most_two_powers(monkeypatch, powers):
    params = AlgebraParams(1, 1)
    n_max = 12000
    report = invertibility_threshold(params, None, n_max)
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
    full = _cleared_norm_scan(params, fib_values(0, n_max + 4))
    assert tops == full
