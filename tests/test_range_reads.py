"""The audit's range reads and the sequence engine's resumed ranges.

``INTRO_PROP_5`` reads its Narayana numbers as one range, ``THM_2_4`` and
``THM_2_5`` read their closed forms through ``normforms._formula_tops`` and
``EQ_1_1`` its f- and h-values, each in windows of ``_VERIFY_WINDOW``
indices.  The checks here keep those reads honest: a wrong value in a range
must still fail its entry, no window grows past the constant, and the
seeded audit output is byte for byte what it was when every value was read
one index at a time (the digests in ``tests/golden/audit_digests.json``).
Past its table cap an engine continues a range from where its last one
ended, with the values of ``sequence_oracle.walk`` and no power of its
own (the ``powers`` fixture).
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from fibquat import sequences
from fibquat.audit import audit
from fibquat.cli import run
from fibquat.normforms import _VERIFY_WINDOW
from fibquat.sequences import GENFIB_TABLE_CAP
from sequence_oracle import off_by_one, walk

audit_module = importlib.import_module("fibquat.audit")  # fibquat.audit is also a function

DIGESTS = Path(__file__).parent / "golden" / "audit_digests.json"


@pytest.mark.parametrize(
    "identity_id, name, position",
    [
        ("INTRO_PROP_5", "narayana_values", 10),  # u_8
        ("INTRO_PROP_5", "narayana_values", 2),   # u_0
        ("THM_2_4", "_formula_tops", 0),
        ("THM_2_4", "_formula_tops", 60),          # the last index
        ("THM_2_5", "_formula_tops", 0),
        ("THM_2_5", "_formula_tops", 59),          # the last index
    ],
)
def test_a_wrong_value_in_a_range_read_fails_its_entry(monkeypatch, identity_id, name, position):
    honest = audit(identity_id)
    assert honest.failures == 0
    monkeypatch.setattr(audit_module, name, off_by_one(getattr(audit_module, name), position))
    report = audit(identity_id)
    assert report.failures >= 1
    assert report.instances_run == honest.instances_run


def spy(monkeypatch, name):
    """Record the arguments of every call to ``fibquat.audit.<name>``."""
    read = getattr(audit_module, name)
    calls = []

    def recorded(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(audit_module, name, recorded)
    return calls


@pytest.mark.parametrize(
    "identity_id, first",
    [("THM_2_4", 0), ("THM_2_5", 1)],
)
def test_closed_forms_are_read_in_windows(monkeypatch, identity_id, first):
    calls = spy(monkeypatch, "_formula_tops")
    report = audit(identity_id, n_max=600)
    assert report.failures == 0
    # per algebra, windows of at most _VERIFY_WINDOW indices tile [first, 600]
    assert len(calls) == 25 * 3
    for algebra in range(25):
        windows = calls[3 * algebra:3 * algebra + 3]
        assert [start for _, _, start, _ in windows] == [first, first + 256, first + 512]
        assert windows[-1][3] == 601
        for (_, _, start, stop), following in zip(windows, windows[1:] + [None]):
            assert stop - 1 - start <= _VERIFY_WINDOW
            if following is not None:
                assert following[2] == stop


def test_eq_1_1_reads_f_and_h_in_windows(monkeypatch):
    f_calls = spy(monkeypatch, "fib_values")
    h_calls = spy(monkeypatch, "gen_fib_values")
    report = audit("EQ_1_1", n_max=600)
    assert (report.instances_run, report.failures) == (50 * 601, 0)
    # pair-major: each pair reads three windows of f and of h in turn
    assert len(f_calls) == len(h_calls) == 50 * 3
    assert [start for start, _ in f_calls[:3]] == [0, 256, 512]
    assert [(start, stop) for _, start, stop in h_calls[:3]] == [(1, 257), (257, 513), (513, 602)]
    assert len({pq for pq, _, _ in h_calls[:3]}) == 1
    for start, stop in f_calls + [(start, stop) for _, start, stop in h_calls]:
        assert stop - 1 - start <= _VERIFY_WINDOW


@pytest.mark.parametrize("n_max", [255, 256, 257, 512])
def test_windows_cover_every_index_at_their_edges(n_max):
    assert audit("EQ_1_1", n_max=n_max).instances_run == 50 * (n_max + 1)
    assert audit("THM_2_4", n_max=n_max).instances_run == 25 * (n_max + 1)
    assert audit("THM_2_5", n_max=n_max).instances_run == 25 * n_max


def test_a_wrong_value_in_a_later_window_names_its_index(monkeypatch):
    # h_{267} of the first seed pair, read by the second window, is off by one
    read = audit_module.gen_fib_values
    first = []

    def wrong(pq, start, stop):
        values = read(pq, start, stop)
        first.append(pq)
        if pq == first[0] and start == 257:
            values[10] += 1
        return values

    monkeypatch.setattr(audit_module, "gen_fib_values", wrong)
    report = audit("EQ_1_1", n_max=600)
    assert report.failures == 1
    p, q = first[0]
    assert report.first_counterexample.inputs == {"p": str(p), "q": str(q), "n": "266"}


@pytest.mark.parametrize(
    "entry", json.loads(DIGESTS.read_text()), ids=lambda entry: " ".join(entry["argv"][5:])
)
def test_seeded_audit_json_digest(capsys, entry):
    assert run(entry["argv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == entry["sha256"]


def test_genfib_windows_past_the_cap_take_one_power(powers):
    pq = (11, -13)
    start = GENFIB_TABLE_CAP + 1
    windows = [sequences.gen_fib_values(pq, n, n + 256) for n in range(start, start + 2560, 256)]
    assert powers == [start]
    assert sum(windows, []) == sequences.gen_fib_values(pq, start, start + 2560)
    assert sum(windows, []) == walk(pq, start, start + 2560)
