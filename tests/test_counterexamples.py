"""Counts and first counterexamples of audit entries under injected faults.

Each case replaces one name that ``fibquat.audit`` reads with a faulty
version (an off-by-one range read, ``sequence_oracle.off_by_one``, a
quaternion shifted at n = 7, a threshold report one index late, a zero
element, a series residual) and runs the entry with its default seed and
domain.  Its instance, pass and failure counts and its first
counterexample, rendered as the report renders them, must equal the record
in ``tests/golden/counterexamples.json``.  The error paths
(``THM_2_6_THRESHOLD``, ``REMARK_2_7``, ``THM_3_2_GF``) are among them.
Running this file as a script prints the records.
"""

import importlib
import json
from pathlib import Path

import pytest

from fibquat import Quaternion
from fibquat.audit import audit
from fibquat.errors import SeriesMismatchError
from sequence_oracle import off_by_one

audit_module = importlib.import_module("fibquat.audit")  # fibquat.audit is also a function

GOLDEN = Path(__file__).parent / "golden" / "counterexamples.json"


def shifted_at_seven(build):
    """``build(params, pq, n)`` with one added to its scalar part at n = 7."""

    def wrong(params, pq, n):
        value = build(params, pq, n)
        return value + Quaternion.one(params) if n == 7 else value

    return wrong


def one_index_late(scan):
    """``scan`` reporting an empirical n0 one index past the true one."""

    def wrong(*args):
        report = scan(*args)
        return report._replace(empirical_n0=report.empirical_n0 + 1)

    return wrong


def zero_at_three(build):
    """``build(params, n)`` returning the zero quaternion at n = 3."""

    def wrong(params, n):
        return Quaternion.zero(params) if n == 3 else build(params, n)

    return wrong


def residual_at_five(check):
    """``check`` failing with a residual at degree 5."""

    def wrong(max_degree):
        check(max_degree)
        raise SeriesMismatchError(5, (0, 1, 0, -1))

    return wrong


# (entry, name in fibquat.audit, fault applied to it)
CASES = [
    ("INTRO_PROP_5", "narayana_values", lambda read: off_by_one(read, 10)),  # u_8
    ("EQ_1_1", "fib_values", lambda read: off_by_one(read, 5)),
    ("THM_2_1", "gen_fib_quat", shifted_at_seven),
    ("THM_2_2_II", "gen_fib_quat", shifted_at_seven),
    ("THM_2_5", "gen_fib_quat", shifted_at_seven),
    ("THM_2_6_THRESHOLD", "invertibility_threshold", one_index_late),
    ("REMARK_2_7", "fib_quat", zero_at_three),
    ("THM_3_2_GF", "gf_check", residual_at_five),
]


def faulted_record(identity_id, name, fault):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audit_module, name, fault(getattr(audit_module, name)))
        report = audit(identity_id)
    cex = report.first_counterexample
    return {
        "id": identity_id,
        "fault": name,
        "instances": report.instances_run,
        "passes": report.passes,
        "failures": report.failures,
        "inputs": cex.inputs,
        "lhs": cex.lhs,
        "rhs": cex.rhs,
    }


@pytest.mark.parametrize(
    "index", range(len(CASES)), ids=[f"{identity_id}-{name}" for identity_id, name, _ in CASES]
)
def test_faulted_entry_keeps_its_counterexample(index):
    assert faulted_record(*CASES[index]) == json.loads(GOLDEN.read_text())[index]


if __name__ == "__main__":
    print(json.dumps([faulted_record(*case) for case in CASES], indent=1))
