"""Byte-identity of the seeded audit JSON and of threshold CSV output.

The files under ``tests/golden/`` hold the output of the commands below.
Refactors of the arithmetic must reproduce them byte for byte: the same
fractions, verdicts and counterexamples.
"""

from pathlib import Path

from fibquat.cli import run

GOLDEN = Path(__file__).parent / "golden"

THRESHOLD_CASES = [
    ("--beta1", "1", "--beta2", "1"),
    ("--beta1=-1", "--beta2=-1/3"),
    ("--beta1", "0", "--beta2", "0"),
    ("--beta1", "2", "--beta2=-3/7"),
    ("--beta1=-1/2", "--beta2", "1", "--p=-3", "--q", "2"),
    ("--beta1=-6/7", "--beta2=-1/7", "--p=-3", "--q", "2"),
    ("--beta1=-5/2", "--beta2", "1/3", "--p", "2", "--q=-1"),
    ("--beta1", "1/2", "--beta2=-2", "--n-max", "80"),
]


def output(capsys, *argv):
    assert run(list(argv)) == 0
    return capsys.readouterr().out


def test_seeded_audit_json(capsys):
    # fibquat audit --all --format json --no-timing (default seed 1729)
    out = output(capsys, "audit", "--all", "--format", "json", "--no-timing")
    assert out == (GOLDEN / "audit_all.json").read_text()


def test_threshold_csv(capsys):
    # fibquat threshold <case> --format csv, concatenated over the cases
    out = "".join(output(capsys, "threshold", *case, "--format", "csv")
                  for case in THRESHOLD_CASES)
    assert out == (GOLDEN / "threshold.csv").read_text()
