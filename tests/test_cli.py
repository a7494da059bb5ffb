"""CLI surface: subcommand outputs, formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from fibquat import Rational, cli, fib
from fibquat.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSeq:
    def test_narayana_text(self, capsys):
        code, out, _ = invoke(capsys, "seq", "--kind", "narayana", "--from", "0", "--to", "8")
        assert code == 0
        assert out.strip() == "0 1 1 1 2 3 4 6 9"

    def test_fib_json(self, capsys):
        code, out, _ = invoke(
            capsys, "seq", "--kind", "fib", "--from", "-4", "--to", "4",
            "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["values"] == [-3, 2, -1, 1, 0, 1, 1, 2, 3]

    def test_genfib_needs_seeds(self, capsys):
        code, _, err = invoke(capsys, "seq", "--kind", "genfib", "--from", "0", "--to", "5")
        assert code == 2
        assert "requires --p and --q" in err

    def test_genfib_csv(self, capsys):
        code, out, _ = invoke(
            capsys, "seq", "--kind", "genfib", "--from", "0", "--to", "5",
            "--p", "2", "--q", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,value"
        assert lines[1] == "0,2"
        assert lines[-1] == "5,11"

    def test_bad_range(self, capsys):
        code, _, err = invoke(capsys, "seq", "--kind", "fib", "--from", "5", "--to", "1")
        assert code == 2


class TestQuat:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "quat", "--kind", "narayana", "--n", "2")
        assert code == 0
        assert out.strip() == "1 + 1*e2 + 2*e3 + 3*e4  [H(1, 1)]"

    def test_json_rational_params(self, capsys):
        code, out, _ = invoke(
            capsys, "quat", "--kind", "fib", "--n", "0",
            "--beta1=-1", "--beta2=-1/3", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["coefficients"] == ["0", "1", "1", "2"]
        assert document["beta2"] == "-1/3"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="interpreter without an int-to-str digit limit")
    def test_past_int_str_digit_limit(self, capsys):
        n = 21000  # f_n has about 4390 digits, past CPython's default 4300
        limit = sys.get_int_max_str_digits()
        code, out, _ = invoke(capsys, "quat", "--kind", "fib", "--n", str(n),
                              "--format", "json")
        assert code == 0
        coefficients = json.loads(out)["coefficients"]
        sys.set_int_max_str_digits(0)
        try:
            expected = [str(fib(n + k)) for k in range(4)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert coefficients == expected
        assert sys.get_int_max_str_digits() == limit

    def test_bare_negative_integer_flag(self, capsys):
        # plain negative integers work without the = form
        code, out, _ = invoke(
            capsys, "quat", "--kind", "fib", "--n", "-4", "--beta1", "-1",
            "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["beta1"] == "-1"
        assert document["coefficients"] == ["-3", "2", "-1", "1"]


class TestNorm:
    def test_direct_default(self, capsys):
        code, out, _ = invoke(capsys, "norm", "--kind", "fib", "--n", "0")
        assert code == 0
        assert out.strip() == "6"

    def test_formula_method(self, capsys):
        code, out, _ = invoke(
            capsys, "norm", "--kind", "fib", "--n", "0", "--method", "formula",
            "--beta1", "2", "--beta2", "3",
        )
        assert code == 0
        assert out.strip() == "29"

    def test_check_match(self, capsys):
        code, out, _ = invoke(
            capsys, "norm", "--kind", "genfib", "--n", "3", "--p", "2", "--q", "1",
            "--check", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["direct"] == "510"
        assert document["formula"] == "510"
        assert document["match"] is True

    @pytest.mark.parametrize("n, value", [("0", "7/4"), ("-5", "8121/8")])
    def test_check_genfib_at_non_positive_n(self, capsys, n, value):
        # n(H_0) = 4 + 9/2 - 3/4 - 6 for (h_0, .., h_3) = (2, -3, -1, -4)
        code, out, _ = invoke(
            capsys, "norm", "--kind", "genfib", f"--n={n}", "--p", "2", "--q=-3",
            "--beta1", "1/2", "--beta2=-3/4", "--check", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert (document["direct"], document["formula"], document["match"]) == (value, value, True)

    @pytest.mark.parametrize("method, skipped, argv", [
        ("direct", "norm_fib_formula", ["--kind", "fib"]),
        ("formula", "fib_quat", ["--kind", "fib"]),
        ("direct", "norm_genfib_formula", ["--kind", "genfib", "--p", "2", "--q", "1"]),
        ("formula", "gen_fib_quat", ["--kind", "genfib", "--p", "2", "--q", "1"]),
    ])
    def test_only_the_requested_route_runs(self, capsys, method, skipped, argv):
        with mock.patch.object(cli, skipped) as stub:
            code, out, _ = invoke(capsys, "norm", *argv, "--n", "3", "--method", method)
        stub.assert_not_called()
        assert code == 0
        expected = "510" if "genfib" in argv else "102"
        assert out.strip() == expected

    def test_zero_norm_is_reportable(self, capsys):
        code, out, _ = invoke(
            capsys, "norm", "--kind", "fib", "--n", "0",
            "--beta1=-1", "--beta2=-1/3",
        )
        assert code == 0
        assert out.strip() == "0"

    def test_bad_rational_flag(self, capsys):
        code, _, err = invoke(
            capsys, "norm", "--kind", "fib", "--n", "0", "--beta1", "x/y"
        )
        assert code == 2
        assert "bad rational literal" in err


class TestAudit:
    def test_single_pass(self, capsys):
        code, out, _ = invoke(capsys, "audit", "--id", "EQ_1_2", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["failures"] == 0
        assert document["id"] == "EQ_1_2"

    def test_swamy_failure_report(self, capsys):
        code, out, _ = invoke(
            capsys, "audit", "--id", "SWAMY_AS_STATED", "--format", "json"
        )
        assert code == 1
        document = json.loads(out)
        assert set(document) == {
            "id", "paper_ref", "mode", "provenance", "seed",
            "instances_run", "passes", "failures", "first_counterexample",
            "elapsed_ms",
        }
        cex = document["first_counterexample"]
        assert cex["inputs"] == {"p": "0", "q": "1", "n": "0"}
        assert cex["lhs"] == "2"
        assert cex["rhs"] == "6"

    def test_no_timing_byte_determinism(self, capsys):
        args = ("audit", "--id", "THM_2_4", "--n-max", "8", "--format", "json",
                "--no-timing")
        code1, out1, _ = invoke(capsys, *args)
        code2, out2, _ = invoke(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "elapsed_ms" not in out1

    def test_all_json(self, capsys):
        code, out, _ = invoke(
            capsys, "audit", "--all", "--n-max", "5", "--format", "json",
            "--no-timing",
        )
        assert code == 0
        document = json.loads(out)
        assert document["ok"] is True
        assert document["seed"] == 1729
        assert len(document["reports"]) >= 28
        assert document["verdicts"]["SWAMY_AS_STATED"] == "transcription-issue"

    def test_all_byte_determinism(self, capsys):
        args = ("audit", "--all", "--n-max", "5", "--format", "json", "--no-timing")
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2

    def test_all_csv_header(self, capsys):
        code, out, _ = invoke(
            capsys, "audit", "--all", "--n-max", "5", "--format", "csv",
            "--no-timing",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == (
            "id,paper_ref,mode,provenance,seed,instances_run,passes,failures,"
            "first_counterexample"
        )

    def test_all_csv_byte_determinism(self, capsys):
        args = ("audit", "--all", "--n-max", "5", "--format", "csv", "--no-timing")
        _, out1, _ = invoke(capsys, *args)
        _, out2, _ = invoke(capsys, *args)
        assert out1 == out2

    def test_list(self, capsys):
        code, out, _ = invoke(capsys, "audit", "--list")
        assert code == 0
        assert "SWAMY_AS_STATED" in out
        assert "corrected-variant" in out

    def test_provenance_filter(self, capsys):
        code, out, _ = invoke(
            capsys, "audit", "--all", "--provenance", "corrected-variant",
            "--n-max", "5", "--format", "json", "--no-timing",
        )
        assert code == 0
        document = json.loads(out)
        assert all(r["provenance"] == "corrected-variant" for r in document["reports"])
        assert all(r["failures"] == 0 for r in document["reports"])

    @pytest.mark.parametrize("provenance", ["as-stated", "corrected-variant"])
    def test_filtered_verdicts_equal_full_run(self, capsys, provenance):
        args = ("audit", "--all", "--n-max", "5", "--format", "json", "--no-timing")
        _, full, _ = invoke(capsys, *args)
        code, shown, _ = invoke(capsys, *args, "--provenance", provenance)
        full, shown = json.loads(full), json.loads(shown)
        ids = [r["id"] for r in shown["reports"]]
        assert code == 0 and shown["ok"] is True
        assert ids == [r["id"] for r in full["reports"] if r["provenance"] == provenance]
        assert shown["verdicts"] == {i: full["verdicts"][i] for i in ids}

    def test_zero_instances_is_a_usage_error(self, capsys):
        code, out, err = invoke(capsys, "audit", "--id", "THM_2_4", "--n-max", "-1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_library_error_is_not_a_counterexample(self, capsys):
        for scope in (("--all",), ("--id", "THM_2_6_THRESHOLD")):
            code, out, err = invoke(capsys, "audit", *scope, "--n-max", "0")
            assert code == 2
            assert out == ""
            assert err.startswith("error:")

    def test_vanished_anomaly_fails_and_is_named(self, capsys, monkeypatch):
        from dataclasses import replace

        import fibquat.cli

        real = fibquat.cli.audit_all

        def vanished(*args, **kwargs):
            return [
                replace(r, failures=0, passes=r.instances_run, first_counterexample=None)
                if r.id == "SWAMY_AS_STATED"
                else r
                for r in real(*args, **kwargs)
            ]

        monkeypatch.setattr(fibquat.cli, "audit_all", vanished)
        code, out, _ = invoke(capsys, "audit", "--all", "--n-max", "5", "--no-timing")
        assert code == 1
        row = next(line for line in out.splitlines() if line.startswith("SWAMY_AS_STATED "))
        assert row.endswith("FAIL (anomaly-vanished)")
        assert out.splitlines()[-1] == "aggregate: FAIL (vanished anomalies: SWAMY_AS_STATED)"
        code, out, _ = invoke(capsys, "audit", "--all", "--n-max", "5", "--format", "json",
                              "--no-timing")
        assert code == 1
        document = json.loads(out)
        assert document["ok"] is False
        assert document["verdicts"]["SWAMY_AS_STATED"] == "anomaly-vanished"

    def test_unknown_id(self, capsys):
        code, _, err = invoke(capsys, "audit", "--id", "NOPE")
        assert code == 2
        assert "NOPE" in err

    def test_custom_seed_embedded(self, capsys):
        code, out, _ = invoke(
            capsys, "audit", "--id", "THM_2_4", "--seed", "7", "--n-max", "5",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 7


class TestThreshold:
    def test_division_algebra(self, capsys):
        code, out, _ = invoke(capsys, "threshold", "--n-max", "50", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["sign_of_E"] == 1
        assert document["empirical_n0"] == 0
        assert document["zero_norm_indices"] == []

    def test_split_algebra(self, capsys):
        code, out, _ = invoke(
            capsys, "threshold", "--beta1=-1", "--beta2=-1/3",
            "--n-max", "50", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["empirical_n0"] == 1
        assert document["zero_norm_indices"] == [0]

    def test_degenerate_seeds(self, capsys):
        code, _, err = invoke(capsys, "threshold", "--p", "0", "--q", "0")
        assert code == 1
        assert "vanishes" in err

    def test_exhausted_scan(self, capsys):
        code, _, err = invoke(
            capsys, "threshold", "--beta1=-1", "--beta2", "0", "--n-max", "1"
        )
        assert code == 1


class TestCows:
    def test_twenty_years(self, capsys):
        code, out, _ = invoke(capsys, "cows", "--years", "20")
        assert code == 0
        assert out.strip() == "2745"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "cows", "--years", "7", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"years": 7, "herd": 19}

    def test_rejects_non_positive(self, capsys):
        code, _, _ = invoke(capsys, "cows", "--years", "0")
        assert code == 2


class TestGf:
    def test_default_degree(self, capsys):
        code, out, _ = invoke(capsys, "gf", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document == {
            "degree_checked": 300,
            "max_abs_residual_coefficient": [0, 0, 0, 0],
            "ok": True,
        }

    def test_degree_too_small(self, capsys):
        code, _, err = invoke(capsys, "gf", "--degree", "1")
        assert code == 2


class TestBinet:
    def test_narayana_scalar(self, capsys):
        code, out, _ = invoke(capsys, "binet", "--n", "10", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["exact"] == 19
        assert abs(document["value"] - 19) < 1e-9

    def test_fib(self, capsys):
        code, out, _ = invoke(
            capsys, "binet", "--kind", "fib", "--n", "10", "--format", "json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["exact"] == 55

    def test_quat(self, capsys):
        code, out, _ = invoke(capsys, "binet", "--n", "2", "--quat", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["exact"] == [1, 1, 2, 3]

    def test_quat_needs_narayana(self, capsys):
        code, _, _ = invoke(capsys, "binet", "--kind", "fib", "--n", "2", "--quat")
        assert code == 2

    def test_guard_exit(self, capsys):
        code, _, err = invoke(capsys, "binet", "--kind", "fib", "--n", "100")
        assert code == 2
        assert "|n| <= 70" in err


class TestUsage:
    def test_unknown_flag(self, capsys):
        code, _, _ = invoke(capsys, "cows", "--bogus")
        assert code == 2

    def test_missing_subcommand(self, capsys):
        code, _, _ = invoke(capsys)
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code, out, _ = invoke(capsys, "--help")
        assert code == 0
        assert "seq" in out and "audit" in out and "cows" in out

    def test_closed_pipe_exits_quietly(self):
        # about 1 MB of output against a 64 KiB pipe: the writer is still
        # writing when the reader closes its end after 10 bytes
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "fibquat.cli", "seq", "--kind", "fib",
             "--from", "0", "--to", "3000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.stdout.read(10) == b"0 1 1 2 3 "
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert err == b""
        assert proc.returncode == 1


class TestBigIntegerRendering:
    """Ints past the cut-off are converted by binary splitting into Decimal;
    the text must be exactly what str() and json.dumps print."""

    @pytest.fixture(autouse=True)
    def unlimited_int_str(self):
        # the references below are str() of ints past CPython's digit limit
        if not hasattr(sys, "set_int_max_str_digits"):
            yield
            return
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        yield
        sys.set_int_max_str_digits(limit)

    BIG = [
        1 << cli._DECIMAL_MIN_BITS,
        (1 << cli._DECIMAL_MIN_BITS) - 1,
        -(3 ** 50000) + 1,
        fib(100003),
        10 ** 30000,
        7 ** 90000,
    ]

    def test_ints_match_str(self):
        for x in self.BIG + [0, 1, -1, 2 ** 128, -(2 ** 129) - 5, True]:
            assert cli._int_text(x) == str(x)
            assert cli._int_text(-x) == str(-x)

    def test_rationals_match_str(self):
        for x in (Rational(self.BIG[2], 3 ** 40000 + 2), Rational(self.BIG[3]), Rational(-5, 7)):
            assert cli._text(x) == str(x)

    def test_json_matches_json_dumps(self):
        document = {
            "a": self.BIG[:3], "b": {"c": [1, -2, True, None, 0.25, "xé"]},
            "d": (), "e": {}, "f": self.BIG[3], "g": False,
        }
        assert cli._json_text(document) == json.dumps(document)

    def test_without_c_decimal_falls_back_to_str(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "_decimal", None)  # import raises ImportError
        assert cli._int_text(self.BIG[3]) == str(self.BIG[3])

    def test_million_index_quaternion(self, capsys):
        n = 10 ** 6  # four coefficients of about 209,000 digits
        code, out, _ = invoke(capsys, "quat", "--kind", "fib", "--n", str(n), "--format", "json")
        assert code == 0
        coefficients = json.loads(out)["coefficients"]
        phi = (1 + 5 ** 0.5) / 2
        for i, text in enumerate(coefficients):
            value = fib(n + i)
            assert len(text) == int((n + i) * math.log10(phi) - math.log10(5) / 2) + 1
            assert text[-12:] == str(value % 10 ** 12).zfill(12)
            assert text.isdigit()
