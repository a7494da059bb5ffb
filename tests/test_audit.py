"""Audit registry shape, determinism, adjudication semantics, and spot
instances of the registered identities."""

import importlib
from dataclasses import fields

import pytest

from fibquat import (
    AS_STATED,
    CORRECTED,
    DEFAULT_SEED,
    AlgebraParams,
    Counterexample,
    DomainError,
    IdentityCheck,
    Quaternion,
    UnknownIdentityError,
    adjudicate,
    aggregate_ok,
    audit,
    audit_all,
    expected_failure_ids,
    fib_quat,
    get_check,
    list_identities,
    narayana_quat,
)
from fibquat.audit import _CORRECTED_BY, _REGISTRY, _identity

H11 = AlgebraParams(1, 1)

REQUIRED_IDS = {
    "EQ_1_1", "EQ_1_2", "SWAMY_AS_STATED", "THM_2_1", "THM_2_2_I", "THM_2_2_II",
    "PROP_2_3_AS_STATED", "EQ_2_3", "EQ_2_5", "EQ_2_6", "THM_2_4", "THM_2_5",
    "EQ_2_9", "THM_3_1_A", "THM_3_1_B", "THM_3_2_GF", "THM_3_3_BINET",
    "THM_3_4_BINET_QUAT", "THM_3_5_1", "THM_3_5_2",
    "INTRO_PROP_1", "INTRO_PROP_2", "INTRO_PROP_3", "INTRO_PROP_4",
    "INTRO_PROP_5", "INTRO_PROP_6", "INTRO_PROP_7", "INTRO_PROP_8",
    "SH06", "HERD_2745",
}


class TestRegistry:
    def test_minimum_contents(self):
        ids = {entry[0] for entry in list_identities()}
        assert REQUIRED_IDS <= ids
        assert len(ids) >= 28

    def test_sorted_and_unique(self):
        ids = [entry[0] for entry in list_identities()]
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))

    def test_anchor_fragments(self):
        by_id = {i: ref for i, ref, _, _ in list_identities()}
        assert "F_(n-1) + 1 + e3 + e4" in by_id["THM_2_2_I"]
        assert "U_(3n-1)" in by_id["THM_3_5_1"]
        assert "3(2pq - p^2) f_(2n+2)" in by_id["SWAMY_AS_STATED"]

    def test_modes(self):
        modes = {i: mode for i, _, mode, _ in list_identities()}
        assert modes["EQ_1_1"] == "exact"
        assert modes["EQ_2_9"] == "numeric(1e-09)"
        assert modes["THM_3_3_BINET"] == "numeric(1e-09)"

    def test_pairing_is_declared_once(self):
        assert not {f.name for f in fields(IdentityCheck)} & {
            "provenance", "expect_failures", "mode"}
        repaired = sorted(c.corrects for c in _REGISTRY.values() if c.corrects)
        assert expected_failure_ids() == repaired
        for check in _REGISTRY.values():
            assert check.provenance == (CORRECTED if check.corrects else AS_STATED)

    @pytest.mark.parametrize("target", [
        "NO_SUCH_IDENTITY",  # unknown
        "SWAMY_CORRECTED",  # itself a corrected variant
        "SWAMY_AS_STATED",  # already corrected
    ])
    def test_corrects_must_name_an_unrepaired_as_stated_entry(self, target):
        register = _identity("NEW_VARIANT", paper_ref="", domain="", corrects=target)
        with pytest.raises(ValueError, match="corrects"):
            register(lambda rng, n_max: iter(()))
        assert "NEW_VARIANT" not in _REGISTRY
        assert "NEW_VARIANT" not in _CORRECTED_BY.values()

    def test_unknown_id(self):
        with pytest.raises(UnknownIdentityError):
            get_check("NO_SUCH_IDENTITY")
        with pytest.raises(UnknownIdentityError):
            audit("NO_SUCH_IDENTITY")


class TestAuditRuns:
    def test_thm_2_2_i_spot_instance(self):
        # n = 1: sum is F_1 = (1,1,2,3); rhs is F_0 + (1 + e3 + e4)
        assert fib_quat(H11, 1) == fib_quat(H11, 0) + Quaternion(1, 0, 1, 1, H11)
        report = audit("THM_2_2_I")
        assert report.failures == 0
        assert report.instances_run == 200  # n in [1,100] in two algebras

    def test_swamy_as_stated_first_counterexample(self):
        report = audit("SWAMY_AS_STATED")
        assert report.failures > 0
        cex = report.first_counterexample
        assert cex.inputs == {"p": "0", "q": "1", "n": "0"}
        assert cex.lhs == "2"
        assert cex.rhs == "6"

    def test_prop_2_3_verdict_pair(self):
        as_stated = audit("PROP_2_3_AS_STATED")
        corrected = audit("PROP_2_3_CORRECTED")
        assert as_stated.failures == as_stated.instances_run  # fails everywhere
        assert corrected.failures == 0
        cex = as_stated.first_counterexample
        assert cex.inputs["n"] == "1" and cex.inputs["k"] == "1"
        assert cex.lhs == "-6 + 0*e2 + 0*e3 + 0*e4"
        assert cex.rhs == "3 + 0*e2 + 0*e3 + 0*e4"

    def test_thm_3_5_1_spot_instance(self):
        # n = 1: C(1,0) U_1 + C(1,1) U_-1 = (1,1,1,2) + (0,0,1,1) = U_2
        lhs = narayana_quat(H11, 1) + narayana_quat(H11, -1)
        assert lhs == narayana_quat(H11, 2)
        assert audit("THM_3_5_1").failures == 0

    def test_report_invariants(self):
        report = audit("EQ_1_2")
        assert report.passes + report.failures == report.instances_run
        assert report.seed == DEFAULT_SEED
        assert report.elapsed >= 0
        assert report.first_counterexample is None

    def test_n_max_override_shrinks_domain(self):
        assert audit("EQ_1_2", n_max=10).instances_run == 11
        assert audit("SH06", n_max=20).instances_run == 19

    def test_zero_instances_is_an_error(self):
        with pytest.raises(DomainError, match="no instances"):
            audit("THM_2_4", n_max=-1)

    def test_library_errors_are_not_counterexamples(self, monkeypatch):
        with pytest.raises(DomainError, match="n_max >= 1"):
            audit("THM_2_6_THRESHOLD", n_max=0)

        def broken(*args):
            raise TypeError("library bug")

        # the package exports a function named audit, so reach the module
        module = importlib.import_module("fibquat.audit")
        monkeypatch.setattr(module, "invertibility_threshold", broken)
        with pytest.raises(TypeError, match="library bug"):
            audit("THM_2_6_THRESHOLD")

    def test_seed_changes_draws_not_verdicts(self):
        for seed in (DEFAULT_SEED, 7, 123456789):
            report = audit("THM_2_4", seed=seed, n_max=10)
            assert report.failures == 0
            assert report.seed == seed

    def test_determinism(self):
        a = audit("THM_2_5", n_max=15)
        b = audit("THM_2_5", n_max=15)
        assert (a.instances_run, a.passes, a.failures) == (
            b.instances_run, b.passes, b.failures,
        )
        assert a.first_counterexample == b.first_counterexample

    def test_numeric_mode_report(self):
        report = audit("EQ_2_9")
        assert report.mode == "numeric(1e-09)"
        assert report.failures == 0


@pytest.fixture(scope="module")
def reports():
    return audit_all()


class TestAuditAll:
    def test_ordering_and_coverage(self, reports):
        ids = [r.id for r in reports]
        assert ids == sorted(ids)
        assert set(ids) == set(_REGISTRY)

    def test_expected_failures_fail_and_rest_pass(self, reports):
        expected = set(expected_failure_ids())
        assert {"SWAMY_AS_STATED", "PROP_2_3_AS_STATED"} <= expected
        for report in reports:
            if report.id in expected:
                assert report.failures > 0
            else:
                assert report.failures == 0

    def test_aggregate_ok(self, reports):
        assert aggregate_ok(reports)

    def test_adjudication(self, reports):
        verdicts = adjudicate(reports)
        for identity_id in expected_failure_ids():
            assert verdicts[identity_id] == "transcription-issue"
        for report in reports:
            if report.id not in expected_failure_ids():
                assert verdicts[report.id] == "pass"

    def test_provenance_filter(self):
        corrected = audit_all(CORRECTED, n_max=5)
        assert corrected
        assert all(r.provenance == CORRECTED for r in corrected)
        assert all(r.failures == 0 for r in corrected)

    def test_aggregate_fails_on_unexpected_failure(self, reports):
        from dataclasses import replace

        sabotaged = [
            replace(
                r,
                failures=r.instances_run,
                passes=0,
                first_counterexample=Counterexample({}, "0", "1"),
            )
            if r.id == "EQ_1_2"
            else r
            for r in reports
        ]
        assert not aggregate_ok(sabotaged)

    def test_vanished_anomaly_is_flagged(self, reports):
        from dataclasses import replace

        vanished = [
            replace(r, failures=0, passes=r.instances_run, first_counterexample=None)
            if r.id == "SWAMY_AS_STATED"
            else r
            for r in reports
        ]
        verdicts = adjudicate(vanished)
        assert verdicts["SWAMY_AS_STATED"] == "anomaly-vanished"
        assert verdicts["PROP_2_3_AS_STATED"] == "transcription-issue"
        assert not aggregate_ok(vanished)

    def test_inputs_rendered_only_for_kept_counterexamples(self, monkeypatch):
        module = importlib.import_module("fibquat.audit")
        render = module._render_inputs
        calls = []

        def counting(inputs):
            calls.append(inputs)
            return render(inputs)

        monkeypatch.setattr(module, "_render_inputs", counting)
        failing = [r for r in audit_all() if r.failures]
        assert len(failing) == 4
        assert [render(inputs) for inputs in calls] == [
            r.first_counterexample.inputs for r in failing
        ]
