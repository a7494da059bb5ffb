"""The audit's instance protocol: every entry yields flat tuples
(lhs, rhs, *values) named by its declared ``input_names``, draws its seeded
inputs from the ranges its domain describes, and is judged by its mode,
exact entries by ``==`` and numeric ones within their own tolerance,
componentwise for tuples."""

import importlib
import random
import time
from collections import Counter

import pytest

from fibquat import DEFAULT_SEED, IdentityCheck, audit, fib, narayana
from fibquat.analytic import NARAYANA_INDEX_GUARD
from fibquat.audit import _REGISTRY, NUMERIC_TOLERANCE, _near

audit_module = importlib.import_module("fibquat.audit")  # fibquat.audit is also a function


@pytest.mark.parametrize("identity_id", sorted(_REGISTRY))
def test_instances_carry_their_declared_inputs(identity_id):
    check = _REGISTRY[identity_id]
    names = check.input_names
    assert names and len(set(names)) == len(names)
    instances = list(check.run(random.Random(DEFAULT_SEED), 3))
    assert instances
    for instance in instances:
        assert 3 <= len(instance) <= 2 + len(names)


def test_an_entry_without_names_reports_empty_inputs(monkeypatch):
    check = IdentityCheck(
        id="UNNAMED", paper_ref="0 = 1", tolerance=None, corrects=None, domain="one instance",
        run=lambda rng, n_max: iter([(0, 1, "ignored")]),
    )
    assert check.input_names == ()
    monkeypatch.setitem(_REGISTRY, "UNNAMED", check)
    report = audit("UNNAMED")
    assert (report.instances_run, report.failures) == (1, 1)
    assert report.first_counterexample == ({}, "0", "1")


def draws(rationals=0, seed_pairs=0, extra=None):
    """(low, high) requests to ``_draw``, the audit's one draw: a seeded
    rational draws its numerator in [-8, 8] and its denominator in [1, 4]
    (an algebra takes two, a quaternion four), a seed pair (p, q) two
    integers in [-9, 9]."""
    counts = Counter({(-8, 8): rationals, (1, 4): rationals, (-9, 9): 2 * seed_pairs})
    counts.update(extra or {})
    return +counts  # without the zero counts


# at the default domain; every other entry draws nothing
DRAWS = {
    "EQ_1_1": draws(seed_pairs=50),
    "MUL_TABLE": draws(rationals=4 * 2),
    "NORM_EXPR": draws(rationals=200 * (2 + 4)),
    # 1000 tuples: an algebra, a and b in [-9, 9], two seed pairs, n in [-20, 80]
    "THM_2_1": draws(rationals=1000 * 2, seed_pairs=1000 * 2,
                     extra={(-9, 9): 1000 * 2, (-20, 80): 1000}),
    "THM_2_2_I": draws(rationals=2),
    "THM_2_2_II": draws(rationals=2, seed_pairs=10),
    "THM_2_4": draws(rationals=25 * 2),
    "THM_2_5": draws(rationals=25 * 2, seed_pairs=25),
    "SWAMY_AS_STATED": draws(seed_pairs=10),
    "SWAMY_CORRECTED": draws(seed_pairs=10),
    "SWAMY_PROOF_VARIANT": draws(seed_pairs=10),
    "SWAMY_PROOF_VARIANT_CORRECTED": draws(seed_pairs=10),
    "EPRIME_REDUCTION_AS_STATED": draws(rationals=25 * 2, seed_pairs=25),
    "EPRIME_REDUCTION_CORRECTED": draws(rationals=25 * 2, seed_pairs=25),
    # 8 seeded algebras for F_n, then 5 (algebra, p, q) for H_n
    "THM_2_6_THRESHOLD": draws(rationals=13 * 2, seed_pairs=5),
    "THM_3_1_A": draws(rationals=2),
    "THM_3_1_B": draws(rationals=2),
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
@pytest.mark.parametrize("identity_id", sorted(_REGISTRY))
def test_seeded_draws_match_the_documented_domain(monkeypatch, identity_id, seed):
    requests = []
    draw = audit_module._draw

    def recording_draw(rng, low, high):
        requests.append((low, high))
        return draw(rng, low, high)

    monkeypatch.setattr(audit_module, "_draw", recording_draw)
    rng = random.Random(seed)
    for _ in _REGISTRY[identity_id].run(rng, None):
        pass
    assert Counter(requests) == DRAWS.get(identity_id, Counter())
    # nothing else was drawn, and each request consumed what randint would:
    # replaying the requests through randint reaches the same state
    replay = random.Random(seed)
    for a, b in requests:
        replay.randint(a, b)
    assert replay.getstate() == rng.getstate()


@pytest.mark.parametrize("factor, failures", [(2.0, 1), (0.5, 0)])
def test_a_binet_value_off_by_a_multiple_of_the_tolerance(monkeypatch, factor, failures):
    binet = audit_module.binet_fib

    def off(n):
        value = binet(n)
        return value + factor * NUMERIC_TOLERANCE * abs(fib(n)) if n == 30 else value

    monkeypatch.setattr(audit_module, "binet_fib", off)
    report = audit("EQ_2_9")
    assert report.failures == failures
    if failures:
        assert report.first_counterexample.inputs == {"n": "30"}
        assert report.first_counterexample.rhs == str(fib(30))


def test_the_entry_tolerance_decides(monkeypatch):
    binet = audit_module.binet_fib
    monkeypatch.setattr(
        audit_module, "binet_fib",
        lambda n: binet(n) + 2 * NUMERIC_TOLERANCE * abs(fib(n)) if n == 30 else binet(n),
    )
    assert audit("EQ_2_9").failures == 1
    loose = _REGISTRY["EQ_2_9"]._replace(tolerance=4 * NUMERIC_TOLERANCE)
    monkeypatch.setitem(_REGISTRY, "EQ_2_9", loose)
    report = audit("EQ_2_9")
    assert report.failures == 0
    assert report.mode == "numeric(4e-09)"


@pytest.mark.parametrize("component", range(4))
@pytest.mark.parametrize("factor, failures", [(2.0, 1), (0.5, 0)])
def test_one_quaternion_component_off_fails_thm_3_4(monkeypatch, component, factor, failures):
    binet = audit_module.binet_narayana_quat

    def off(params, n):
        values = list(binet(params, n))
        if n == 20:
            values[component] += factor * NUMERIC_TOLERANCE * narayana(n + component)
        return tuple(values)

    monkeypatch.setattr(audit_module, "binet_narayana_quat", off)
    report = audit("THM_3_4_BINET_QUAT")
    assert report.failures == failures
    if failures:
        assert report.first_counterexample.inputs == {"n": "20"}


def test_the_report_times_its_own_run():
    before = time.perf_counter()
    report = audit("EQ_1_2")
    assert 0 <= report.elapsed <= time.perf_counter() - before


@pytest.mark.parametrize("approx, exact_value, tolerance, near", [
    (0.5, 0, 0.5, True),    # the bound is inclusive
    (0.75, 0, 0.5, False),  # |exact| < 1 divides by 1
    (1.5, 1, 0.5, True),
    (3.0, 2, 0.5, True),    # relative to |exact| past 1
    (3.5, 2, 0.5, False),
    (-3.0, -2, 0.5, True),
    ((1.0, 2.0), (1, 2), 0.0, True),
    ((1.0, 2.5), (1, 2), 0.2, False),
    ((1.0, 2.0), (1, 2, 3), 0.5, False),  # a missing component is not near
])
def test_near(approx, exact_value, tolerance, near):
    assert _near(approx, exact_value, tolerance) is near


def test_thm_3_4_stops_at_the_precision_guard():
    # the components reach index n + 3, which the guard bounds
    report = audit("THM_3_4_BINET_QUAT", n_max=10**6)
    assert (report.instances_run, report.failures) == (NARAYANA_INDEX_GUARD - 3 + 1, 0)


def test_thm_2_6_replaces_degenerate_seeds_by_one_zero():
    # seed 1 draws (p, q) = (0, 0), whose indicator E' vanishes; (1, 0) runs instead
    instances = list(_REGISTRY["THM_2_6_THRESHOLD"].run(random.Random(1), 3))
    seeds = [instance[4:] for instance in instances if len(instance) == 6]
    assert len(seeds) == 5
    assert (1, 0) in seeds and (0, 0) not in seeds
