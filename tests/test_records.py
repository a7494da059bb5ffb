"""The value semantics of the result records, AlgebraParams, Quaternion and
QuadraticSurd.

Each is immutable, survives pickle, copy and deepcopy as an equal value,
and hashes equal when equal; AlgebraParams keeps its ``cleared`` integers
and its repr text.  AlgebraParams, Quaternion and QuadraticSurd are tuples
of their canonical fields that equal no plain tuple and are not ordered.
"""

import copy
import pickle
import random

import pytest

from fibquat import (
    ALPHA,
    AlgebraParams,
    AuditReport,
    Counterexample,
    GenFibParams,
    QuadraticSurd,
    Quaternion,
    Rational,
    audit,
    cubic_roots,
    fib_quat,
    get_check,
    gf_check,
    invertibility_threshold,
)

HALF_THREE = AlgebraParams(Rational(1, 2), 3)


def _records():
    """One value of each type, keyed by a readable id."""
    return {
        "AlgebraParams": HALF_THREE,
        "Quaternion": Quaternion(1, Rational(1, 2), 0, -3, HALF_THREE),
        "QuadraticSurd": QuadraticSurd(Rational(1, 2), Rational(-3, 4)),
        "CubicRoots": cubic_roots(),
        "SeriesCheck": gf_check(10),
        "ThresholdReport": invertibility_threshold(AlgebraParams(1, 1), GenFibParams(2, 1)),
        "Counterexample": Counterexample(inputs={"n": "3"}, lhs="0", rhs="1"),
        "AuditReport-pass": audit("EQ_1_1", n_max=3),
        "AuditReport-fail": audit("SWAMY_AS_STATED", n_max=2),
        "IdentityCheck": get_check("EQ_1_1"),
    }


RECORDS = _records()
ROUND_TRIPS = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_round_trip_is_equal(name, how):
    value = RECORDS[name]
    again = ROUND_TRIPS[how](value)
    assert type(again) is type(value)
    assert again == value


@pytest.mark.parametrize("how", sorted(ROUND_TRIPS))
def test_algebra_params_keeps_cleared(how):
    again = ROUND_TRIPS[how](HALF_THREE)
    assert again.cleared == (1, 2, 3, 1)
    q = Quaternion(1, 2, 3, 4, HALF_THREE)
    assert ROUND_TRIPS[how](q).norm() == q.norm()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_raises(name):
    value = RECORDS[name]
    for attribute in ("id", "beta1", "x1", "c0", "alpha", "degree_checked", "empirical_n0",
                      "lhs"):
        if hasattr(value, attribute):
            with pytest.raises(AttributeError):
                setattr(value, attribute, 0)
            break
    else:
        raise AssertionError(f"no field probed on {name}")


def test_algebra_params_fields_are_read_only():
    for attribute in ("beta1", "beta2", "cleared"):
        with pytest.raises(AttributeError):
            setattr(HALF_THREE, attribute, Rational(5))
    assert HALF_THREE.cleared == (1, 2, 3, 1)


def test_algebra_params_is_the_tuple_of_its_cleared_integers():
    cleared = HALF_THREE.cleared
    assert type(cleared) is tuple and tuple(HALF_THREE) == cleared == (1, 2, 3, 1)
    assert not HALF_THREE == cleared and HALF_THREE != cleared
    assert not cleared == HALF_THREE and cleared != HALF_THREE
    for other in (HALF_THREE, cleared):
        with pytest.raises(TypeError):
            HALF_THREE < other
        with pytest.raises(TypeError):
            other > HALF_THREE
    joined = (1,) + HALF_THREE
    assert type(joined) is tuple and joined == (1, 1, 2, 3, 1)
    for attribute in ("beta1", "beta2", "cleared"):
        with pytest.raises(AttributeError):
            delattr(HALF_THREE, attribute)
    with pytest.raises(AttributeError):
        HALF_THREE.extra = 1
    assert HALF_THREE.beta1 == Rational(1, 2) and HALF_THREE.beta2 == Rational(3)


def test_quaternion_takes_no_new_attributes():
    with pytest.raises(AttributeError):
        RECORDS["Quaternion"].extra = 1


FIELDS = {
    "Quaternion": ("x1", "x2", "x3", "x4", "den", "params"),
    "QuadraticSurd": ("c0", "c1", "den"),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(name):
    value = RECORDS[name]
    before = tuple(value)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, 5)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert tuple(value) == before


def test_golden_ratio_cannot_be_changed():
    with pytest.raises(AttributeError):
        ALPHA.c1 = 2
    assert ALPHA == QuadraticSurd(Rational(1, 2), Rational(1, 2))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equal_to_no_plain_tuple_and_not_ordered(name):
    value = RECORDS[name]
    plain = tuple(value)
    assert not value == plain and value != plain
    assert not plain == value and plain != value
    for other in (value, plain):
        with pytest.raises(TypeError):
            value < other
        with pytest.raises(TypeError):
            other > value


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_sequence_behaviour_is_the_tuple_of_fields(name):
    # the tuple base is part of the type: a value is the sequence of its
    # fields, and a plain tuple on the left concatenates into a plain tuple
    value = RECORDS[name]
    fields = tuple(getattr(value, field) for field in FIELDS[name])
    assert tuple(value) == fields and list(value) == list(fields)
    assert len(value) == len(fields) and value[0] == fields[0] and fields[-1] in value
    joined = (1,) + value
    assert type(joined) is tuple and joined == (1, *fields)
    with pytest.raises(TypeError):
        value + (1,)


def test_surd_inequality_agrees_with_equality():
    three = QuadraticSurd(3)
    for other in (3, Rational(3), QuadraticSurd(Rational(6, 2))):
        assert three == other and not three != other
        assert other == three and not other != three
    assert three != 4 and three != ALPHA


def test_quaternion_dict_key_is_found():
    table = {fib_quat(AlgebraParams(1, 1), 3): 1}
    assert table[fib_quat(AlgebraParams(1, 1), 3)] == 1
    assert fib_quat(AlgebraParams(2, 1), 3) not in table


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"Counterexample", "AuditReport-fail"}))
def test_equal_values_hash_equal(name):
    value = RECORDS[name]
    assert hash(copy.deepcopy(value)) == hash(value)


def test_records_holding_a_dict_are_unhashable():
    # a Counterexample's inputs are a dict, and so is a failing report's
    for name in ("Counterexample", "AuditReport-fail"):
        with pytest.raises(TypeError):
            hash(RECORDS[name])


def test_algebra_params_value_semantics():
    same = AlgebraParams(Rational(2, 4), Rational(3))
    assert same == HALF_THREE and hash(same) == hash(HALF_THREE)
    assert same != AlgebraParams(Rational(1, 2), Rational(-3))
    assert same != (Rational(1, 2), Rational(3))
    assert isinstance(same.beta2, Rational)
    assert repr(HALF_THREE) == "AlgebraParams(beta1=Rational(1, 2), beta2=Rational(3, 1))"
    assert str(HALF_THREE) == "H(1/2, 3)"
    assert {HALF_THREE: 1}[same] == 1


def test_algebra_params_str_renders_each_beta_as_its_rational():
    # integral, negative and half-integer betas, and a few of every kind
    rng = random.Random(2701)
    betas = [Rational(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 7, 12))) for _ in range(60)]
    betas += [Rational(4), Rational(-9), Rational(0), Rational(-5, 2), Rational(7, 2), Rational(-1, 2)]
    for beta1, beta2 in zip(betas, reversed(betas)):
        params = AlgebraParams(beta1, beta2)
        assert str(params) == f"H({params.beta1}, {params.beta2})"


def _report(**changes):
    fields = dict(
        id="X", paper_ref="ref", mode="exact", provenance="as-stated", seed=1,
        instances_run=3, passes=3, failures=0, first_counterexample=None, elapsed=0.0,
    )
    fields.update(changes)
    return AuditReport(**fields)


def test_audit_report_checks_its_counts():
    cex = Counterexample(inputs={}, lhs="0", rhs="1")
    assert _report().passes == 3
    assert _report(passes=2, failures=1, first_counterexample=cex).failures == 1
    with pytest.raises(ValueError):
        _report(passes=2)  # 2 + 0 != 3
    with pytest.raises(ValueError):
        _report(passes=3, failures=1, first_counterexample=cex)  # 3 + 1 != 3
    with pytest.raises(ValueError):
        _report(first_counterexample=cex)  # a counterexample without failures
    with pytest.raises(ValueError):
        _report(passes=2, failures=1)  # failures without a counterexample


def test_audit_report_replace_checks_its_counts():
    report = RECORDS["AuditReport-fail"]
    assert report._replace(seed=2).seed == 2
    with pytest.raises(ValueError):
        report._replace(failures=0, passes=report.instances_run)  # keeps its counterexample
    with pytest.raises(ValueError):
        report._replace(instances_run=report.instances_run + 1)
