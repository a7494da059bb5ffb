"""Quaternion sequence builders against the ``Quaternion`` constructor on
the sequence values, and their componentwise recurrences."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Quaternion,
    Rational,
    combine,
    fib,
    fib_quat,
    gen_fib,
    gen_fib_quat,
    narayana,
    narayana_quat,
)
from fibquat import quatseq
from fibquat.sequences import (
    GENFIB_TABLE_CAP,
    TABLE_CAP,
    _Recurrence,
    fib_values,
    gen_fib_values,
    narayana_values,
)

H11 = AlgebraParams(1, 1)
H23 = AlgebraParams(2, 3)


def test_fib_quat_pinned():
    assert fib_quat(H11, 0) == Quaternion(0, 1, 1, 2, H11)
    assert fib_quat(H23, 1) == Quaternion(1, 1, 2, 3, H23)
    assert fib_quat(H23, 1).params == H23


def test_fib_quat_recurrence():
    for n in range(2, 51):
        assert fib_quat(H11, n) == fib_quat(H11, n - 1) + fib_quat(H11, n - 2)


def test_gen_fib_quat_pinned():
    assert gen_fib_quat(H11, (1, 1), 0) == Quaternion(1, 1, 2, 3, H11)
    for n in range(0, 21):
        assert gen_fib_quat(H23, (0, 1), n) == fib_quat(H23, n)


def test_gen_fib_quat_closure():
    rng = random.Random(11)
    for _ in range(100):
        params = AlgebraParams(
            Rational(rng.randint(-8, 8), rng.randint(1, 4)),
            Rational(rng.randint(-8, 8), rng.randint(1, 4)),
        )
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        p, q, p2, q2 = (rng.randint(-9, 9) for _ in range(4))
        n = rng.randint(-15, 60)
        lhs = combine(
            gen_fib_quat(params, (p, q), n), gen_fib_quat(params, (p2, q2), n), a, b
        )
        assert lhs == gen_fib_quat(params, (a * p + b * p2, a * q + b * q2), n)


def test_narayana_quat_pinned():
    assert narayana_quat(H11, 2) == Quaternion(1, 1, 2, 3, H11)
    assert narayana_quat(H11, 0) == Quaternion(0, 1, 1, 1, H11)
    assert narayana_quat(H11, -1) == Quaternion(0, 0, 1, 1, H11)


def test_narayana_quat_recurrence_extended_range():
    for n in range(-20, 101):
        lhs = narayana_quat(H11, n)
        assert lhs == narayana_quat(H11, n - 1) + narayana_quat(H11, n - 3)


def test_traces_and_scalar_parts():
    pq = GenFibParams(3, -2)
    for n in range(-10, 31):
        assert gen_fib_quat(H23, pq, n).trace() == 2 * gen_fib(pq, n)
        assert fib_quat(H23, n).scalar_part == fib(n)
        assert narayana_quat(H23, n).scalar_part == narayana(n)


def test_coefficients_independent_of_params():
    for n in range(-10, 21):
        assert fib_quat(H11, n).coefficients == fib_quat(H23, n).coefficients
        assert narayana_quat(H11, n).coefficients == narayana_quat(H23, n).coefficients


rationals = st.builds(Rational, st.integers(-40, 40), st.integers(1, 12))
algebras = st.builds(AlgebraParams, rationals, rationals)
seeds = st.builds(GenFibParams, st.integers(-20, 20), st.integers(-20, 20))


def parts(q):
    return (q.x1, q.x2, q.x3, q.x4, q.den)


@settings(max_examples=60)
@given(params=algebras, pq=seeds, n=st.integers(-TABLE_CAP - 6, TABLE_CAP + 6))
def test_builders_match_the_constructor(params, pq, n):
    # the constructor takes the four sequence values as ints and as Rationals
    for built, values in (
        (fib_quat(params, n), [fib(n + i) for i in range(4)]),
        (gen_fib_quat(params, pq, n), [gen_fib(pq, n + i) for i in range(4)]),
        (narayana_quat(params, n), [narayana(n + i) for i in range(4)]),
    ):
        by_ints = Quaternion(*values, params)
        by_rationals = Quaternion(*map(Rational, values), params)
        assert type(built) is Quaternion and built.params is params
        assert parts(built) == parts(by_ints) == parts(by_rationals) and built.den == 1
        assert built == by_ints == by_rationals
        assert hash(built) == hash(by_ints) == hash(by_rationals)


# -- the table-hit fast path against the range route, at every table edge -----

PQ = GenFibParams(3, -7)
H_EDGE = AlgebraParams(Rational(-3, 2), Rational(5, 7))
KINDS = {
    "fib": ("_fib", (0, 1), TABLE_CAP, lambda n: fib_quat(H_EDGE, n),
            lambda n: fib_values(n, n + 4)),
    "genfib": ("_genfib_engine", PQ, GENFIB_TABLE_CAP, lambda n: gen_fib_quat(H_EDGE, PQ, n),
               lambda n: gen_fib_values(PQ, n, n + 4)),
    "narayana": ("_narayana", (0, 1, 1), TABLE_CAP, lambda n: narayana_quat(H_EDGE, n),
                 lambda n: narayana_values(n, n + 4)),
}
STATES = ("cold", "warm", "full")


def engine_in_state(seeds, cap, state):
    """A fresh engine whose forward table holds only the seeds (cold), the
    first 64 entries (warm) or every entry up to its cap (full)."""
    engine = _Recurrence(*seeds, cap=cap)
    engine.values(0, {"cold": 0, "warm": 64, "full": cap + 1}[state])
    return engine


@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("kind", KINDS)
def test_builders_match_value_ranges_across_table_edges(monkeypatch, kind, state):
    name, seeds, cap, build, reference = KINDS[kind]
    filled = len(engine_in_state(seeds, cap, state)._fwd)
    windows = {-5, -1, 0, filled - 4, filled - 3, filled + 1}
    windows |= {s * c + d for s in (1, -1) for c in (TABLE_CAP, GENFIB_TABLE_CAP) for d in (-4, 4)}
    for n in sorted(windows):
        engine = engine_in_state(seeds, cap, state)
        if kind == "genfib":  # the builder must look its own seeds up
            monkeypatch.setattr(quatseq, name, lambda p, q, e={tuple(seeds): engine}: e[p, q])
        else:
            monkeypatch.setattr(quatseq, name, engine)
        # a window the table already holds is read in place, any other by
        # exactly one range read
        in_table = 0 <= n and n + 4 <= len(engine._fwd)
        reads = []
        engine.values = lambda start, stop, read=engine.values: reads.append(start) or read(start, stop)
        built = build(n)
        assert type(built) is Quaternion and built.params is H_EDGE
        assert built[:5] == (*reference(n), 1), (kind, state, n)
        assert reads == ([] if in_table else [n]), (kind, state, n)
        assert len(engine._fwd) <= cap + len(seeds)
