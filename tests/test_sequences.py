"""Integer sequences: pinned values, recurrences both ways, closed-form
relations, divisibility patterns, and the herd computation, whose yearly
totals are held to ``sequence_oracle.walk``."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibquat import (
    AlgebraParams,
    DomainError,
    Rational,
    binom,
    fib,
    figurate,
    gen_fib,
    gen_fib_quat,
    growth_indicator_Eprime,
    herd_total,
    invertibility_threshold,
    narayana,
    norm_genfib_formula,
)
from fibquat.sequences import _genfib_engine, gen_fib_values
from sequence_oracle import walk


def prefix_sum_oracle(n, m):
    seq = list(range(1, n + 1))
    for _ in range(m):
        total = 0
        out = []
        for v in seq:
            total += v
            out.append(total)
        seq = out
    return seq[-1]


class TestFib:
    def test_pinned_values(self):
        assert [fib(n) for n in range(9)] == [0, 1, 1, 2, 3, 5, 8, 13, 21]
        assert fib(0) == 0
        assert fib(-4) == -3

    @given(st.integers(-200, 200))
    def test_recurrence_everywhere(self, n):
        assert fib(n + 2) == fib(n + 1) + fib(n)

    def test_reflection(self):
        for n in range(0, 51):
            assert fib(-n) == (-1) ** (n + 1) * fib(n)

    def test_sum_identities(self):
        for n in range(1, 201):
            assert fib(n) ** 2 + fib(n - 1) ** 2 == fib(2 * n - 1)
            assert fib(2 * n) == fib(n) ** 2 + 2 * fib(n) * fib(n - 1)
        total = 0
        for n in range(1, 201):
            total += (-1) ** (n + 1) * fib(n)
            assert total == (-1) ** (n + 1) * fib(n - 1) + 1


class TestGenFib:
    def test_seeds(self):
        assert gen_fib((2, 1), 0) == 2
        assert gen_fib((2, 1), 1) == 1
        assert gen_fib((2, 1), 5) == 11  # 2, 1, 3, 4, 7, 11

    def test_reduces_to_fib(self):
        for n in range(0, 21):
            assert gen_fib((0, 1), n) == fib(n)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-50, 50))
    def test_recurrence_signed(self, p, q, n):
        assert gen_fib((p, q), n + 2) == gen_fib((p, q), n + 1) + gen_fib((p, q), n)

    def test_closed_form_relation(self):
        import random

        rng = random.Random(10)
        for _ in range(50):
            p, q = rng.randint(-50, 50), rng.randint(-50, 50)
            for n in range(0, 201):
                assert gen_fib((p, q), n + 1) == p * fib(n) + q * fib(n + 1)


class TestNarayana:
    def test_pinned_values(self):
        assert [narayana(n) for n in range(9)] == [0, 1, 1, 1, 2, 3, 4, 6, 9]
        assert narayana(-1) == 0
        assert narayana(23) == 2745  # the herd count, shifted by three years

    def test_negative_values(self):
        assert [narayana(n) for n in range(-8, 1)] == [0, -2, 1, 1, -1, 0, 1, 0, 0]

    @given(st.integers(-100, 150))
    def test_recurrences_both_ways(self, n):
        assert narayana(n + 3) == narayana(n + 2) + narayana(n)
        assert narayana(n) == narayana(n + 3) - narayana(n + 2)

    def test_partial_sum_properties(self):
        for n in range(1, 101):
            assert sum(narayana(m) for m in range(1, n + 1)) == narayana(n + 3) - 1
            assert sum(narayana(3 * m - 2) for m in range(1, n + 1)) == narayana(3 * n - 1)
            assert sum(narayana(3 * m - 1) for m in range(1, n + 1)) == narayana(3 * n)
            assert sum(narayana(3 * m) for m in range(1, n + 1)) == narayana(3 * n + 1) - 1

    def test_addition_and_doubling_formulas(self):
        for n in range(1, 101):
            for m in range(1, 101):
                assert (
                    narayana(n + m)
                    == narayana(n - 1) * narayana(m + 2)
                    + narayana(n - 2) * narayana(m)
                    + narayana(n - 3) * narayana(m + 1)
                )
            assert (
                narayana(2 * n)
                == narayana(n + 1) ** 2 + narayana(n - 1) ** 2 - narayana(n - 2) ** 2
            )

    def test_divisibility_patterns(self):
        for k in range(0, 31):
            for n in (7 * k, 7 * k + 4, 7 * k + 6):
                assert narayana(n) % 2 == 0
            for n in (8 * k, 8 * k - 1, 8 * k - 3):
                assert narayana(n) % 3 == 0

    def test_binomial_recombination(self):
        for n in range(2, 151):
            t = n // 3
            assert narayana(n) == sum(
                binom(t, m) * narayana(n - t - 2 * m) for m in range(t + 1)
            )


class TestConcurrency:
    def test_caches_deterministic_under_threads(self):
        import threading

        from fibquat.sequences import _Recurrence

        results = {}

        def worker(tag):
            values = [fib(n) for n in range(-300, 301)]
            values += [narayana(n) for n in range(-300, 301)]
            values += [gen_fib((5, -7), n) for n in range(-100, 101)]
            results[tag] = values

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        baseline = results[0]
        assert all(results[i] == baseline for i in range(8))
        # against fresh unshared caches
        fresh2 = _Recurrence(0, 1)
        fresh3 = _Recurrence(0, 1, 1)
        assert [fresh2.value(n) for n in range(-300, 301)] == baseline[:601]
        assert [fresh3.value(n) for n in range(-300, 301)] == baseline[601:1202]


class TestBinom:
    def test_pinned(self):
        assert binom(4, 2) == 6
        assert binom(17, 2) == 136
        for n in range(0, 31):
            assert binom(n, 0) == 1

    def test_pascal_consistency(self):
        for n in range(1, 30):
            for k in range(1, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + (
                    binom(n - 1, k) if k <= n - 1 else 0
                )

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            binom(3, 4)
        with pytest.raises(DomainError):
            binom(-1, 0)
        with pytest.raises(DomainError):
            binom(3, -1)


class TestFigurate:
    def test_pinned(self):
        assert figurate(17, 1) == 153
        assert figurate(14, 2) == 560
        assert figurate(2, 6) == 8
        assert figurate(5, 0) == 5

    def test_matches_prefix_sum_oracle(self):
        for n in range(1, 41):
            for m in range(0, 9):
                assert figurate(n, m) == prefix_sum_oracle(n, m)

    def test_matches_product_formula(self):
        for n in range(1, 41):
            for m in range(9):
                product = 1
                for i in range(n, n + m + 1):
                    product *= i
                assert figurate(n, m) == product // math.factorial(m + 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            figurate(0, 1)
        with pytest.raises(DomainError):
            figurate(3, -1)


class TestHerd:
    def test_pinned(self):
        assert herd_total(20) == 2745
        assert herd_total(1) == 2
        assert herd_total(7) == 19  # 2, 3, 4, 6, 9, 13, 19

    def test_routes_agree_over_range(self):
        # herd_total cross-checks internally; also pin the recurrence here
        xs = walk((2, 3, 4), 0, 60)
        for year in range(1, 61):
            assert herd_total(year) == xs[year - 1]

    def test_matches_shifted_narayana(self):
        for year in range(1, 61):
            assert herd_total(year) == narayana(year + 3)

    def test_stepped_figurate_sum_matches_direct_terms(self):
        from fibquat.sequences import _herd_figurate

        for year in range(1, 301):
            direct = 1 + year + sum(
                figurate(year - 3 * j, j) for j in range(1, (year - 1) // 3 + 1)
            )
            assert _herd_figurate(year) == direct

    def test_large_year(self):
        # the figurate route steps each term, so this takes milliseconds
        assert herd_total(8000) == narayana(8003)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            herd_total(0)

    def test_route_mismatch_raises(self, monkeypatch):
        # the figurate side is recomputed on every call; corrupt it and the
        # cross-check must fire
        import fibquat.sequences as seqs
        from fibquat import ConsistencyError

        real = seqs.figurate
        monkeypatch.setattr(seqs, "figurate", lambda n, m: real(n, m) + 1)
        with pytest.raises(ConsistencyError):
            herd_total(20)


def test_seed_engines_hold_ints_whichever_key_comes_first():
    # (1009.0, 1013.0) equals (1009, 1013) and shares its cache entry
    for first, second in (((1009.0, 1013.0), (1009, 1013)), ((1019, 1021), (1019.0, 1021.0))):
        for pq in (first, second):
            values = [gen_fib(pq, n) for n in (-3, 0, 1, 10, 600)] + gen_fib_values(pq, 0, 8)
            assert all(type(value) is int for value in values), pq
            assert str(gen_fib_quat(AlgebraParams(1, 1), pq, 3)) == str(
                gen_fib_quat(AlgebraParams(1, 1), (int(pq[0]), int(pq[1])), 3)
            )
    assert type(gen_fib((True, False), 3)) is int
    for pq in ((1.5, 1), (1, 0.25)):
        with pytest.raises(DomainError):
            gen_fib(pq, 3)


def test_one_seed_rule_on_a_cache_miss_and_a_cache_hit():
    # a seed equal to an integer reads the int table whichever equal key
    # fills the fresh cache entry, h_5 = 3p + 5q
    _genfib_engine.cache_clear()
    orders = (
        (1103, (Rational(1103), 1), (1103, 1)),
        (1109, (1109, 1), (Rational(1109), 1)),
        (1117, (Fraction(1117), 1.0), (1117, 1)),
    )
    for p, first, second in orders:
        for pq in (first, second):
            value = gen_fib(pq, 5)
            assert type(value) is int and value == 3 * p + 5, pq
    # an integer type whose numerator is itself, as numpy's are, still gives ints
    seed = type("Int64Like", (int,), {"numerator": property(lambda self: self)})(1123)
    assert type(gen_fib((seed, 1), 0)) is int and gen_fib((seed, 1), 5) == 3 * 1123 + 5
    h11 = AlgebraParams(1, 1)
    assert invertibility_threshold(h11, (1.0, Rational(1))) == invertibility_threshold(h11, (1, 1))
    assert norm_genfib_formula(h11, (Fraction(2), 1.0), 7) == norm_genfib_formula(h11, (2, 1), 7)
    refused = (
        (Rational(1, 2), 1),
        (float("nan"), 1),
        (1, float("inf")),
        (float("-inf"), 1),
        (1.5, 1),
        (1, Fraction(1, 3)),
    )
    for pq in refused:
        for call in (
            lambda: invertibility_threshold(h11, pq),
            lambda: norm_genfib_formula(h11, pq, 3),
            lambda: growth_indicator_Eprime(h11, pq),
            lambda: gen_fib(pq, 3),
        ):
            with pytest.raises(DomainError):
                call()
