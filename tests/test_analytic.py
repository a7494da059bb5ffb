"""Cubic roots, found by integer bisection on the doubles and held to a
residual guard; Binet evaluations against the exact sequences; and the
exact generating-function convolution."""

import math
from fractions import Fraction

import pytest

from fibquat import (
    AlgebraParams,
    ConsistencyError,
    DomainError,
    PrecisionGuardError,
    SeriesMismatchError,
    binet_fib,
    binet_narayana,
    binet_narayana_quat,
    cubic_roots,
    fib,
    gf_check,
    narayana,
    narayana_quat,
)
from fibquat import analytic, sequences
from fibquat.analytic import FIB_INDEX_GUARD, NARAYANA_INDEX_GUARD

H11 = AlgebraParams(1, 1)


def rel_err(approx, exact):
    return abs(approx - exact) / max(1, abs(exact))


class TestCubicRoots:
    def test_real_root_value(self):
        roots = cubic_roots()
        assert abs(roots.alpha - 1.465571231876768) < 1e-12
        assert roots.alpha > 1

    def test_real_root_within_one_ulp(self):
        # exact rationals: t^3 - t^2 - 1 changes sign between the doubles
        # next to alpha, so the true root is less than one ulp away, and
        # alpha is the correctly rounded root, where |t^3 - t^2 - 1| is least
        alpha = cubic_roots().alpha
        assert alpha == 1.465571231876768
        below, at, above = (
            Fraction(t) for t in (math.nextafter(alpha, 1.0), alpha, math.nextafter(alpha, 2.0))
        )
        assert below**3 - below**2 - 1 < 0 < above**3 - above**2 - 1
        assert abs(at**3 - at**2 - 1) < min(
            abs(below**3 - below**2 - 1), abs(above**3 - above**2 - 1)
        )

    def test_residuals(self):
        roots = cubic_roots()
        for t in (roots.alpha, roots.beta, roots.gamma):
            assert abs(t**3 - t**2 - 1) / max(1.0, abs(t) ** 3) <= roots.residual_bound
        assert roots.residual_bound <= 1e-14

    def test_conjugate_pair(self):
        roots = cubic_roots()
        assert roots.beta == roots.gamma.conjugate()
        assert roots.beta.imag > 0

    def test_vieta(self):
        roots = cubic_roots()
        # product of the roots equals 1 (constant term is -1)
        assert abs(roots.alpha * abs(roots.beta) ** 2 - 1.0) < 1e-12
        # sum of the roots equals 1 (t^2 coefficient is -1)
        assert abs(roots.alpha + 2 * roots.beta.real - 1.0) < 1e-12

    def test_cached_instance(self):
        assert cubic_roots() is cubic_roots()


def test_cubic_gap_is_the_exact_residual():
    for m in (1 << 52, (1 << 52) + 12345, 6601209640718589, (1 << 53) - 1, 1 << 53):
        t = Fraction(m, 1 << 52)
        assert analytic._cubic_gap(m) == (t**3 - t**2 - 1) * 2**156


def test_bisection_keeps_the_nearer_bracketing_double():
    alpha = analytic._solve_cubic().alpha
    m = int(alpha * 2**52)
    assert analytic._cubic_gap(m - 1) < 0 < analytic._cubic_gap(m + 1)
    assert abs(analytic._cubic_gap(m)) < min(
        abs(analytic._cubic_gap(m - 1)), abs(analytic._cubic_gap(m + 1))
    )
    assert analytic._solve_cubic() == analytic.cubic_roots()


def test_the_residual_guard_reads_the_normalised_residuals(monkeypatch):
    # the guard divides each |t^3 - t^2 - 1| by max(1, |t|^3); the largest
    # of the three passes as the bound and fails just below it
    roots = analytic.cubic_roots()
    worst = max(
        abs(t**3 - t**2 - 1) / max(1.0, abs(t) ** 3) for t in (roots.alpha, roots.beta, roots.gamma)
    )
    monkeypatch.setattr(analytic, "_RESIDUAL_BOUND", worst)
    assert analytic._solve_cubic().alpha == roots.alpha
    monkeypatch.setattr(analytic, "_RESIDUAL_BOUND", math.nextafter(worst, 0.0))
    with pytest.raises(ConsistencyError, match="exceeds bound"):
        analytic._solve_cubic()


class TestBinetFib:
    def test_pinned(self):
        assert rel_err(binet_fib(10), 55) < 1e-9
        assert abs(binet_fib(0)) < 1e-12
        assert abs(binet_fib(2) - binet_fib(1) - binet_fib(0)) < 1e-12

    def test_whole_guarded_range(self):
        worst = 0.0
        for n in range(-FIB_INDEX_GUARD, FIB_INDEX_GUARD + 1):
            worst = max(worst, rel_err(binet_fib(n), fib(n)))
        assert worst < 1e-9

    def test_guard(self):
        binet_fib(FIB_INDEX_GUARD)
        for n in (FIB_INDEX_GUARD + 1, -FIB_INDEX_GUARD - 1):
            with pytest.raises(PrecisionGuardError):
                binet_fib(n)


class TestBinetNarayana:
    def test_pinned(self):
        assert rel_err(binet_narayana(10), 19) < 1e-9
        assert abs(binet_narayana(0)) < 1e-10
        assert rel_err(binet_narayana(23), 2745) < 1e-6

    def test_whole_guarded_range(self):
        worst = 0.0
        for n in range(-NARAYANA_INDEX_GUARD, NARAYANA_INDEX_GUARD + 1):
            worst = max(worst, rel_err(binet_narayana(n), narayana(n)))
        assert worst < 1e-9

    def test_guard(self):
        binet_narayana(NARAYANA_INDEX_GUARD)
        for n in (NARAYANA_INDEX_GUARD + 1, -NARAYANA_INDEX_GUARD - 1):
            with pytest.raises(PrecisionGuardError):
                binet_narayana(n)

    def test_error_envelope_within_tolerance_at_boundary(self):
        # running-max error profile: the envelope never exceeds the tolerance,
        # including at the guard boundary where it peaks
        envelope = 0.0
        profile = []
        for n in range(0, NARAYANA_INDEX_GUARD + 1):
            envelope = max(envelope, rel_err(binet_narayana(n), narayana(n)))
            profile.append(envelope)
        assert profile[-1] < 1e-9
        assert all(a <= b for a, b in zip(profile, profile[1:]))


class TestBinetNarayanaQuat:
    def test_pinned(self):
        for approx, exact in zip(binet_narayana_quat(H11, 2), (1, 1, 2, 3)):
            assert rel_err(approx, exact) < 1e-9
        for approx, exact in zip(binet_narayana_quat(H11, 0), (0, 1, 1, 1)):
            assert rel_err(approx, exact) < 1e-9

    def test_components_reduce_to_scalar_expansion(self):
        for n in range(0, 31):
            components = binet_narayana_quat(H11, n)
            for k in range(4):
                assert abs(components[k] - binet_narayana(n + k)) < 1e-9

    def test_negative_indices(self):
        for n in range(-20, 0):
            components = binet_narayana_quat(H11, n)
            for k in range(4):
                assert rel_err(components[k], narayana(n + k)) < 1e-9

    def test_matches_exact_builder(self):
        for n in range(0, 41):
            exact = narayana_quat(H11, n).coefficients
            for approx, value in zip(binet_narayana_quat(H11, n), exact):
                assert value.denominator == 1
                assert rel_err(approx, value.numerator) < 1e-9

    def test_guard(self):
        with pytest.raises(PrecisionGuardError):
            binet_narayana_quat(H11, NARAYANA_INDEX_GUARD + 1)


@pytest.mark.parametrize("binet, last", [
    (binet_fib, 70),
    (binet_narayana, 90),
    (lambda n: binet_narayana_quat(H11, n), 90),
], ids=["fib", "narayana", "narayana_quat"])
def test_guard_bounds_are_pinned(binet, last):
    # the bounds written out, so a change to either guard constant fails here
    for n in (last, -last):
        binet(n)
    for n in (last + 1, -last - 1):
        with pytest.raises(PrecisionGuardError):
            binet(n)


class TestGfCheck:
    def test_full_run(self):
        check = gf_check(300)
        assert check.degree_checked == 300
        assert check.max_abs_residual_coefficient == (0, 0, 0, 0)

    def test_minimum_degree(self):
        check = gf_check(3)
        assert check.degree_checked == 3

    def test_degree_too_small(self):
        with pytest.raises(DomainError):
            gf_check(2)

    def test_head_coefficients(self):
        # U_0, U_1 - U_0, U_2 - U_1 = (0,1,1,1), (1,0,0,1), (0,0,1,1)
        u = [tuple(narayana(n + k) for k in range(4)) for n in range(3)]
        assert u[0] == (0, 1, 1, 1)
        assert tuple(a - b for a, b in zip(u[1], u[0])) == (1, 0, 0, 1)
        assert tuple(a - b for a, b in zip(u[2], u[1])) == (0, 0, 1, 1)

    def test_degree_three_residual_is_recurrence(self):
        from fibquat import Quaternion

        u0 = narayana_quat(H11, 0)
        u2 = narayana_quat(H11, 2)
        u3 = narayana_quat(H11, 3)
        assert u3 - u2 - u0 == Quaternion.zero(H11)

    @pytest.mark.parametrize("index, degree, coefficient", [
        (0, 3, (-1, 0, 0, 0)),
        (1, 3, (0, -1, 0, 0)),
        (2, 3, (-1, 0, -1, 0)),
        (3, 3, (1, -1, 0, -1)),
        (10, 7, (0, 0, 0, 1)),
        (303, 300, (0, 0, 0, 1)),
    ])
    def test_corrupted_value_is_caught(self, index, degree, coefficient):
        # one Narayana table entry off by one: the first nonzero coefficient
        # of the product names the degree where the recurrence breaks
        sequences.narayana_values(0, 400)  # fill the table past every index read
        table = sequences._narayana._fwd
        table[index] += 1
        try:
            with pytest.raises(SeriesMismatchError) as caught:
                gf_check(300)
        finally:
            table[index] -= 1
        assert caught.value.degree == degree
        assert caught.value.coefficient == coefficient
        assert gf_check(300).max_abs_residual_coefficient == (0, 0, 0, 0)

    @pytest.mark.parametrize("max_degree", [3, 255, 256, 257, 300, 511, 512])
    def test_every_corrupted_index_matches_one_slice(self, max_degree):
        # gf_check reads u in windows; the reference reads u_0 .. u_{D+3} as
        # one slice and reports the least degree whose coefficient is nonzero,
        # so every corruption, at the windows' seams and just past D + 3 too,
        # must get the same report
        table = sequences._narayana._fwd
        sequences.narayana_values(0, max_degree + 12)  # fill the table past every index read

        def one_slice():
            u = table[:max_degree + 4]
            residuals = [a - b - c for a, b, c in zip(u[3:], u[2:], u)]  # r_3 .. r_{D+3}
            first = next((m for m, r in enumerate(residuals, 3) if r), None)
            if first is None:
                return None
            degree = max(3, first - 3)
            return degree, tuple(residuals[degree - 3:degree + 1])

        for index in range(max_degree + 8):
            table[index] += 1
            try:
                expected = one_slice()
                try:
                    gf_check(max_degree)
                    outcome = None
                except SeriesMismatchError as caught:
                    outcome = caught.degree, caught.coefficient
            finally:
                table[index] -= 1
            assert outcome == expected, index
            assert (expected is None) == (index > max_degree + 3), index
