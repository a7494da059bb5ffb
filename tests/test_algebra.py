"""Quaternion algebra kernel: multiplication table, conjugation, trace, norm,
inverses, scaling and reduction, and the composition-algebra properties."""

import random

import pytest
from hypothesis import assume, given, strategies as st

from fibquat import (
    AlgebraMismatchError,
    AlgebraParams,
    NotInvertibleError,
    Quaternion,
    Rational,
    basis,
    combine,
    fib_quat,
    gen_fib_quat,
)
from fibquat import algebra

H11 = AlgebraParams(1, 1)
H23 = AlgebraParams(2, 3)
SPLIT = AlgebraParams(-1, Rational(-1, 3))


def rand_rational(rng):
    return Rational(rng.randint(-9, 9), rng.randint(1, 5))


def rand_quat(rng, params):
    return Quaternion(*(rand_rational(rng) for _ in range(4)), params)


def rand_params(rng):
    return AlgebraParams(rand_rational(rng), rand_rational(rng))


class TestMulTable:
    def test_e2_e3_is_e4(self):
        one, e2, e3, e4 = basis(H23)
        assert e2 * e3 == e4

    def test_e4_squared(self):
        for params in (H11, H23, SPLIT):
            one, e2, e3, e4 = basis(params)
            expected = one.scale(-(params.beta1 * params.beta2))
            assert e4 * e4 == expected

    def test_anticommutators(self):
        one, e2, e3, e4 = basis(H23)
        b1, b2 = H23.beta1, H23.beta2
        assert e3 * e2 == -e4
        assert e2 * e4 == e3.scale(-b1)
        assert e4 * e2 == e3.scale(b1)
        assert e3 * e4 == e2.scale(b2)
        assert e4 * e3 == e2.scale(-b2)

    def test_cross_term_expansion(self):
        # (1 + e2)(1 + e3) = 1 + e2 + e3 + e4
        a = Quaternion(1, 1, 0, 0, H23)
        b = Quaternion(1, 0, 1, 0, H23)
        assert a * b == Quaternion(1, 1, 1, 1, H23)


class TestConjTraceNorm:
    def test_scalar_self_conjugate(self):
        assert Quaternion.scalar(1, H11).conj() == Quaternion.scalar(1, H11)

    def test_conj_involution(self):
        rng = random.Random(1)
        for _ in range(50):
            a = rand_quat(rng, rand_params(rng))
            assert a.conj().conj() == a

    def test_conj_of_f0(self):
        assert fib_quat(H11, 0).conj() == Quaternion(0, -1, -1, -2, H11)

    def test_trace(self):
        one, e2, e3, e4 = basis(H11)
        assert e2.trace() == 0
        assert Quaternion.scalar(3, H11).trace() == 6
        assert fib_quat(H11, 1).trace() == 2

    def test_trace_is_a_plus_conj(self):
        rng = random.Random(2)
        for _ in range(50):
            a = rand_quat(rng, rand_params(rng))
            assert a + a.conj() == Quaternion.scalar(a.trace(), a.params)

    def test_norm_values(self):
        assert fib_quat(H11, 0).norm() == 6  # 3 * f_3
        one, e2, e3, e4 = basis(H23)
        assert e2.norm() == H23.beta1
        assert fib_quat(SPLIT, 0).norm() == 0  # zero divisor in a split algebra

    def test_is_scalar_reads_every_vector_part(self):
        assert Quaternion.scalar(Rational(2, 3), H23).is_scalar()
        one = Quaternion.one(H23)
        for e in basis(H23)[1:]:
            assert not (one + e).is_scalar()

    def test_mul_conj_is_pure_scalar_norm(self):
        rng = random.Random(3)
        for _ in range(200):
            a = rand_quat(rng, rand_params(rng))
            product = a * a.conj()
            assert product.is_scalar()
            assert product == Quaternion.scalar(a.norm(), a.params)


def test_function_forms_match_the_methods():
    rng = random.Random(7)
    a, b = rand_quat(rng, H23), rand_quat(rng, H23)
    assert algebra.mul(a, b) == a * b
    assert algebra.conj(a) == a.conj()
    assert algebra.trace(a) == a.trace()
    assert algebra.norm(a) == a.norm()
    assert algebra.square(a) == a * a
    assert algebra.inverse(a) == a.inverse()


class TestSquare:
    def test_basis_square(self):
        one, e2, e3, e4 = basis(H23)
        assert e3.square() == one.scale(-H23.beta2)

    def test_one_plus_e2_squared(self):
        a = Quaternion(1, 1, 0, 0, H11)
        assert a.square() == Quaternion(0, 2, 0, 0, H11)

    def test_trace_zero_square(self):
        rng = random.Random(4)
        for _ in range(50):
            params = rand_params(rng)
            a = Quaternion(0, *(rand_rational(rng) for _ in range(3)), params)
            assert a.square() == Quaternion.scalar(-a.norm(), params)

    def test_characteristic_identity(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rand_quat(rng, rand_params(rng))
            rhs = a.scale(a.trace()) - Quaternion.scalar(a.norm(), a.params)
            assert a.square() == rhs


class TestInverse:
    def test_basis_inverse(self):
        one, e2, e3, e4 = basis(H23)
        assert e2.inverse() == e2.scale(-(1 / H23.beta1))

    def test_zero_norm_raises_with_norm_attached(self):
        with pytest.raises(NotInvertibleError) as info:
            fib_quat(SPLIT, 0).inverse()
        assert info.value.norm == 0

    def test_f2_inverse(self):
        f2 = fib_quat(H11, 2)
        assert f2.norm() == 39  # f_2^2 + f_3^2 + f_4^2 + f_5^2
        assert f2 * f2.inverse() == Quaternion.one(H11)
        assert f2.inverse() == f2.conj().scale(Rational(1, 39))

    @given(st.data())
    def test_times_inverse_is_one(self, data):
        rationals = st.builds(Rational, st.integers(-50, 50), st.integers(1, 12))
        params = AlgebraParams(data.draw(rationals), data.draw(rationals))
        a = Quaternion(*(data.draw(rationals) for _ in range(4)), params)
        assume(a.norm() != 0)
        one = Quaternion.one(params)
        assert a * a.inverse() == one
        assert a.inverse() * a == one


class TestLinearStructure:
    def test_additive_inverse(self):
        x = Quaternion(3, Rational(-1, 2), 0, 7, H23)
        assert combine(x, x, 1, -1) == Quaternion.zero(H23)

    def test_componentwise_addition(self):
        assert combine(fib_quat(H11, 0), fib_quat(H11, 1), 1, 1) == Quaternion(
            1, 2, 3, 5, H11
        )

    def test_seed_mixing(self):
        # q*H^{0,1} + p*H^{1,0} = H^{p,q} at (p, q, n) = (2, 3, 4)
        p, q, n = 2, 3, 4
        lhs = combine(
            gen_fib_quat(H11, (0, 1), n), gen_fib_quat(H11, (1, 0), n), q, p
        )
        assert lhs == gen_fib_quat(H11, (p, q), n)

    def test_params_mismatch_raises(self):
        a = Quaternion(1, 0, 0, 0, H11)
        b = Quaternion(1, 0, 0, 0, H23)
        with pytest.raises(AlgebraMismatchError):
            a + b
        with pytest.raises(AlgebraMismatchError):
            a * b
        with pytest.raises(AlgebraMismatchError):
            combine(a, b, 1, 1)

    def test_equal_params_built_apart_combine(self):
        # an algebra is its pair of betas, not one AlgebraParams object
        a = Quaternion(1, 2, 0, 0, AlgebraParams(2, 3))
        b = Quaternion(0, 1, 1, 0, AlgebraParams(2, 3))
        assert a.params is not b.params
        assert a * b == Quaternion(-4, 1, 1, 2, H23)
        assert a + b == Quaternion(1, 3, 1, 0, H23)
        assert combine(a, b, 2, -1) == Quaternion(2, 3, -1, 0, H23)

    @pytest.mark.parametrize("position", range(4))
    def test_one_rational_among_int_coefficients(self, position):
        coefficients = [3, -1, 4, 2]
        coefficients[position] = Rational(1, 2)
        q = Quaternion(*coefficients, H23)
        numerators = [2 * c for c in (3, -1, 4, 2)]
        numerators[position] = 1
        assert (q.x1, q.x2, q.x3, q.x4, q.den) == (*numerators, 2)
        assert all(type(x) is int for x in q[:5])

    def test_equality_across_algebras_is_false_not_an_error(self):
        assert Quaternion(1, 0, 0, 0, H11) != Quaternion(1, 0, 0, 0, H23)


class TestCompositionAlgebra:
    def test_norm_multiplicativity_fuzz(self):
        rng = random.Random(6)
        for _ in range(1000):
            params = rand_params(rng)
            a = rand_quat(rng, params)
            b = rand_quat(rng, params)
            assert (a * b).norm() == a.norm() * b.norm()

    def test_associativity_fuzz(self):
        rng = random.Random(7)
        for _ in range(1000):
            params = rand_params(rng)
            a, b, c = (rand_quat(rng, params) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_division_algebra_positive_definite(self):
        rng = random.Random(8)
        for _ in range(300):
            a = rand_quat(rng, H11)
            if a:
                assert a.norm() > 0

    def test_scalar_multiplication_operators(self):
        a = Quaternion(1, 2, 3, 4, H11)
        assert 2 * a == a * 2 == a.scale(2)
        assert Rational(1, 2) * a == Quaternion(Rational(1, 2), 1, Rational(3, 2), 2, H11)
        # every scale ends in one reduction, which over den = 1 keeps the
        # numerators as given, common factor and all
        assert tuple(algebra._reduced(6, -4, 10, 8, 1, H11)) == (6, -4, 10, 8, 1, H11)
        assert tuple(algebra._reduced(6, -4, 10, 8, 2, H11)) == (3, -2, 5, 4, 1, H11)
        assert tuple(algebra._reduced(0, 0, 0, 0, 5, H11)) == (0, 0, 0, 0, 1, H11)
