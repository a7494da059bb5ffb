"""The audit draws every seeded input through ``_draw``, which must return
what ``random.Random.randint`` returns and leave the generator in the same
state; the audit blocks of ``golden/cli_formats.txt`` pin those draws.  If
an interpreter release changes how ``randint`` draws, this test fails on
that interpreter.  The audit builds its algebras from four drawn ints, and
each must equal the algebra of the two Rationals those ints make."""

import random

import pytest

from fibquat import AlgebraParams, Rational
from fibquat.algebra import _integer_params
from fibquat.audit import _draw, _rand_params

# the ranges the audit draws from, then widths 1, 2, 8 and 9
RANGES = [(-8, 8), (1, 4), (-9, 9), (-20, 80), (0, 0), (0, 1), (-3, 4), (5, 13)]


@pytest.mark.parametrize("low, high", RANGES)
@pytest.mark.parametrize("seed", [1, 1729, 2**40 + 3])
def test_draw_is_randint(seed, low, high):
    drawn = random.Random(seed)
    reference = random.Random(seed)
    values = [_draw(drawn, low, high) for _ in range(3000)]
    assert values == [reference.randint(low, high) for _ in range(3000)]
    assert drawn.getstate() == reference.getstate()


@pytest.mark.parametrize("seed", [1, 1729, 2**40 + 3])
def test_integer_algebra_is_the_rational_one(seed):
    # every (n, d) the audit draws for a beta, 17 x 4, in both places
    pairs = [(n, d) for n in range(-8, 9) for d in range(1, 5)]
    for n1, d1 in pairs:
        for n2, d2 in pairs:
            built = _integer_params(n1, d1, n2, d2)
            assert built == AlgebraParams(Rational(n1, d1), Rational(n2, d2)), (n1, d1, n2, d2)
    # and as the audit draws one: the same algebra, the generator left alike
    drawn = random.Random(seed)
    reference = random.Random(seed)
    for _ in range(300):
        n1, d1 = reference.randint(-8, 8), reference.randint(1, 4)
        n2, d2 = reference.randint(-8, 8), reference.randint(1, 4)
        assert _rand_params(drawn) == AlgebraParams(Rational(n1, d1), Rational(n2, d2))
    assert drawn.getstate() == reference.getstate()
