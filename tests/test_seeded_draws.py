"""The audit draws every seeded input through ``_draw``, which must return
what ``random.Random.randint`` returns and leave the generator in the same
state; the golden audit files pin those draws.  If an interpreter release
changes how ``randint`` draws, this test fails on that interpreter."""

import random

import pytest

from fibquat.audit import _draw

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
