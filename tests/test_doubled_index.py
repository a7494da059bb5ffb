"""The closed forms read at the doubled index only.

V(n), 5*d1*d2 times the norm of F_n or H^{p,q}_n, is (2c0 + c1) f_{2n+1} +
(2c1 - c0) f_{2n} + k (-1)^n, with c0 + c1*alpha the Binet lead of the
threshold (``threshold_oracle.binet_lead``: the indicator residue, times
alpha^-2 = 2 - alpha for H) and k its fitted constant.
``normforms._formula_tops`` returns V itself, folded from Theorem 2.5 onto
exactly these f-values, so each window reads one range, [2s, 2*stop).
"""

import random

import pytest

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Rational,
    fib_quat,
    gen_fib_quat,
    invertibility_threshold,
    normforms,
    verify_threshold_report,
)
from fibquat.sequences import fib
from threshold_oracle import binet_lead

INDICES = list(range(-60, 61)) + [300, 5000]


def binet_lead_and_constant(params, pq):
    lead = binet_lead(params, pq)
    n1, d1, n2, d2 = params
    tops = [
        5 * d1 * d2 * (fib_quat(params, n) if pq is None else gen_fib_quat(params, pq, n)).norm()
        for n in range(3)
    ]
    return lead, normforms._fitted_constant(lead, tops)


def test_the_fold_is_the_binet_form_at_the_doubled_index():
    rng = random.Random(1919)
    for _ in range(200):
        params = AlgebraParams(
            Rational(rng.randint(-12, 12), rng.randint(1, 6)),
            Rational(rng.randint(-12, 12), rng.randint(1, 6)),
        )
        for pq in (None, GenFibParams(rng.randint(-20, 20), rng.randint(-20, 20))):
            (c0, c1), k = binet_lead_and_constant(params, pq)
            tops = normforms._formula_tops(params, pq, -60, 61)
            tops += [normforms._formula_tops(params, pq, n, n + 1)[0] for n in (300, 5000)]
            for n, top in zip(INDICES, tops):
                unit = 1 if n % 2 == 0 else -1
                expected = (2 * c0 + c1) * fib(2 * n + 1) + (2 * c1 - c0) * fib(2 * n) + k * unit
                assert top == expected, (params, pq, n)


@pytest.mark.parametrize("pq", [None, GenFibParams(1, 2)], ids=str)
def test_the_reverify_reads_one_range_per_window(monkeypatch, pq):
    params = AlgebraParams(1, 1)
    report = invertibility_threshold(params, pq, 600)
    read = normforms.fib_values
    calls = []
    monkeypatch.setattr(
        normforms, "fib_values", lambda start, stop: calls.append((start, stop)) or read(start, stop)
    )
    verify_threshold_report(report)
    assert calls == [(0, 512), (512, 1024), (1024, 1202)]
