"""Pinned outcomes of the invertibility threshold scan.

The acceptance test of criterion 11 checks that the scan and its
re-verification agree with each other; these tests pin what both return,
as SHA-256 digests of (empirical_n0, zero_norm_indices):

* at all 1,681 points beta = (i/2, j/2), |i|, |j| <= 20, by the same recipe
  as the ``grid`` benchmark workload, so the digest equals its radius-20
  lattice reference;
* at 200 seeded rational algebras, each with generalized Fibonacci seeds
  (p, q), for both the F_n and the H^{p,q}_n scans.
"""

import hashlib
import random

from fibquat import (
    AlgebraParams,
    GenFibParams,
    Rational,
    invertibility_threshold,
    verify_threshold_report,
)

N_MAX = 50
LATTICE_DIGEST = "8654cc0cab8497c5bc8ae51554fb542a651f3b6caba2bfacbbb29047f1593e82"
SEEDED_DIGEST = "297b6d230669bb3d72b16d73cc518b70bd389fb91461be20adcce167e4785015"


def _seeded_points(seed=8080, count=200):
    # the benchmark's ranges: b_i = num/den with |num| <= 12, den <= 6, and
    # seeds (p, q) != (0, 0) with |p|, |q| <= 9
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        beta = (rng.randint(-12, 12), rng.randint(1, 6), rng.randint(-12, 12), rng.randint(1, 6))
        p = q = 0
        while (p, q) == (0, 0):
            p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        points.append((*beta, p, q))
    return points


def _outcome(params, pq):
    report = invertibility_threshold(params, pq, N_MAX)
    verify_threshold_report(report)
    return f"{report.empirical_n0}:{report.zero_norm_indices}"


def test_lattice_thresholds_are_pinned():
    half = Rational(1, 2)
    digest = hashlib.sha256()
    for i in range(-20, 21):
        for j in range(-20, 21):
            report = invertibility_threshold(AlgebraParams(i * half, j * half), None, N_MAX)
            verify_threshold_report(report)
            digest.update(f"{report.empirical_n0}:{report.zero_norm_indices};".encode())
    assert digest.hexdigest() == LATTICE_DIGEST


def test_seeded_thresholds_are_pinned():
    digest = hashlib.sha256()
    for a, b, c, d, p, q in _seeded_points():
        params = AlgebraParams(Rational(a, b), Rational(c, d))
        fib_outcome = _outcome(params, None)
        genfib_outcome = _outcome(params, GenFibParams(p, q))
        digest.update(f"{fib_outcome}|{genfib_outcome};".encode())
    assert digest.hexdigest() == SEEDED_DIGEST
