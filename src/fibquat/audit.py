"""Registry of verifiable identities and the audit engine.

Each entry is a parameterized, mechanically checkable statement about the
quaternion sequences, keyed by a stable id.  Entries carry a provenance tag:

* ``as-stated``        -- the formula exactly as transcribed, even when the
                          transcription is known to fail;
* ``corrected-variant``-- a repair validated by independent exact
                          computation, referencing its as-stated sibling.

A pairing is declared once, by ``corrects=`` on the corrected variant; the
provenance tags and the documented anomalies (the as-stated entries that
have a corrected variant) are derived from it.  Failing as-stated entries
are not artifact bugs; the adjudication helper separates "transcription
issue" (corrected sibling passes) from "artifact error" (no passing sibling).  All randomness is drawn from a per-audit
seeded generator, so reports are deterministic and embed their seed.
"""

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from ._kernel import Rational
from .algebra import AlgebraParams, Quaternion, basis, combine
from .analytic import binet_fib, binet_narayana, binet_narayana_quat, gf_check
from .errors import (
    ConsistencyError,
    DomainError,
    IndicatorDegenerateError,
    NotInvertibleError,
    ScanExhaustedError,
    SeriesMismatchError,
    UnknownIdentityError,
)
from .normforms import (
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    norm_fib_formula,
    norm_genfib_formula,
    swamy_norm_as_stated,
    swamy_norm_corrected,
    verify_threshold_report,
)
from .quatseq import fib_quat, gen_fib_quat, narayana_quat
from .sequences import (
    GenFibParams, binom, fib, figurate, gen_fib, herd_total, narayana, narayana_values,
)
from .surd import ALPHA

DEFAULT_SEED = 1729

AS_STATED = "as-stated"
CORRECTED = "corrected-variant"

NUMERIC_TOLERANCE = 1e-9  # relative error allowed to every Binet (numeric) entry

_H11 = AlgebraParams(Rational(1), Rational(1))


@dataclass(frozen=True)
class Counterexample:
    """First failing instance, with exact values sufficient to recheck by hand."""

    inputs: dict
    lhs: str
    rhs: str


@dataclass(frozen=True)
class AuditReport:
    id: str
    paper_ref: str
    mode: str
    provenance: str
    seed: int
    instances_run: int
    passes: int
    failures: int
    first_counterexample: Optional[Counterexample]
    elapsed: float

    def __post_init__(self):
        if self.passes + self.failures != self.instances_run:
            raise ValueError("passes + failures must equal instances_run")
        if (self.failures > 0) != (self.first_counterexample is not None):
            raise ValueError("counterexample present iff failures > 0")


@dataclass(frozen=True)
class IdentityCheck:
    id: str
    paper_ref: str
    tolerance: Optional[float]  # set for numeric entries, None for exact ones
    corrects: Optional[str]  # as-stated sibling of a corrected variant
    domain: str
    run: Callable[[random.Random, Optional[int]], Iterable[tuple]]

    @property
    def provenance(self):
        return AS_STATED if self.corrects is None else CORRECTED

    @property
    def expect_failures(self):
        """A documented anomaly: some corrected variant repairs this entry."""
        return self.id in _CORRECTED_BY

    @property
    def mode(self):
        return "exact" if self.tolerance is None else "numeric"

    def mode_label(self):
        if self.mode == "numeric":
            return f"numeric({self.tolerance:g})"
        return self.mode


_REGISTRY: dict[str, IdentityCheck] = {}
_CORRECTED_BY: dict[str, str] = {}  # as-stated id -> its corrected variant's id


def _identity(identity_id, *, paper_ref, domain, tolerance=None, corrects=None):
    """Register an entry; ``corrects`` names the as-stated entry it repairs,
    which must already be registered, as-stated, and not yet repaired."""
    def register(fn):
        if identity_id in _REGISTRY:
            raise ValueError(f"duplicate identity id {identity_id}")
        if corrects is not None:
            sibling = _REGISTRY.get(corrects)
            if sibling is None or sibling.corrects is not None or corrects in _CORRECTED_BY:
                raise ValueError(
                    f"{identity_id} corrects {corrects}, which is not a registered "
                    f"as-stated entry without a corrected variant"
                )
            _CORRECTED_BY[corrects] = identity_id
        _REGISTRY[identity_id] = IdentityCheck(
            id=identity_id,
            paper_ref=paper_ref,
            tolerance=tolerance,
            corrects=corrects,
            domain=domain,
            run=fn,
        )
        return fn

    return register


# ---------------------------------------------------------------------------
# shared helpers

def _span(n_max, default):
    return default if n_max is None else n_max


def _rand_rational(rng, bound=8, max_den=4):
    return Rational(rng.randint(-bound, bound), rng.randint(1, max_den))


def _rand_params(rng, bound=8, max_den=4):
    return AlgebraParams(_rand_rational(rng, bound, max_den), _rand_rational(rng, bound, max_den))


def _rand_pq(rng, bound=9):
    return GenFibParams(rng.randint(-bound, bound), rng.randint(-bound, bound))


def _rand_quat(rng, params):
    return Quaternion(
        _rand_rational(rng), _rand_rational(rng), _rand_rational(rng), _rand_rational(rng),
        params,
    )


# instances yield raw inputs, lhs and rhs; audit() renders only the
# counterexample it keeps

def _exact(inputs, lhs, rhs):
    return (inputs, lhs == rhs, lhs, rhs)


def _near(approx, exact_value):
    return abs(approx - exact_value) / max(1, abs(exact_value)) <= NUMERIC_TOLERANCE


def _close(inputs, approx, exact_value):
    return (inputs, _near(approx, exact_value), approx, exact_value)


def _render_inputs(inputs):
    """Counterexample inputs as strings; an algebra becomes beta1, beta2 in its place."""
    out = {}
    for key, value in inputs.items():
        if isinstance(value, AlgebraParams):
            out["beta1"] = str(value.beta1)
            out["beta2"] = str(value.beta2)
        else:
            out[key] = str(value)
    return out


def _iterated_prefix_sum(n, m):
    # independent route to the figurate sum: m-fold prefix sums of 1..n
    seq = list(range(1, n + 1))
    for _ in range(m):
        total = 0
        out = []
        for v in seq:
            total += v
            out.append(total)
        seq = out
    return seq[-1]


# ---------------------------------------------------------------------------
# scalar sequence identities

@_identity(
    "EQ_1_1",
    paper_ref="h^{p,q}_(n+1) = p*f_n + q*f_(n+1)",
    domain="n in [0, 200] x 50 seeded integer pairs (p, q)",
)
def _eq_1_1(rng, n_max):
    hi = _span(n_max, 200)
    pairs = [_rand_pq(rng) for _ in range(50)]
    for pq in pairs:
        p, q = pq
        for n in range(0, hi + 1):
            yield _exact(
                {"p": p, "q": q, "n": n},
                gen_fib(pq, n + 1),
                p * fib(n) + q * fib(n + 1),
            )


@_identity(
    "EQ_1_2",
    paper_ref="n(F_n) = 3*f_(2n+3) in H(1,1)",
    domain="n in [0, 100]",
)
def _eq_1_2(rng, n_max):
    for n in range(0, _span(n_max, 100) + 1):
        yield _exact({"n": n}, fib_quat(_H11, n).norm(), 3 * fib(2 * n + 3))


@_identity(
    "EQ_2_3",
    paper_ref="sum_{m=1..n} (-1)^(m+1) f_m = (-1)^(n+1) f_(n-1) + 1",
    domain="n in [1, 200]",
)
def _eq_2_3(rng, n_max):
    total = 0
    sign = 1
    for n in range(1, _span(n_max, 200) + 1):
        total += sign * fib(n)
        yield _exact({"n": n}, total, sign * fib(n - 1) + 1)
        sign = -sign


@_identity(
    "EQ_2_5",
    paper_ref="f_n^2 + f_(n-1)^2 = f_(2n-1)",
    domain="n in [1, 200]",
)
def _eq_2_5(rng, n_max):
    for n in range(1, _span(n_max, 200) + 1):
        yield _exact({"n": n}, fib(n) ** 2 + fib(n - 1) ** 2, fib(2 * n - 1))


@_identity(
    "EQ_2_6",
    paper_ref="f_(2n) = f_n^2 + 2*f_n*f_(n-1)",
    domain="n in [1, 200]",
)
def _eq_2_6(rng, n_max):
    for n in range(1, _span(n_max, 200) + 1):
        yield _exact(
            {"n": n}, fib(2 * n), fib(n) ** 2 + 2 * fib(n) * fib(n - 1)
        )


def _narayana_prefix_sum(step, offset, rhs_offset, constant, rng, n_max):
    """u_(step+offset) + ... + u_(step*n+offset) = u_(step*n+rhs_offset) - constant."""
    total = 0
    for n in range(1, _span(n_max, 100) + 1):
        total += narayana(step * n + offset)
        yield _exact({"n": n}, total, narayana(step * n + rhs_offset) - constant)


_identity(
    "INTRO_PROP_1",
    paper_ref="u_1 + u_2 + ... + u_n = u_(n+3) - 1",
    domain="n in [1, 100]",
)(partial(_narayana_prefix_sum, 1, 0, 3, 1))
_identity(
    "INTRO_PROP_2",
    paper_ref="u_1 + u_4 + ... + u_(3n-2) = u_(3n-1)",
    domain="n in [1, 100]",
)(partial(_narayana_prefix_sum, 3, -2, -1, 0))
_identity(
    "INTRO_PROP_3",
    paper_ref="u_2 + u_5 + ... + u_(3n-1) = u_(3n)",
    domain="n in [1, 100]",
)(partial(_narayana_prefix_sum, 3, -1, 0, 0))
_identity(
    "INTRO_PROP_4",
    paper_ref="u_3 + u_6 + ... + u_(3n) = u_(3n+1) - 1",
    domain="n in [1, 100]",
)(partial(_narayana_prefix_sum, 3, 0, 1, 1))


@_identity(
    "INTRO_PROP_5",
    paper_ref="u_(n+m) = u_(n-1)*u_(m+2) + u_(n-2)*u_m + u_(n-3)*u_(m+1)",
    domain="n, m in [1, 100]",
)
def _intro_prop_5(rng, n_max):
    hi = _span(n_max, 100)
    for n in range(1, hi + 1):
        for m in range(1, hi + 1):
            yield _exact(
                {"n": n, "m": m},
                narayana(n + m),
                narayana(n - 1) * narayana(m + 2)
                + narayana(n - 2) * narayana(m)
                + narayana(n - 3) * narayana(m + 1),
            )


@_identity(
    "INTRO_PROP_6",
    paper_ref="u_(2n) = u_(n+1)^2 + u_(n-1)^2 - u_(n-2)^2",
    domain="n in [1, 100]",
)
def _intro_prop_6(rng, n_max):
    for n in range(1, _span(n_max, 100) + 1):
        yield _exact(
            {"n": n},
            narayana(2 * n),
            narayana(n + 1) ** 2 + narayana(n - 1) ** 2 - narayana(n - 2) ** 2,
        )


@_identity(
    "INTRO_PROP_7",
    paper_ref="u_n is even for n in {7k, 7k+4, 7k+6}",
    domain="k in [0, 30], all three residue classes",
)
def _intro_prop_7(rng, n_max):
    for k in range(0, _span(n_max, 30) + 1):
        for n in (7 * k, 7 * k + 4, 7 * k + 6):
            yield _exact({"k": k, "n": n}, narayana(n) % 2, 0)


@_identity(
    "INTRO_PROP_8",
    paper_ref="3 divides u_n for n in {8k, 8k-1, 8k-3}",
    domain="k in [0, 30], all three residue classes",
)
def _intro_prop_8(rng, n_max):
    for k in range(0, _span(n_max, 30) + 1):
        for n in (8 * k, 8 * k - 1, 8 * k - 3):
            yield _exact({"k": k, "n": n}, narayana(n) % 3, 0)


@_identity(
    "SH06",
    paper_ref="u_n = sum_{m=0..[n/3]} C([n/3], m) u_(n - [n/3] - 2m)",
    domain="n in [2, 150]",
)
def _sh06(rng, n_max):
    for n in range(2, _span(n_max, 150) + 1):
        t = n // 3
        total = sum(binom(t, m) * narayana(n - t - 2 * m) for m in range(t + 1))
        yield _exact({"n": n}, narayana(n), total)


@_identity(
    "NEG_INDEX_U",
    paper_ref="u_n = u_(n+3) - u_(n+2) extends the sequence (and U_n) to negative n",
    domain="scalars for n in [-60, 57]; quaternions for n in [-30, 10]",
)
def _neg_index_u(rng, n_max):
    hi = _span(n_max, 57)
    for n in range(-60, hi + 1):
        yield _exact(
            {"level": "scalar", "n": n},
            narayana(n),
            narayana(n + 3) - narayana(n + 2),
        )
    for n in range(-30, 11):
        yield _exact(
            {"level": "quaternion", "n": n},
            narayana_quat(_H11, n),
            narayana_quat(_H11, n + 3) - narayana_quat(_H11, n + 2),
        )


@_identity(
    "FIGURATE_STAR",
    paper_ref="S_n^(m) = n(n+1)...(n+m)/(m+1)! equals the m-fold prefix sum of 1..n",
    domain="n in [1, 40], m in [0, 8]",
)
def _figurate_star(rng, n_max):
    hi = _span(n_max, 40)
    for n in range(1, hi + 1):
        for m in range(0, 9):
            yield _exact(
                {"n": n, "m": m}, figurate(n, m), _iterated_prefix_sum(n, m)
            )


@_identity(
    "HERD_2745",
    paper_ref="herd growth x_n = x_(n-1) + x_(n-3) from 2, 3, 4; "
    "equals 1 + Y + sum_j S^(j)_(Y-3j); year 20 gives 2745",
    domain="years in [1, 60]",
)
def _herd(rng, n_max):
    xs = [2, 3, 4]
    for year in range(1, _span(n_max, 60) + 1):
        while len(xs) < year:
            xs.append(xs[-1] + xs[-3])
        expected = xs[year - 1] if year != 20 else 2745
        yield _exact({"years": year}, herd_total(year), expected)


# ---------------------------------------------------------------------------
# quaternion algebra and module structure

@_identity(
    "MUL_TABLE",
    paper_ref="e2e2=-b1, e3e3=-b2, e4e4=-b1b2, e2e3=e4=-e3e2, "
    "e2e4=-b1e3=-e4e2, e3e4=b2e2=-e4e3",
    domain="all 16 ordered basis products in H(1,1) and 4 seeded algebras",
)
def _mul_table(rng, n_max):
    algebras = [_H11] + [_rand_params(rng) for _ in range(4)]
    names = ("1", "e2", "e3", "e4")
    for params in algebras:
        one, e2, e3, e4 = basis(params)
        b1 = params.beta1
        b2 = params.beta2
        expected = [
            [one, e2, e3, e4],
            [e2, one.scale(-b1), e4, e3.scale(-b1)],
            [e3, -e4, one.scale(-b2), e2.scale(b2)],
            [e4, e3.scale(b1), e2.scale(-b2), one.scale(-(b1 * b2))],
        ]
        units = (one, e2, e3, e4)
        for i in range(4):
            for j in range(4):
                yield _exact(
                    {"params": params, "left": names[i], "right": names[j]},
                    units[i] * units[j],
                    expected[i][j],
                )


@_identity(
    "NORM_EXPR",
    paper_ref="a*conj(a) = (a1^2 + b1 a2^2 + b2 a3^2 + b1 b2 a4^2) * 1",
    domain="200 seeded random rational quaternions",
)
def _norm_expr(rng, n_max):
    count = _span(n_max, 200)
    for _ in range(count):
        params = _rand_params(rng)
        a = _rand_quat(rng, params)
        yield _exact(
            {"params": params, "a": a},
            a * a.conj(),
            Quaternion.scalar(a.norm(), params),
        )


@_identity(
    "THM_2_1",
    paper_ref="a*H^{p,q}_n + b*H^{p',q'}_n = H^{ap+bp', aq+bq'}_n",
    domain="1000 seeded random tuples (a, b, p, q, p', q', n), n in [-20, 80]",
)
def _thm_2_1(rng, n_max):
    count = _span(n_max, 1000)
    for _ in range(count):
        params = _rand_params(rng)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        p, q = _rand_pq(rng)
        p2, q2 = _rand_pq(rng)
        n = rng.randint(-20, 80)
        lhs = combine(
            gen_fib_quat(params, GenFibParams(p, q), n),
            gen_fib_quat(params, GenFibParams(p2, q2), n),
            a,
            b,
        )
        rhs = gen_fib_quat(params, GenFibParams(a * p + b * p2, a * q + b * q2), n)
        yield _exact(
            {"params": params, "a": a, "b": b, "p": p, "q": q,
             "p_prime": p2, "q_prime": q2, "n": n},
            lhs,
            rhs,
        )


@_identity(
    "THM_2_2_I",
    paper_ref="sum_{m=1..n} (-1)^(m+1) F_m = (-1)^(n+1) F_(n-1) + 1 + e3 + e4",
    domain="n in [1, 100] in H(1,1) and one seeded algebra",
)
def _thm_2_2_i(rng, n_max):
    hi = _span(n_max, 100)
    for params in (_H11, _rand_params(rng)):
        constant = Quaternion(1, 0, 1, 1, params)
        total = Quaternion.zero(params)
        sign = 1
        for n in range(1, hi + 1):
            total = total + fib_quat(params, n).scale(sign)
            rhs = fib_quat(params, n - 1).scale(sign) + constant
            yield _exact({"params": params, "n": n}, total, rhs)
            sign = -sign


@_identity(
    "THM_2_2_II",
    paper_ref="sum_{m=1..n} (-1)^(m+1) H^{p,q}_m = "
    "(-1)^(n+1) H^{p,q}_(n-1) - p + q + p*e2 + q*e3 + (p+q)*e4",
    domain="n in [1, 100] x 10 seeded (p, q) in H(1,1) and one seeded algebra",
)
def _thm_2_2_ii(rng, n_max):
    hi = _span(n_max, 100)
    algebras = (_H11, _rand_params(rng))
    pairs = [_rand_pq(rng) for _ in range(10)]
    for params in algebras:
        for pq in pairs:
            p, q = pq
            constant = Quaternion(-p + q, p, q, p + q, params)
            total = Quaternion.zero(params)
            sign = 1
            for n in range(1, hi + 1):
                total = total + gen_fib_quat(params, pq, n).scale(sign)
                rhs = gen_fib_quat(params, pq, n - 1).scale(sign) + constant
                yield _exact({"params": params, "p": p, "q": q, "n": n}, total, rhs)
                sign = -sign


# ---------------------------------------------------------------------------
# norm formulas

@_identity(
    "THM_2_4",
    paper_ref="n(F_n) = h^{1+2b2,3b2}_(2n+2) + (b1-1) h^{1+2b2,b2}_(2n+3) "
    "- 2(b1-1)(1+b2) f_n f_(n+1)",
    domain="n in [0, 60] x 25 seeded rational (beta1, beta2)",
)
def _thm_2_4(rng, n_max):
    hi = _span(n_max, 60)
    for _ in range(25):
        params = _rand_params(rng)
        for n in range(0, hi + 1):
            yield _exact(
                {"params": params, "n": n},
                norm_fib_formula(params, n),
                fib_quat(params, n).norm(),
            )


@_identity(
    "THM_2_5",
    paper_ref="n(H^{p,q}_n) = p^2 h^{1+2b2,3b2}_(2n) + ... "
    "+ 2pq b2 (1-b1) f_(n+1) f_(n+2)",
    domain="n in [1, 60] x 25 seeded (beta1, beta2, p, q)",
)
def _thm_2_5(rng, n_max):
    hi = _span(n_max, 60)
    for _ in range(25):
        params = _rand_params(rng)
        pq = _rand_pq(rng)
        for n in range(1, hi + 1):
            yield _exact(
                {"params": params, "p": pq.p, "q": pq.q, "n": n},
                norm_genfib_formula(params, pq, n),
                gen_fib_quat(params, pq, n).norm(),
            )


def _swamy_norm(formula, shift, rng, n_max):
    """formula(pq, n + shift) against n(H^{p,q}_(n+shift)) in H(1,1), for
    (p, q) = (0, 1) then 10 seeded pairs and n in [0, 30]."""
    hi = _span(n_max, 30)
    for pq in [GenFibParams(0, 1)] + [_rand_pq(rng) for _ in range(10)]:
        for n in range(0, hi + 1):
            yield _exact(
                {"p": pq.p, "q": pq.q, "n": n},
                formula(pq, n + shift),
                gen_fib_quat(_H11, pq, n + shift).norm(),
            )


def _swamy_proof_form(pq, m):
    # the proof's n(H_m) = 3[(p^2 + 2pq) f_(2m) + (p^2 + q^2) f_(2m-1)]
    p, q = pq
    return 3 * ((p * p + 2 * p * q) * fib(2 * m) + (p * p + q * q) * fib(2 * m - 1))


_SWAMY_DOMAIN = "(p, q) = (0, 1) then 10 seeded pairs; n in [0, 30]"
# the normforms formulas are named at call time, so a profiler that rebinds
# module names (perfbench/tracer.py) still sees these calls
_identity(
    "SWAMY_AS_STATED",
    paper_ref="n(H^{p,q}_n) = 3(2pq - p^2) f_(2n+2) + (p^2 + q^2) f_(2n+3) in H(1,1)",
    domain=_SWAMY_DOMAIN,
)(partial(_swamy_norm, lambda pq, m: swamy_norm_as_stated(pq, m), 0))
_identity(
    "SWAMY_CORRECTED",
    paper_ref="n(H^{p,q}_n) = 3[(2pq - p^2) f_(2n+2) + (p^2 + q^2) f_(2n+3)] in H(1,1)",
    domain=_SWAMY_DOMAIN,
    corrects="SWAMY_AS_STATED",
)(partial(_swamy_norm, lambda pq, m: swamy_norm_corrected(pq, m), 0))
_identity(
    "SWAMY_PROOF_VARIANT",
    paper_ref="n(H^{p,q}_(n+1)) = 3[(p^2 + 2pq) f_(2n+2) + (p^2 + q^2) f_(2n+1)] in H(1,1)",
    domain=_SWAMY_DOMAIN,
)(partial(_swamy_norm, _swamy_proof_form, 1))
_identity(
    "SWAMY_PROOF_VARIANT_CORRECTED",
    paper_ref="n(H^{p,q}_(n+1)) = 3[(2pq - p^2) f_(2n+4) + (p^2 + q^2) f_(2n+5)] in H(1,1)",
    domain=_SWAMY_DOMAIN,
    corrects="SWAMY_PROOF_VARIANT",
)(partial(_swamy_norm, lambda pq, m: swamy_norm_corrected(pq, m), 1))


def _trace_zero_instances(n_max):
    # h_{n+1} = p f_n + q f_{n+1} = 0 via p = -k f_{n+1}, q = k f_n; n >= 1
    # keeps f_n nonzero for the division in (2.4)
    for n in range(1, _span(n_max, 12) + 1):
        for k in (1, 2, 3):
            yield n, k, GenFibParams(-k * fib(n + 1), k * fib(n))


@_identity(
    "PROP_2_3_AS_STATED",
    paper_ref="H_(n+1)^2 = 3 q^2/f_n^2 [f_(2n+1)^2 - f_(n+1) f_(n-2) f_(2n+2)] "
    "when p f_n + q f_(n+1) = 0",
    domain="n in [1, 12], k in {1, 2, 3} with p = -k f_(n+1), q = k f_n, in H(1,1)",
)
def _prop_2_3_as_stated(rng, n_max):
    for n, k, pq in _trace_zero_instances(n_max):
        p, q = pq
        lhs = gen_fib_quat(_H11, pq, n + 1).square()
        scalar = Rational(3 * q * q, fib(n) ** 2) * (
            fib(2 * n + 1) ** 2 - fib(n + 1) * fib(n - 2) * fib(2 * n + 2)
        )
        yield _exact(
            {"n": n, "k": k, "p": p, "q": q},
            lhs,
            Quaternion.scalar(scalar, _H11),
        )


@_identity(
    "PROP_2_3_CORRECTED",
    paper_ref="H_(n+1)^2 = -n(H_(n+1)) * 1 when p f_n + q f_(n+1) = 0 "
    "(trace-zero characteristic identity)",
    domain="n in [1, 12], k in {1, 2, 3} with p = -k f_(n+1), q = k f_n, in H(1,1)",
    corrects="PROP_2_3_AS_STATED",
)
def _prop_2_3_corrected(rng, n_max):
    for n, k, pq in _trace_zero_instances(n_max):
        element = gen_fib_quat(_H11, pq, n + 1)
        yield _exact(
            {"n": n, "k": k, "p": pq.p, "q": pq.q},
            element.square(),
            Quaternion.scalar(-element.norm(), _H11),
        )


# ---------------------------------------------------------------------------
# growth indicators and invertibility

def _eprime_reduction(factor, rng, n_max):
    """E'(b1, b2, p, q) against factor * (p + alpha q)^2 * E(b1, b2)."""
    for _ in range(25):
        params = _rand_params(rng)
        pq = _rand_pq(rng)
        if pq == (0, 0):
            pq = GenFibParams(1, 1)
        literal = growth_indicator_Eprime(params, pq)
        weight = (pq.p + pq.q * ALPHA) ** 2
        yield _exact(
            {"params": params, "p": pq.p, "q": pq.q},
            literal,
            factor * (weight * growth_indicator_E(params)),
        )


_EPRIME_DOMAIN = "25 seeded (beta1, beta2, p, q) with (p, q) != (0, 0)"
_identity(
    "EPRIME_REDUCTION_AS_STATED",
    paper_ref="(1/5)(p + alpha q)^2 [1 + b1 a^2 + b2 a^4 + b1b2 a^6] "
    "= (1/5)(p + alpha q)^2 E(b1, b2)",
    domain=_EPRIME_DOMAIN,
)(partial(_eprime_reduction, Rational(1, 5)))
_identity(
    "EPRIME_REDUCTION_CORRECTED",
    paper_ref="(1/5)(p + alpha q)^2 [1 + b1 a^2 + b2 a^4 + b1b2 a^6] "
    "= (p + alpha q)^2 E(b1, b2)",
    domain=_EPRIME_DOMAIN,
    corrects="EPRIME_REDUCTION_AS_STATED",
)(partial(_eprime_reduction, Rational(1)))


@_identity(
    "THM_2_6_THRESHOLD",
    paper_ref="E' != 0 gives an n' with F_n and H^{p,q}_n invertible for all n >= n'",
    domain="5 fixed + 8 seeded algebras for F_n; 5 seeded (algebra, p, q) for H_n; "
    "scans n in [0, 50] with independent re-verification",
)
def _thm_2_6(rng, n_max):
    hi = _span(n_max, 50)
    fixed = [
        _H11,
        AlgebraParams(Rational(-1), Rational(1)),
        AlgebraParams(Rational(-1), Rational(-1, 3)),
        AlgebraParams(Rational(0), Rational(0)),
        AlgebraParams(Rational(2), Rational(-1, 2)),
    ]
    for params in fixed + [_rand_params(rng) for _ in range(8)]:
        yield _threshold_instance(params, None, hi)
    for _ in range(5):
        params = _rand_params(rng)
        pq = _rand_pq(rng)
        if pq == (0, 0):
            pq = GenFibParams(1, 0)
        yield _threshold_instance(params, pq, hi)


def _threshold_instance(params, pq, n_max):
    inputs = {"params": params, "n_max": n_max}
    if pq is not None:
        inputs["p"] = pq.p
        inputs["q"] = pq.q
    try:
        report = invertibility_threshold(params, pq, n_max)
        verify_threshold_report(report)
    except (ScanExhaustedError, IndicatorDegenerateError, ConsistencyError) as exc:
        # outcomes the mathematics can produce are counterexamples; any other
        # exception is a library error and propagates
        return (inputs, False, f"error: {exc}", "verified threshold report")
    summary = (
        f"n0={report.empirical_n0} sign={report.sign_of_E:+d} "
        f"zeros={list(report.zero_norm_indices)}"
    )
    return (inputs, True, summary, summary)


@_identity(
    "REMARK_2_7",
    paper_ref="the tail F_n, n >= n0, is an infinite set of invertible elements "
    "even when H(b1, b2) has zero divisors",
    domain="four split/degenerate algebras; n in [n0, n0 + 25]",
)
def _remark_2_7(rng, n_max):
    split = [
        AlgebraParams(Rational(-1), Rational(-1, 3)),
        AlgebraParams(Rational(-1), Rational(1)),
        AlgebraParams(Rational(0), Rational(1)),
        AlgebraParams(Rational(2), Rational(-3)),
    ]
    hi = _span(n_max, 25)
    for params in split:
        n0 = invertibility_threshold(params, None, max(50, hi + 25)).empirical_n0
        one = Quaternion.one(params)
        for n in range(n0, n0 + hi + 1):
            element = fib_quat(params, n)
            try:
                product = element * element.inverse()
            except NotInvertibleError as exc:
                yield ({"params": params, "n": n}, False, f"error: {exc}", one)
                continue
            yield _exact({"params": params, "n": n}, product, one)


# ---------------------------------------------------------------------------
# Fibonacci-Narayana quaternion identities

def _narayana_quat_sum(step, rhs_offset, constant, rng, n_max):
    """sum_{m=0..n} U_(step*m) = U_(step*n+rhs_offset) - constant, the constant
    given by its coefficients over (1, e2, e3, e4)."""
    hi = _span(n_max, 100)
    for params in (_H11, _rand_params(rng)):
        subtrahend = Quaternion(*constant, params)
        total = Quaternion.zero(params)
        for n in range(0, hi + 1):
            total = total + narayana_quat(params, step * n)
            yield _exact(
                {"params": params, "n": n},
                total,
                narayana_quat(params, step * n + rhs_offset) - subtrahend,
            )


# U_2 = 1 + e2 + 2e3 + 3e4 in every algebra
_identity(
    "THM_3_1_A",
    paper_ref="(a): sum_{m=0..n} U_m = U_(n+3) - U_2",
    domain="n in [0, 100] in H(1,1) and one seeded algebra",
)(partial(_narayana_quat_sum, 1, 3, (1, 1, 2, 3)))
_identity(
    "THM_3_1_B",
    paper_ref="(b): sum_{m=0..n} U_(3m) = U_(3n+1) - 1 - e4",
    domain="n in [0, 100] in H(1,1) and one seeded algebra",
)(partial(_narayana_quat_sum, 3, 1, (1, 0, 0, 1)))


@_identity(
    "THM_3_2_GF",
    paper_ref="(sum_n U_n t^n)(1 - t - t^3) = U_0 + (U_1 - U_0) t + (U_2 - U_1) t^2",
    domain="truncated exact convolution through degree 300",
)
def _thm_3_2_gf(rng, n_max):
    degree = max(3, _span(n_max, 300))
    inputs = {"max_degree": degree}
    try:
        check = gf_check(degree)
    except SeriesMismatchError as exc:
        yield (inputs, False, f"residual {exc.coefficient} at degree {exc.degree}", "0")
        return
    yield _exact(inputs, check.max_abs_residual_coefficient, (0, 0, 0, 0))


def _binomial_narayana_sum(a, b, rng, n_max):
    """sum_{i=0..n} C(n,i) U_(a*n-2i-1) = U_(b*n-1) in H(1,1)."""
    for n in range(0, _span(n_max, 12) + 1):
        total = Quaternion.zero(_H11)
        for i in range(0, n + 1):
            total = total + narayana_quat(_H11, a * n - 2 * i - 1).scale(binom(n, i))
        yield _exact({"n": n}, total, narayana_quat(_H11, b * n - 1))


_identity(
    "THM_3_5_1",
    paper_ref="sum_{i=0..n} C(n,i) U_(2n-2i-1) = U_(3n-1)",
    domain="n in [0, 12], using negative-index U values",
)(partial(_binomial_narayana_sum, 2, 3))
_identity(
    "THM_3_5_2",
    paper_ref="sum_{i=0..n} C(n,i) U_(3n-2i-1) = U_(4n-1)",
    domain="n in [0, 12], using negative-index U values",
)(partial(_binomial_narayana_sum, 3, 4))


# ---------------------------------------------------------------------------
# Binet evaluations (numeric)

@_identity(
    "EQ_2_9",
    paper_ref="f_n = (alpha^n - beta^n)/sqrt(5), alpha = (1+sqrt5)/2",
    domain="n in [-70, 70]",
    tolerance=NUMERIC_TOLERANCE,
)
def _eq_2_9(rng, n_max):
    hi = min(_span(n_max, 70), 70)
    for n in range(-hi, hi + 1):
        yield _close({"n": n}, binet_fib(n), fib(n))


@_identity(
    "THM_3_3_BINET",
    paper_ref="u_n = [a^(n+1)(g-b) + b^(n+1)(a-g) + g^(n+1)(b-a)] / "
    "[(a-b)(b-g)(g-a)], roots of t^3 - t^2 - 1",
    domain="n in [-20, 90]",
    tolerance=NUMERIC_TOLERANCE,
)
def _thm_3_3(rng, n_max):
    hi = min(_span(n_max, 90), 90)
    for n in range(-20, hi + 1):
        yield _close({"n": n}, binet_narayana(n), narayana(n))


@_identity(
    "THM_3_4_BINET_QUAT",
    paper_ref="U_n = D a^(n+1)/((b-a)(g-a)) + E b^(n+1)/((a-b)(g-b)) "
    "+ F g^(n+1)/((b-g)(a-g)), D = (1, a, a^2, a^3) over (1, e2, e3, e4)",
    domain="n in [0, 60], componentwise",
    tolerance=NUMERIC_TOLERANCE,
)
def _thm_3_4(rng, n_max):
    hi = min(_span(n_max, 60), 87)
    for n in range(0, hi + 1):
        approx = binet_narayana_quat(_H11, n)
        exact_values = tuple(narayana_values(n, n + 4))
        yield ({"n": n}, all(map(_near, approx, exact_values)), approx, exact_values)


# ---------------------------------------------------------------------------
# engine

def list_identities():
    """(id, paper_ref, mode, provenance) for every entry, sorted by id."""
    return [
        (c.id, c.paper_ref, c.mode_label(), c.provenance)
        for c in (_REGISTRY[k] for k in sorted(_REGISTRY))
    ]


def get_check(identity_id):
    try:
        return _REGISTRY[identity_id]
    except KeyError:
        raise UnknownIdentityError(identity_id) from None


def audit(identity_id, *, seed=DEFAULT_SEED, n_max=None):
    """Run one identity over its (possibly overridden) domain.

    ``n_max`` rescales the entry's primary range (index bound or draw count,
    see the entry's domain description); ``seed`` feeds all random draws.
    Instances run in a fixed order and the first failure is kept with exact
    values.  A run of zero instances proves nothing, so it raises
    DomainError instead of reporting a pass.
    """
    check = get_check(identity_id)
    rng = random.Random(seed)
    started = time.perf_counter()
    instances = passes = failures = 0
    first = None
    for inputs, ok, lhs, rhs in check.run(rng, n_max):
        instances += 1
        if ok:
            passes += 1
        else:
            failures += 1
            if first is None:
                first = Counterexample(
                    inputs=_render_inputs(inputs), lhs=str(lhs), rhs=str(rhs)
                )
    elapsed = time.perf_counter() - started
    if not instances:
        raise DomainError(f"{check.id} ran no instances with n_max={n_max}")
    return AuditReport(
        id=check.id,
        paper_ref=check.paper_ref,
        mode=check.mode_label(),
        provenance=check.provenance,
        seed=seed,
        instances_run=instances,
        passes=passes,
        failures=failures,
        first_counterexample=first,
        elapsed=elapsed,
    )


def audit_all(provenance=None, *, seed=DEFAULT_SEED, n_max=None):
    """Run every registered identity (optionally one provenance), sorted by id."""
    reports = []
    for identity_id in sorted(_REGISTRY):
        if provenance is not None and _REGISTRY[identity_id].provenance != provenance:
            continue
        reports.append(audit(identity_id, seed=seed, n_max=n_max))
    return reports


def expected_failure_ids():
    """Ids of as-stated entries documented to fail: those a corrected variant repairs."""
    return sorted(_CORRECTED_BY)


def aggregate_ok(reports):
    """Overall verdict: every entry not documented as failing must pass, and
    every documented anomaly must still fail."""
    return all((report.failures > 0) == (report.id in _CORRECTED_BY) for report in reports)


def adjudicate(reports):
    """Classify each report: 'pass', 'anomaly-vanished', 'transcription-issue'
    or 'artifact-error'.

    A documented anomaly that no longer fails has vanished; a failing entry
    whose corrected variant passes is a transcription issue; a failure with
    no passing corrected variant among the reports is an artifact error.
    """
    failures = {report.id: report.failures for report in reports}
    verdicts = {}
    for report in reports:
        documented = report.id in _CORRECTED_BY
        if report.failures == 0:
            verdicts[report.id] = "anomaly-vanished" if documented else "pass"
        elif documented and failures.get(_CORRECTED_BY[report.id]) == 0:
            verdicts[report.id] = "transcription-issue"
        else:
            verdicts[report.id] = "artifact-error"
    return verdicts
