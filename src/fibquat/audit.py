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
seeded generator, so reports are deterministic and embed their seed; every
draw goes through ``_draw``, which reproduces ``Random.randint`` from
``getrandbits``, value for value and state for state.

Each entry declares the names of its inputs once, at registration, and
yields every instance as the flat tuple (lhs, rhs, *values); ``audit``
compares lhs with rhs by the entry's mode and builds the named inputs only
for the first failure, the one counterexample it keeps.
"""

import random
import time
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple, Optional

from ._kernel import Rational, _reduced
from .algebra import AlgebraParams, Quaternion, _integer_params, _linear, basis
from .analytic import (
    FIB_INDEX_GUARD,
    NARAYANA_INDEX_GUARD,
    binet_fib,
    binet_narayana,
    binet_narayana_quat,
    gf_check,
)
from .errors import (
    ConsistencyError,
    DomainError,
    IndicatorDegenerateError,
    NotInvertibleError,
    ScanExhaustedError,
    SeriesMismatchError,
    UnknownIdentityError,
    _shown,
)
from .normforms import (
    _VERIFY_WINDOW,
    _formula_tops,
    growth_indicator_E,
    growth_indicator_Eprime,
    invertibility_threshold,
    swamy_norm_as_stated,
    swamy_norm_corrected,
    verify_threshold_report,
)
from .quatseq import fib_quat, gen_fib_quat, narayana_quat
from .sequences import (
    GenFibParams, binom, fib, fib_values, figurate, gen_fib_values, herd_total, narayana,
    narayana_values,
)
from .surd import ALPHA

DEFAULT_SEED = 1729

AS_STATED = "as-stated"
CORRECTED = "corrected-variant"

NUMERIC_TOLERANCE = 1e-9  # relative error allowed to every Binet (numeric) entry

_H11 = AlgebraParams(Rational(1), Rational(1))


class Counterexample(NamedTuple):
    """First failing instance, with exact values sufficient to recheck by hand."""

    inputs: dict
    lhs: str
    rhs: str


class _AuditReportFields(NamedTuple):
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


class AuditReport(_AuditReportFields):
    """One entry's audit outcome; its counts are checked on every construction,
    ``_replace`` and unpickling included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.passes + self.failures != self.instances_run:
            raise ValueError("passes + failures must equal instances_run")
        if (self.failures > 0) != (self.first_counterexample is not None):
            raise ValueError("counterexample present iff failures > 0")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class IdentityCheck(NamedTuple):
    """A registered entry.  ``run(rng, n_max)`` yields each instance as the
    flat tuple (lhs, rhs, *values), ``values`` the inputs named by
    ``input_names`` in order; an instance may carry fewer values than names."""

    id: str
    paper_ref: str
    tolerance: Optional[float]  # set for numeric entries, None for exact ones
    corrects: Optional[str]  # as-stated sibling of a corrected variant
    domain: str
    run: Callable[[random.Random, Optional[int]], Iterable[tuple]]
    input_names: tuple[str, ...] = ()

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


def _identity(identity_id, *, paper_ref, domain, input_names=(), tolerance=None, corrects=None):
    """Register an entry; ``input_names`` names the values after lhs and rhs
    in each instance it yields, and ``corrects`` names the as-stated entry it
    repairs, which must already be registered, as-stated, and not yet
    repaired."""
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
            input_names=input_names,
        )
        return fn

    return register


# ---------------------------------------------------------------------------
# shared helpers

def _span(n_max, default):
    return default if n_max is None else n_max


def _draw(rng, low, high):
    """``rng.randint(low, high)``: the same value, leaving ``rng`` in the same
    state, by the rejection rule CPython's randint draws with
    (``Random._randbelow_with_getrandbits``) but without its call layers."""
    width = high - low + 1
    k = width.bit_length()
    r = rng.getrandbits(k)
    while r >= width:
        r = rng.getrandbits(k)
    return low + r


def _rand_rational(rng):
    return _reduced(_draw(rng, -8, 8), _draw(rng, 1, 4))


def _rand_params(rng):
    # beta1's numerator and denominator, then beta2's, as _rand_rational draws them
    return _integer_params(
        _draw(rng, -8, 8), _draw(rng, 1, 4), _draw(rng, -8, 8), _draw(rng, 1, 4)
    )


def _rand_pq(rng):
    return GenFibParams(_draw(rng, -9, 9), _draw(rng, -9, 9))


def _rand_quat(rng, params):
    return Quaternion(
        _rand_rational(rng), _rand_rational(rng), _rand_rational(rng), _rand_rational(rng),
        params,
    )


def _near(approx, exact_value, tolerance):
    """Relative error within tolerance; two tuples compare componentwise,
    and tuples of different lengths are never near."""
    if isinstance(approx, tuple) and isinstance(exact_value, tuple):
        return len(approx) == len(exact_value) and all(
            _near(a, e, tolerance) for a, e in zip(approx, exact_value)
        )
    return abs(approx - exact_value) / max(1, abs(exact_value)) <= tolerance


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
    seq = range(1, n + 1)
    for _ in range(m):
        seq = list(accumulate(seq))
    return seq[-1]


# ---------------------------------------------------------------------------
# scalar sequence identities

@_identity(
    "EQ_1_1",
    paper_ref="h^{p,q}_(n+1) = p*f_n + q*f_(n+1)",
    domain="n in [0, 200] x 50 seeded integer pairs (p, q)",
    input_names=("p", "q", "n"),
)
def _eq_1_1(rng, n_max):
    hi = _span(n_max, 200)
    pairs = [_rand_pq(rng) for _ in range(50)]
    for pq in pairs:
        p, q = pq
        # windows of f and h, so memory stays flat however far hi reaches
        for start in range(0, hi + 1, _VERIFY_WINDOW):
            stop = min(start + _VERIFY_WINDOW, hi + 1)
            f = fib_values(start, stop + 1)
            h = gen_fib_values(pq, start + 1, stop + 1)  # h_{n+1} for n in [start, stop)
            for n, h_next, f_n, f_next in zip(range(start, stop), h, f, f[1:]):
                yield (h_next, p * f_n + q * f_next, p, q, n)


@_identity(
    "EQ_1_2",
    paper_ref="n(F_n) = 3*f_(2n+3) in H(1,1)",
    domain="n in [0, 100]",
    input_names=("n",),
)
def _eq_1_2(rng, n_max):
    for n in range(0, _span(n_max, 100) + 1):
        yield (fib_quat(_H11, n).norm(), 3 * fib(2 * n + 3), n)


@_identity(
    "EQ_2_3",
    paper_ref="sum_{m=1..n} (-1)^(m+1) f_m = (-1)^(n+1) f_(n-1) + 1",
    domain="n in [1, 200]",
    input_names=("n",),
)
def _eq_2_3(rng, n_max):
    total = 0
    sign = 1
    for n in range(1, _span(n_max, 200) + 1):
        total += sign * fib(n)
        yield (total, sign * fib(n - 1) + 1, n)
        sign = -sign


@_identity(
    "EQ_2_5",
    paper_ref="f_n^2 + f_(n-1)^2 = f_(2n-1)",
    domain="n in [1, 200]",
    input_names=("n",),
)
def _eq_2_5(rng, n_max):
    for n in range(1, _span(n_max, 200) + 1):
        yield (fib(n) ** 2 + fib(n - 1) ** 2, fib(2 * n - 1), n)


@_identity(
    "EQ_2_6",
    paper_ref="f_(2n) = f_n^2 + 2*f_n*f_(n-1)",
    domain="n in [1, 200]",
    input_names=("n",),
)
def _eq_2_6(rng, n_max):
    for n in range(1, _span(n_max, 200) + 1):
        yield (fib(2 * n), fib(n) ** 2 + 2 * fib(n) * fib(n - 1), n)


def _narayana_prefix_sum(step, offset, rhs_offset, constant, rng, n_max):
    """u_(step+offset) + ... + u_(step*n+offset) = u_(step*n+rhs_offset) - constant."""
    total = 0
    for n in range(1, _span(n_max, 100) + 1):
        total += narayana(step * n + offset)
        yield (total, narayana(step * n + rhs_offset) - constant, n)


_identity(
    "INTRO_PROP_1",
    paper_ref="u_1 + u_2 + ... + u_n = u_(n+3) - 1",
    domain="n in [1, 100]",
    input_names=("n",),
)(partial(_narayana_prefix_sum, 1, 0, 3, 1))
_identity(
    "INTRO_PROP_2",
    paper_ref="u_1 + u_4 + ... + u_(3n-2) = u_(3n-1)",
    domain="n in [1, 100]",
    input_names=("n",),
)(partial(_narayana_prefix_sum, 3, -2, -1, 0))
_identity(
    "INTRO_PROP_3",
    paper_ref="u_2 + u_5 + ... + u_(3n-1) = u_(3n)",
    domain="n in [1, 100]",
    input_names=("n",),
)(partial(_narayana_prefix_sum, 3, -1, 0, 0))
_identity(
    "INTRO_PROP_4",
    paper_ref="u_3 + u_6 + ... + u_(3n) = u_(3n+1) - 1",
    domain="n in [1, 100]",
    input_names=("n",),
)(partial(_narayana_prefix_sum, 3, 0, 1, 1))


@_identity(
    "INTRO_PROP_5",
    paper_ref="u_(n+m) = u_(n-1)*u_(m+2) + u_(n-2)*u_m + u_(n-3)*u_(m+1)",
    domain="n, m in [1, 100]",
    input_names=("n", "m"),
)
def _intro_prop_5(rng, n_max):
    hi = _span(n_max, 100)
    u = narayana_values(-2, 2 * hi + 3)  # u[j + 2] = u_j, one range read
    ms = range(1, hi + 1)
    for n in ms:
        u1, u2, u3 = u[n + 1], u[n], u[n - 1]  # u_(n-1), u_(n-2), u_(n-3)
        # u_(n+m), u_(m+2), u_m, u_(m+1) for m = 1, 2, ...
        for m, lhs, a, b, c in zip(ms, u[n + 3:], u[5:], u[3:], u[4:]):
            yield (lhs, u1 * a + u2 * b + u3 * c, n, m)


@_identity(
    "INTRO_PROP_6",
    paper_ref="u_(2n) = u_(n+1)^2 + u_(n-1)^2 - u_(n-2)^2",
    domain="n in [1, 100]",
    input_names=("n",),
)
def _intro_prop_6(rng, n_max):
    for n in range(1, _span(n_max, 100) + 1):
        yield (
            narayana(2 * n),
            narayana(n + 1) ** 2 + narayana(n - 1) ** 2 - narayana(n - 2) ** 2,
            n,
        )


@_identity(
    "INTRO_PROP_7",
    paper_ref="u_n is even for n in {7k, 7k+4, 7k+6}",
    domain="k in [0, 30], all three residue classes",
    input_names=("k", "n"),
)
def _intro_prop_7(rng, n_max):
    for k in range(0, _span(n_max, 30) + 1):
        for n in (7 * k, 7 * k + 4, 7 * k + 6):
            yield (narayana(n) % 2, 0, k, n)


@_identity(
    "INTRO_PROP_8",
    paper_ref="3 divides u_n for n in {8k, 8k-1, 8k-3}",
    domain="k in [0, 30], all three residue classes",
    input_names=("k", "n"),
)
def _intro_prop_8(rng, n_max):
    for k in range(0, _span(n_max, 30) + 1):
        for n in (8 * k, 8 * k - 1, 8 * k - 3):
            yield (narayana(n) % 3, 0, k, n)


@_identity(
    "SH06",
    paper_ref="u_n = sum_{m=0..[n/3]} C([n/3], m) u_(n - [n/3] - 2m)",
    domain="n in [2, 150]",
    input_names=("n",),
)
def _sh06(rng, n_max):
    for n in range(2, _span(n_max, 150) + 1):
        t = n // 3
        total = sum(binom(t, m) * narayana(n - t - 2 * m) for m in range(t + 1))
        yield (narayana(n), total, n)


@_identity(
    "NEG_INDEX_U",
    paper_ref="u_n = u_(n+3) - u_(n+2) extends the sequence (and U_n) to negative n",
    domain="scalars for n in [-60, 57]; quaternions for n in [-30, 10]",
    input_names=("level", "n"),
)
def _neg_index_u(rng, n_max):
    hi = _span(n_max, 57)
    for n in range(-60, hi + 1):
        yield (narayana(n), narayana(n + 3) - narayana(n + 2), "scalar", n)
    for n in range(-30, 11):
        yield (
            narayana_quat(_H11, n),
            narayana_quat(_H11, n + 3) - narayana_quat(_H11, n + 2),
            "quaternion",
            n,
        )


@_identity(
    "FIGURATE_STAR",
    paper_ref="S_n^(m) = n(n+1)...(n+m)/(m+1)! equals the m-fold prefix sum of 1..n",
    domain="n in [1, 40], m in [0, 8]",
    input_names=("n", "m"),
)
def _figurate_star(rng, n_max):
    hi = _span(n_max, 40)
    for n in range(1, hi + 1):
        for m in range(0, 9):
            yield (figurate(n, m), _iterated_prefix_sum(n, m), n, m)


@_identity(
    "HERD_2745",
    paper_ref="herd growth x_n = x_(n-1) + x_(n-3) from 2, 3, 4; "
    "equals 1 + Y + sum_j S^(j)_(Y-3j); year 20 gives 2745",
    domain="years in [1, 60]",
    input_names=("years",),
)
def _herd(rng, n_max):
    xs = [2, 3, 4]
    for year in range(1, _span(n_max, 60) + 1):
        while len(xs) < year:
            xs.append(xs[-1] + xs[-3])
        expected = xs[year - 1] if year != 20 else 2745
        yield (herd_total(year), expected, year)


# ---------------------------------------------------------------------------
# quaternion algebra and module structure

@_identity(
    "MUL_TABLE",
    paper_ref="e2e2=-b1, e3e3=-b2, e4e4=-b1b2, e2e3=e4=-e3e2, "
    "e2e4=-b1e3=-e4e2, e3e4=b2e2=-e4e3",
    domain="all 16 ordered basis products in H(1,1) and 4 seeded algebras",
    input_names=("params", "left", "right"),
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
                yield (units[i] * units[j], expected[i][j], params, names[i], names[j])


@_identity(
    "NORM_EXPR",
    paper_ref="a*conj(a) = (a1^2 + b1 a2^2 + b2 a3^2 + b1 b2 a4^2) * 1",
    domain="200 seeded random rational quaternions",
    input_names=("params", "a"),
)
def _norm_expr(rng, n_max):
    count = _span(n_max, 200)
    for _ in range(count):
        params = _rand_params(rng)
        a = _rand_quat(rng, params)
        yield (a * a.conj(), Quaternion.scalar(a.norm(), params), params, a)


@_identity(
    "THM_2_1",
    paper_ref="a*H^{p,q}_n + b*H^{p',q'}_n = H^{ap+bp', aq+bq'}_n",
    domain="1000 seeded random tuples (a, b, p, q, p', q', n), n in [-20, 80]",
    input_names=("params", "a", "b", "p", "q", "p_prime", "q_prime", "n"),
)
def _thm_2_1(rng, n_max):
    count = _span(n_max, 1000)
    for _ in range(count):
        params = _rand_params(rng)
        # a and b, then the seed pairs (p, q) and (p', q'), as _rand_pq draws them
        a, b = _draw(rng, -9, 9), _draw(rng, -9, 9)
        p, q = _draw(rng, -9, 9), _draw(rng, -9, 9)
        p2, q2 = _draw(rng, -9, 9), _draw(rng, -9, 9)
        n = _draw(rng, -20, 80)
        lhs = _linear(
            gen_fib_quat(params, (p, q), n), a, 1, gen_fib_quat(params, (p2, q2), n), b, 1
        )
        rhs = gen_fib_quat(params, (a * p + b * p2, a * q + b * q2), n)
        yield (lhs, rhs, params, a, b, p, q, p2, q2, n)


@_identity(
    "THM_2_2_I",
    paper_ref="sum_{m=1..n} (-1)^(m+1) F_m = (-1)^(n+1) F_(n-1) + 1 + e3 + e4",
    domain="n in [1, 100] in H(1,1) and one seeded algebra",
    input_names=("params", "n"),
)
def _thm_2_2_i(rng, n_max):
    hi = _span(n_max, 100)
    for params in (_H11, _rand_params(rng)):
        constant = Quaternion(1, 0, 1, 1, params)
        total = Quaternion.zero(params)
        sign = 1
        previous = fib_quat(params, 0)
        for n in range(1, hi + 1):
            current = fib_quat(params, n)
            total = _linear(total, 1, 1, current, sign, 1)
            yield (total, _linear(previous, sign, 1, constant, 1, 1), params, n)
            previous = current
            sign = -sign


@_identity(
    "THM_2_2_II",
    paper_ref="sum_{m=1..n} (-1)^(m+1) H^{p,q}_m = "
    "(-1)^(n+1) H^{p,q}_(n-1) - p + q + p*e2 + q*e3 + (p+q)*e4",
    domain="n in [1, 100] x 10 seeded (p, q) in H(1,1) and one seeded algebra",
    input_names=("params", "p", "q", "n"),
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
            previous = gen_fib_quat(params, pq, 0)
            for n in range(1, hi + 1):
                current = gen_fib_quat(params, pq, n)
                total = _linear(total, 1, 1, current, sign, 1)
                yield (total, _linear(previous, sign, 1, constant, 1, 1), params, p, q, n)
                previous = current
                sign = -sign



# ---------------------------------------------------------------------------
# norm formulas

def _formula_norms(params, pq, start, stop):
    """(n, closed-form norm of F_n or H^{p,q}_n) for n in [start, stop), the
    closed forms of ``norm_fib_formula`` and ``norm_genfib_formula`` read in
    windows of _VERIFY_WINDOW indices, each V(n) over 5*d1*d2."""
    n1, d1, n2, d2 = params
    bottom = 5 * d1 * d2
    for low in range(start, stop, _VERIFY_WINDOW):
        tops = _formula_tops(params, pq, low, min(low + _VERIFY_WINDOW, stop))
        for n, top in enumerate(tops, low):
            yield n, _reduced(top, bottom)


@_identity(
    "THM_2_4",
    paper_ref="n(F_n) = h^{1+2b2,3b2}_(2n+2) + (b1-1) h^{1+2b2,b2}_(2n+3) "
    "- 2(b1-1)(1+b2) f_n f_(n+1)",
    domain="n in [0, 60] x 25 seeded rational (beta1, beta2)",
    input_names=("params", "n"),
)
def _thm_2_4(rng, n_max):
    hi = _span(n_max, 60)
    for _ in range(25):
        params = _rand_params(rng)
        for n, formula in _formula_norms(params, None, 0, hi + 1):
            yield (formula, fib_quat(params, n).norm(), params, n)


@_identity(
    "THM_2_5",
    paper_ref="n(H^{p,q}_n) = p^2 h^{1+2b2,3b2}_(2n) + ... "
    "+ 2pq b2 (1-b1) f_(n+1) f_(n+2)",
    domain="n in [1, 60] x 25 seeded (beta1, beta2, p, q)",
    input_names=("params", "p", "q", "n"),
)
def _thm_2_5(rng, n_max):
    hi = _span(n_max, 60)
    for _ in range(25):
        params = _rand_params(rng)
        pq = _rand_pq(rng)
        p, q = pq
        for n, formula in _formula_norms(params, pq, 1, hi + 1):
            yield (formula, gen_fib_quat(params, pq, n).norm(), params, p, q, n)


def _swamy_norm(formula, shift, rng, n_max):
    """formula(pq, n + shift) against n(H^{p,q}_(n+shift)) in H(1,1), for
    (p, q) = (0, 1) then 10 seeded pairs and n in [0, 30]."""
    hi = _span(n_max, 30)
    for pq in [GenFibParams(0, 1)] + [_rand_pq(rng) for _ in range(10)]:
        p, q = pq
        for n in range(0, hi + 1):
            yield (formula(pq, n + shift), gen_fib_quat(_H11, pq, n + shift).norm(), p, q, n)


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
    input_names=("p", "q", "n"),
)(partial(_swamy_norm, lambda pq, m: swamy_norm_as_stated(pq, m), 0))
_identity(
    "SWAMY_CORRECTED",
    paper_ref="n(H^{p,q}_n) = 3[(2pq - p^2) f_(2n+2) + (p^2 + q^2) f_(2n+3)] in H(1,1)",
    domain=_SWAMY_DOMAIN,
    input_names=("p", "q", "n"),
    corrects="SWAMY_AS_STATED",
)(partial(_swamy_norm, lambda pq, m: swamy_norm_corrected(pq, m), 0))
_identity(
    "SWAMY_PROOF_VARIANT",
    paper_ref="n(H^{p,q}_(n+1)) = 3[(p^2 + 2pq) f_(2n+2) + (p^2 + q^2) f_(2n+1)] in H(1,1)",
    domain=_SWAMY_DOMAIN,
    input_names=("p", "q", "n"),
)(partial(_swamy_norm, _swamy_proof_form, 1))
_identity(
    "SWAMY_PROOF_VARIANT_CORRECTED",
    paper_ref="n(H^{p,q}_(n+1)) = 3[(2pq - p^2) f_(2n+4) + (p^2 + q^2) f_(2n+5)] in H(1,1)",
    domain=_SWAMY_DOMAIN,
    input_names=("p", "q", "n"),
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
    input_names=("n", "k", "p", "q"),
)
def _prop_2_3_as_stated(rng, n_max):
    for n, k, pq in _trace_zero_instances(n_max):
        p, q = pq
        lhs = gen_fib_quat(_H11, pq, n + 1).square()
        scalar = Rational(3 * q * q, fib(n) ** 2) * (
            fib(2 * n + 1) ** 2 - fib(n + 1) * fib(n - 2) * fib(2 * n + 2)
        )
        yield (lhs, Quaternion.scalar(scalar, _H11), n, k, p, q)


@_identity(
    "PROP_2_3_CORRECTED",
    paper_ref="H_(n+1)^2 = -n(H_(n+1)) * 1 when p f_n + q f_(n+1) = 0 "
    "(trace-zero characteristic identity)",
    domain="n in [1, 12], k in {1, 2, 3} with p = -k f_(n+1), q = k f_n, in H(1,1)",
    input_names=("n", "k", "p", "q"),
    corrects="PROP_2_3_AS_STATED",
)
def _prop_2_3_corrected(rng, n_max):
    for n, k, pq in _trace_zero_instances(n_max):
        element = gen_fib_quat(_H11, pq, n + 1)
        yield (element.square(), Quaternion.scalar(-element.norm(), _H11), n, k, pq.p, pq.q)


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
        yield (literal, factor * (weight * growth_indicator_E(params)), params, pq.p, pq.q)


_EPRIME_DOMAIN = "25 seeded (beta1, beta2, p, q) with (p, q) != (0, 0)"
_identity(
    "EPRIME_REDUCTION_AS_STATED",
    paper_ref="(1/5)(p + alpha q)^2 [1 + b1 a^2 + b2 a^4 + b1b2 a^6] "
    "= (1/5)(p + alpha q)^2 E(b1, b2)",
    domain=_EPRIME_DOMAIN,
    input_names=("params", "p", "q"),
)(partial(_eprime_reduction, Rational(1, 5)))
_identity(
    "EPRIME_REDUCTION_CORRECTED",
    paper_ref="(1/5)(p + alpha q)^2 [1 + b1 a^2 + b2 a^4 + b1b2 a^6] "
    "= (p + alpha q)^2 E(b1, b2)",
    domain=_EPRIME_DOMAIN,
    input_names=("params", "p", "q"),
    corrects="EPRIME_REDUCTION_AS_STATED",
)(partial(_eprime_reduction, Rational(1)))


@_identity(
    "THM_2_6_THRESHOLD",
    paper_ref="E' != 0 gives an n' with F_n and H^{p,q}_n invertible for all n >= n'",
    domain="5 fixed + 8 seeded algebras for F_n; 5 seeded (algebra, p, q) for H_n; "
    "scans n in [0, 50] with independent re-verification",
    # F_n instances carry only params and n_max
    input_names=("params", "n_max", "p", "q"),
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
    inputs = (params, n_max) if pq is None else (params, n_max, pq.p, pq.q)
    try:
        report = invertibility_threshold(params, pq, n_max)
        verify_threshold_report(report)
    except (ScanExhaustedError, IndicatorDegenerateError, ConsistencyError) as exc:
        # outcomes the mathematics can produce are counterexamples (the error
        # text never equals the rhs); any other exception is a library error
        # and propagates
        return (f"error: {exc}", "verified threshold report", *inputs)
    summary = (
        f"n0={report.empirical_n0} sign={report.sign_of_E:+d} "
        f"zeros={list(report.zero_norm_indices)}"
    )
    return (summary, summary, *inputs)


@_identity(
    "REMARK_2_7",
    paper_ref="the tail F_n, n >= n0, is an infinite set of invertible elements "
    "even when H(b1, b2) has zero divisors",
    domain="four split/degenerate algebras; n in [n0, n0 + 25]",
    input_names=("params", "n"),
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
                product = f"error: {exc}"  # a string never equals one
            yield (product, one, params, n)


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
            yield (
                total, narayana_quat(params, step * n + rhs_offset) - subtrahend, params, n
            )


# U_2 = 1 + e2 + 2e3 + 3e4 in every algebra
_identity(
    "THM_3_1_A",
    paper_ref="(a): sum_{m=0..n} U_m = U_(n+3) - U_2",
    domain="n in [0, 100] in H(1,1) and one seeded algebra",
    input_names=("params", "n"),
)(partial(_narayana_quat_sum, 1, 3, (1, 1, 2, 3)))
_identity(
    "THM_3_1_B",
    paper_ref="(b): sum_{m=0..n} U_(3m) = U_(3n+1) - 1 - e4",
    domain="n in [0, 100] in H(1,1) and one seeded algebra",
    input_names=("params", "n"),
)(partial(_narayana_quat_sum, 3, 1, (1, 0, 0, 1)))


@_identity(
    "THM_3_2_GF",
    paper_ref="(sum_n U_n t^n)(1 - t - t^3) = U_0 + (U_1 - U_0) t + (U_2 - U_1) t^2",
    domain="truncated exact convolution through degree 300",
    input_names=("max_degree",),
)
def _thm_3_2_gf(rng, n_max):
    degree = max(3, _span(n_max, 300))
    try:
        check = gf_check(degree)
    except SeriesMismatchError as exc:
        # the residual text never equals the rhs
        yield (f"residual {exc.coefficient} at degree {exc.degree}", "0", degree)
        return
    yield (check.max_abs_residual_coefficient, (0, 0, 0, 0), degree)


def _binomial_narayana_sum(a, b, rng, n_max):
    """sum_{i=0..n} C(n,i) U_(a*n-2i-1) = U_(b*n-1) in H(1,1)."""
    for n in range(0, _span(n_max, 12) + 1):
        total = Quaternion.zero(_H11)
        for i in range(0, n + 1):
            total = total + narayana_quat(_H11, a * n - 2 * i - 1).scale(binom(n, i))
        yield (total, narayana_quat(_H11, b * n - 1), n)


_identity(
    "THM_3_5_1",
    paper_ref="sum_{i=0..n} C(n,i) U_(2n-2i-1) = U_(3n-1)",
    domain="n in [0, 12], using negative-index U values",
    input_names=("n",),
)(partial(_binomial_narayana_sum, 2, 3))
_identity(
    "THM_3_5_2",
    paper_ref="sum_{i=0..n} C(n,i) U_(3n-2i-1) = U_(4n-1)",
    domain="n in [0, 12], using negative-index U values",
    input_names=("n",),
)(partial(_binomial_narayana_sum, 3, 4))


# ---------------------------------------------------------------------------
# Binet evaluations (numeric)

@_identity(
    "EQ_2_9",
    paper_ref="f_n = (alpha^n - beta^n)/sqrt(5), alpha = (1+sqrt5)/2",
    domain="n in [-70, 70]",
    input_names=("n",),
    tolerance=NUMERIC_TOLERANCE,
)
def _eq_2_9(rng, n_max):
    hi = min(_span(n_max, 70), FIB_INDEX_GUARD)
    for n in range(-hi, hi + 1):
        yield (binet_fib(n), fib(n), n)


@_identity(
    "THM_3_3_BINET",
    paper_ref="u_n = [a^(n+1)(g-b) + b^(n+1)(a-g) + g^(n+1)(b-a)] / "
    "[(a-b)(b-g)(g-a)], roots of t^3 - t^2 - 1",
    domain="n in [-20, 90]",
    input_names=("n",),
    tolerance=NUMERIC_TOLERANCE,
)
def _thm_3_3(rng, n_max):
    hi = min(_span(n_max, 90), NARAYANA_INDEX_GUARD)
    for n in range(-20, hi + 1):
        yield (binet_narayana(n), narayana(n), n)


@_identity(
    "THM_3_4_BINET_QUAT",
    paper_ref="U_n = D a^(n+1)/((b-a)(g-a)) + E b^(n+1)/((a-b)(g-b)) "
    "+ F g^(n+1)/((b-g)(a-g)), D = (1, a, a^2, a^3) over (1, e2, e3, e4)",
    domain="n in [0, 60], componentwise",
    input_names=("n",),
    tolerance=NUMERIC_TOLERANCE,
)
def _thm_3_4(rng, n_max):
    # the components reach index n + 3
    hi = min(_span(n_max, 60), NARAYANA_INDEX_GUARD - 3)
    for n in range(0, hi + 1):
        yield (binet_narayana_quat(_H11, n), tuple(narayana_values(n, n + 4)), n)



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
    Instances run in a fixed order.  An exact entry's instance passes when
    lhs == rhs, a numeric entry's when ``_near`` holds under the entry's
    tolerance.  The first failure is kept with exact values, its inputs
    named by the entry's ``input_names``.  A run of zero instances proves
    nothing, so it raises DomainError instead of reporting a pass.
    """
    check = get_check(identity_id)
    tolerance = check.tolerance
    rng = random.Random(seed)
    started = time.perf_counter()
    instances = failures = 0
    first = None
    for instance in check.run(rng, n_max):
        instances += 1
        lhs = instance[0]
        rhs = instance[1]
        if lhs == rhs if tolerance is None else _near(lhs, rhs, tolerance):
            continue
        failures += 1
        if first is None:
            inputs = dict(zip(check.input_names, instance[2:]))
            first = Counterexample(inputs=_render_inputs(inputs), lhs=str(lhs), rhs=str(rhs))
    elapsed = time.perf_counter() - started
    if not instances:
        raise DomainError(f"{check.id} ran no instances with n_max={_shown(n_max)}")
    return AuditReport(
        id=check.id,
        paper_ref=check.paper_ref,
        mode=check.mode_label(),
        provenance=check.provenance,
        seed=seed,
        instances_run=instances,
        passes=instances - failures,
        failures=failures,

        first_counterexample=first,
        elapsed=elapsed,
    )


def audit_all(*, seed=DEFAULT_SEED, n_max=None):
    """Run every registered identity, sorted by id.

    ``adjudicate`` needs every report, so a caller that shows one provenance
    filters this full run.
    """
    return [audit(identity_id, seed=seed, n_max=n_max) for identity_id in sorted(_REGISTRY)]


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
