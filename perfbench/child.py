"""One fresh benchmark process: set up, run one workload iteration, report.

Usage: python3 perfbench/child.py MODE SPEC_JSON

MODE is one of
  probe  set-up only: import ``fibquat.cli`` (the audit workload's set-up);
  grid   the acceptance lattice plus seeded random algebras with (p, q) seeds;
  deep   large-index library queries, each cross-checked by another route;
  cli    ``fibquat.cli.run(argv)`` in this process, stdout captured.

SPEC_JSON holds the inputs ``run.py`` generated from the workload seed and
``"trace": true`` to record per-layer spans.  The process prints one JSON
line: ``ready`` (the monotonic time at which set-up ended), ``ready_spent``
and ``ready_speed`` (the seconds spent sampling the core's speed until then,
and the sum and count of those samples), ``attempted``,
``failed`` and ``wrong`` op counts, short error notes, the kernel backend,
for ``cli`` the captured stdout and exit code, and the per-layer records when
traced.  Untraced, the process samples its core's speed (``speed.py``) and
writes the sampler's report as the last line of stderr.  A failed op is
counted and the iteration goes on.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import Sampler, write_report  # noqa: E402
from tracer import Tracer  # noqa: E402


class Ops:
    """Attempted, failed and wrong op counts of one iteration."""

    def __init__(self, consistency_error):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self._consistency_error = consistency_error

    def run(self, name, check):
        """Run one op; ``check`` returns True when every cross-check holds."""
        self.attempted += 1
        try:
            ok = check()
        except self._consistency_error as exc:  # the library's own cross-check failed
            self.fail(name, f"ConsistencyError: {exc}", wrong=True)
            return
        except Exception as exc:  # a crash fails this op, not the iteration
            self.fail(name, f"{type(exc).__name__}: {exc}", wrong=False)
            return
        if not ok:
            self.fail(name, "wrong result", wrong=True)

    def fail(self, name, text, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 5:
            self.errors.append(f"{name}: {text}"[:300])


# -- independent reference routes ---------------------------------------------

def fib_pair(n):
    """(f_n, f_{n+1}) for n >= 0 by fast doubling, independent of the memos."""
    if n == 0:
        return 0, 1
    a, b = fib_pair(n >> 1)
    c = a * (2 * b - a)
    d = a * a + b * b
    return (d, c + d) if n & 1 else (c, d)


def fib_run(n, count):
    """f_n, ..., f_{n+count-1} for n >= 0."""
    a, b = fib_pair(n)
    out = []
    for _ in range(count):
        out.append(a)
        a, b = b, a + b
    return out


def _mat_mul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def narayana_triple(n):
    """(u_{n+2}, u_{n+1}, u_n) as a power of the 3x3 companion matrix.

    The matrix maps (u_{k+2}, u_{k+1}, u_k) to (u_{k+3}, u_{k+2}, u_{k+1});
    its determinant is 1, so negative n use the integer inverse.
    """
    step = [[1, 0, 1], [1, 0, 0], [0, 1, 0]] if n >= 0 else [[0, 1, 0], [0, 0, 1], [1, -1, 0]]
    power = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    e = abs(n)
    while e:
        if e & 1:
            power = _mat_mul(power, step)
        step = _mat_mul(step, step)
        e >>= 1
    start = (1, 1, 0)  # (u_2, u_1, u_0)
    return tuple(sum(power[i][k] * start[k] for k in range(3)) for i in range(3))


# -- workloads -----------------------------------------------------------------
# Each runner is a generator: what runs before its one ``yield`` is set-up.

def run_grid(fq, spec, ops, out):
    """Lattice beta = (i/2, j/2) as in acceptance criterion 11, then random algebras."""
    radius = spec["radius"]
    n_max = spec["n_max"]
    half = fq.Rational(1, 2)
    lattice = [fq.AlgebraParams(i * half, j * half)
               for i in range(-radius, radius + 1) for j in range(-radius, radius + 1)]
    algebras = [
        (fq.AlgebraParams(fq.Rational(a, b), fq.Rational(c, d)), fq.GenFibParams(p, q))
        for a, b, c, d, p, q in spec["algebras"]
    ]
    yield  # set-up ends here

    digest = hashlib.sha256()

    def point(params, pq):
        indicator = (fq.growth_indicator_E(params) if pq is None
                     else fq.growth_indicator_Eprime(params, pq))
        report = fq.invertibility_threshold(params, pq, n_max)
        fq.verify_threshold_report(report)  # raises ConsistencyError on disagreement
        if pq is None:
            digest.update(f"{report.empirical_n0}:{report.zero_norm_indices};".encode())
        if report.zero_norm_indices:
            return True
        build = fq.fib_quat if pq is None else (lambda a, n: fq.gen_fib_quat(a, pq, n))
        sign = indicator.sign()
        return all(build(params, n).norm().sign() == sign
                   for n in range(report.empirical_n0, n_max + 1))

    for params in lattice:
        ops.run(f"lattice {params}", lambda: point(params, None))
    if digest.hexdigest() != spec["lattice_digest"]:
        ops.fail("lattice", "digest of (n0, zero indices) differs from the reference", wrong=True)
    for params, pq in algebras:
        ops.run(f"algebra {params} {tuple(pq)}", lambda: point(params, pq))


def run_deep(fq, spec, ops, out):
    """Large-index queries on cold memos, each checked against another route."""
    a, b, c, d = spec["beta"]
    params = fq.AlgebraParams(fq.Rational(a, b), fq.Rational(c, d))
    seeds = [fq.GenFibParams(p, q) for p, q in spec["pq"]]
    yield

    def fib_quaternion(n):
        quat = fq.fib_quat(params, n)
        return (list(quat.coefficients) == fib_run(n, 4)
                and quat.norm() == fq.norm_fib_formula(params, n))

    def narayana_quaternion(n):
        c0, c1, c2, c3 = fq.narayana_quat(params, n).coefficients
        u2, u1, u0 = narayana_triple(n)
        return (c0, c1, c2) == (u0, u1, u2) and c3 == c2 + c0

    def gen_fib_quaternion(pq, n):
        quat = fq.gen_fib_quat(params, pq, n)
        f = fib_run(n - 1, 5)
        expected = [pq.p * f[k] + pq.q * f[k + 1] for k in range(4)]
        return (list(quat.coefficients) == expected
                and quat.norm() == fq.norm_genfib_formula(params, pq, n))

    def series(degree):
        check = fq.gf_check(degree)
        return check.degree_checked == degree and not any(check.max_abs_residual_coefficient)

    ops.run(f"fib_quat n={spec['fib_n']}", lambda: fib_quaternion(spec["fib_n"]))
    for n in spec["narayana_n"]:
        ops.run(f"narayana_quat n={n}", lambda: narayana_quaternion(n))
    for pq in seeds:
        ops.run(f"gen_fib_quat {tuple(pq)} n={spec['genfib_n']}",
                lambda: gen_fib_quaternion(pq, spec["genfib_n"]))
    ops.run(f"gf_check {spec['gf_degree']}", lambda: series(spec["gf_degree"]))


def run_cli(fq, spec, ops, out):
    """The CLI in this process; ``run.py`` checks the captured output."""
    import fibquat.cli

    yield
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            out["exit"] = fibquat.cli.run(spec["argv"])
        except Exception:  # what the interpreter would print before exiting 1
            out["exit"] = 1
            out["stderr_tail"] = traceback.format_exc().strip().splitlines()[-1][:300]
    out["stdout"] = captured.getvalue()


def run_probe(fq, spec, ops, out):
    import fibquat.cli  # noqa: F401

    yield


def main():
    mode = sys.argv[1]
    spec = json.loads(sys.argv[2])
    sampler = None
    if not spec.get("trace"):  # samples would land in the spans' self time
        sampler = Sampler()
        sampler.start()
    import fibquat as fq

    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    ops = Ops(fq.ConsistencyError)
    out = {"kernel_backend": fq.KERNEL_BACKEND}
    runner = {"probe": run_probe, "grid": run_grid, "deep": run_deep, "cli": run_cli}[mode]
    steps = runner(fq, spec, ops, out)
    next(steps)  # set-up: imports and inputs
    out["ready"] = time.monotonic()
    out["ready_spent"] = sampler.spent if sampler else 0.0
    out["ready_speed"] = [sampler.speed_sum, sampler.samples] if sampler else None
    for _ in steps:
        pass
    if sampler is not None:
        sampler.stop()
        write_report(sampler)
    out.update(attempted=ops.attempted, failed=ops.failed, wrong=ops.wrong, errors=ops.errors)
    if tracer is not None:
        out["trace"] = tracer.metrics()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
