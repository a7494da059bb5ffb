"""The fibquat benchmark: one workload, timed end to end, every output checked.

Usage:
  python3 perfbench/run.py --workload {audit,grid,deep} --seed N --seconds S --trace {0,1}
                           [--size {full,tiny}]

Run from the root of a source checkout; the package is imported from
``src/`` (``PYTHONPATH=src``), so nothing needs installing.  Workloads:

  audit  ``python -m fibquat.cli audit --all --format json --no-timing --seed s``
         as fresh processes; one op is one identity report (42 per process).
  grid   one fresh process: the 41x41 lattice beta = (i/2, j/2) of acceptance
         criterion 11 (threshold scan, re-verify, direct-norm tail check),
         then seeded random algebras with (p, q) seeds; one op is one algebra.
  deep   one fresh process of large-index library queries, each cross-checked
         by another route, then one ``fibquat quat --kind fib`` CLI process at
         a large index; 7 ops.

One caller runs one process at a time and waits for it (a closed loop).  With
``--trace 0`` it repeats iterations of fresh processes for ``--seconds`` and
reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``; the two
times are restated at reference core speed from speed samples taken while
each process ran (see ``speed.py``).  With
``--trace 1`` it alternates an untraced iteration with a traced one on the
same inputs and reports per-layer metrics (see ``tracer.py``) plus
``trace.overhead_s``.  The last stdout line is the result object; the line
before it is the record stamped with the environment.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import fib_run  # noqa: E402
from speed import MARK, Sampler, read_report  # noqa: E402

CHILD_TIMEOUT_S = 120

SIZES = {
    "full": {
        "radius": 20, "algebras": 300, "n_max": 50,
        "fib_n": (49500, 50500), "narayana_n": (29500, 30500),
        "genfib_n": (19750, 20250), "gf_degree": 3000,
        # every index here prints integers past CPython's 4300-digit str limit
        "cli_n": (20600, 25000),
    },
    "tiny": {
        "radius": 2, "algebras": 4, "n_max": 50,
        "fib_n": (480, 520), "narayana_n": (280, 320),
        "genfib_n": (190, 210), "gf_degree": 300, "cli_n": (206, 250),
    },
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "kernel.calls": "count", "kernel.self_s": "s", "kernel.max_bits": "bits",
    "sequences.calls": "count", "sequences.self_s": "s", "sequences.max_index": "index",
    "quatseq.calls": "count", "quatseq.self_s": "s",
    "algebra.norm.calls": "count", "algebra.mul.calls": "count",
    "algebra.inverse.calls": "count", "algebra.self_s": "s",
    "normforms.threshold.calls": "count", "normforms.threshold.self_s": "s",
    "normforms.verify.self_s": "s", "normforms.formula.calls": "count",
    "normforms.formula.self_s": "s", "normforms.indicator.self_s": "s",
    "surd.calls": "count", "surd.self_s": "s",
    "analytic.calls": "count", "analytic.self_s": "s",
    "audit.calls": "count", "audit.instances": "count", "audit.self_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Finished:
    """A child process that has exited, with its own resource usage.

    ``wall`` leaves out the time the process spent sampling its core's speed;
    ``speed`` is the mean of the samples the process and the caller took
    around it (see ``speed.py``), or None for a process that took none.
    ``before`` holds the sum and count of the caller's samples before it.
    """

    start: float
    wall: float
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    speed: float | None = None
    before: tuple = (0.0, 0)

    def stderr_tail(self):
        lines = self.stderr.strip().splitlines()
        return lines[-1][:300] if lines else f"exit {self.code}"

    def at_ref(self, seconds):
        """``seconds`` of this process's time, restated at reference core speed."""
        return seconds * self.speed if self.speed is not None else None


def spawn(argv, env):
    """Run one process to completion; peak RSS comes from its own wait4.

    The caller samples the core's speed twice before and twice after, which
    covers interpreter start and exit; a process that samples itself adds
    its own samples, taken while it ran."""
    around = Sampler()
    around.sample()
    around.sample()
    before = (around.speed_sum, around.samples)
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    stderr = []
    reader = threading.Thread(target=lambda: stderr.append(proc.stderr.read()))
    reader.start()
    stdout = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    around.sample()
    around.sample()
    errors = stderr[0].decode()
    own = read_report(errors)
    speed = None
    if own is not None:
        wall -= own["spent"]
        errors = "\n".join(line for line in errors.splitlines()
                           if not line.startswith(MARK))
        speed = (around.speed_sum + own["speed_sum"]) / (around.samples + own["samples"])
    return Finished(start, wall, proc.returncode, stdout.decode(), errors,
                    usage.ru_maxrss / 1024.0, speed, before)


@dataclass
class Sample:
    """One iteration: timings, memory, op counts and the traced records.

    ``wall`` and ``setup`` are as measured; ``ref_wall`` and ``ref_setup``
    restate them at reference core speed (None in a traced iteration, which
    does not sample the speed)."""

    wall: float
    ref_wall: float | None
    setup: float | None
    ref_setup: float | None
    rss_mb: float
    attempted: int
    failed: int
    wrong: int
    notes: list
    trace: dict | None = None
    backend: str | None = None


def draw_beta(rng):
    """A rational algebra (b1, b2) as (num1, den1, num2, den2)."""
    return rng.randint(-12, 12), rng.randint(1, 6), rng.randint(-12, 12), rng.randint(1, 6)


def draw_pq(rng):
    """Seeds (p, q) != (0, 0) of a generalized Fibonacci sequence."""
    p = q = 0
    while (p, q) == (0, 0):
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
    return p, q


class Bench:
    def __init__(self, size):
        self.size = SIZES[size]
        # children import from cached bytecode, as an installed package does,
        # whatever the caller's environment says
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        with open(HERE / "reference.json") as fh:
            self.reference = json.load(fh)

    def child(self, mode, spec):
        """Run ``child.py``; returns the process and its report (None if it crashed)."""
        done = spawn([sys.executable, str(HERE / "child.py"), mode, json.dumps(spec)],
                     self.env)
        lines = done.stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            report = None
        if done.code != 0 or report is None:
            return done, None, f"{mode} process failed: {done.stderr_tail()}"
        return done, report, None

    def cli(self, argv, traced):
        """One CLI invocation: a real ``python -m fibquat.cli`` process or, when
        traced, ``fibquat.cli.run`` inside a child.  Returns the process with
        ``stdout``, ``code`` and ``stderr`` set to the CLI's, and the child's
        report (None when untraced or crashed)."""
        if not traced:  # speed.py runs the module as ``python -m`` does
            return spawn([sys.executable, str(HERE / "speed.py"), "-m", "fibquat.cli", *argv],
                         self.env), None
        done, report, note = self.child("cli", {"argv": argv, "trace": True})
        if report is None:
            done.code, done.stderr = 1, note
        else:
            done.stdout, done.code = report["stdout"], report["exit"]
            done.stderr = report.get("stderr_tail", "")
        return done, report

    # -- workloads -------------------------------------------------------------

    def audit(self, rng, traced):
        seed = rng.randrange(1, 10**6)
        argv = ["audit", "--all", "--format", "json", "--no-timing", "--seed", str(seed)]
        if traced:
            done, report = self.cli(argv, traced)
            probe = done
        else:  # set-up is timed in a probe that imports what the CLI imports
            probe, report, _ = self.child("probe", {})
            done, _ = self.cli(argv, traced)
        sample = Sample(done.wall, done.at_ref(done.wall), None, None, done.rss_mb,
                        *self.check_audit(done))
        if report is not None:
            sample.setup, sample.ref_setup = setup_s(probe, report)
            sample.trace = report.get("trace")
            sample.backend = report["kernel_backend"]
        return sample

    def check_audit(self, done):
        """(attempted, failed, wrong, notes) for one ``audit --all`` output."""
        expected = self.reference["audit"]["instances_run"]
        anomalies = set(self.reference["audit"]["transcription_issues"])
        code = done.code
        try:
            doc = json.loads(done.stdout)
        except ValueError:
            return len(expected), len(expected), 0, [f"audit exit {code}: {done.stderr_tail()}"]
        reports = {r["id"]: r for r in doc.get("reports", [])}
        verdicts = doc.get("verdicts", {})
        failed = wrong = 0
        notes = []
        for ident, count in expected.items():
            report = reports.get(ident)
            anomaly = ident in anomalies
            ok = (report is not None
                  and report["instances_run"] == count
                  and (report["failures"] > 0) == anomaly
                  and verdicts.get(ident) == ("transcription-issue" if anomaly else "pass"))
            if not ok:
                failed += 1
                wrong += 1
                notes.append(f"audit {ident}: {report} verdict {verdicts.get(ident)}"[:300])
        whole_ok = doc.get("ok") is True and code == 0 and set(reports) == set(expected)
        if not whole_ok and not failed:
            failed = wrong = 1
            notes.append(f"audit: ok={doc.get('ok')} exit {code} ids {sorted(reports)}"[:300])
        return len(expected), failed, wrong, notes[:5]

    def grid(self, rng, traced):
        size = self.size
        algebras = [draw_beta(rng) + draw_pq(rng) for _ in range(size["algebras"])]
        spec = {
            "radius": size["radius"], "n_max": size["n_max"], "algebras": algebras,
            "lattice_digest": self.reference["grid"]["lattice_digest"][str(size["radius"])],
            "trace": traced,
        }
        ops = (2 * size["radius"] + 1) ** 2 + len(algebras)
        done, report, note = self.child("grid", spec)
        return self.child_sample(done, report, note, ops)

    def deep(self, rng, traced):
        size = self.size
        spec = {
            "beta": draw_beta(rng),
            "pq": [draw_pq(rng), draw_pq(rng)],
            "fib_n": rng.randint(*size["fib_n"]),
            "narayana_n": [rng.randint(*size["narayana_n"]), -rng.randint(*size["narayana_n"])],
            "genfib_n": rng.randint(*size["genfib_n"]),
            "gf_degree": size["gf_degree"],
            "trace": traced,
        }
        cli_n = rng.randint(*size["cli_n"])
        done, report, note = self.child("deep", spec)
        sample = self.child_sample(done, report, note, 6)
        cli, report = self.cli(
            ["quat", "--kind", "fib", "--n", str(cli_n), "--format", "json"], traced)
        sample.wall += cli.wall
        if sample.ref_wall is not None:
            sample.ref_wall += cli.at_ref(cli.wall)
        sample.rss_mb = max(sample.rss_mb, cli.rss_mb)
        sample.attempted += 1
        if cli.code != 0:  # CPython's int->str digit limit makes this fail today
            sample.failed += 1
            sample.notes.append(f"quat --n {cli_n}: exit {cli.code}: {cli.stderr_tail()}")
        elif quat_coefficients(cli.stdout) != fib_run(cli_n, 4):
            sample.failed += 1
            sample.wrong += 1
            sample.notes.append(f"quat --n {cli_n}: wrong coefficients")
        if sample.trace is not None and report is not None:
            sample.trace = merge_traces(sample.trace, report["trace"])
        return sample

    def child_sample(self, done, report, note, ops):
        if report is None:
            return Sample(done.wall, done.at_ref(done.wall), None, None, done.rss_mb,
                          ops, ops, 0, [note])
        return Sample(done.wall, done.at_ref(done.wall), *setup_s(done, report),
                      done.rss_mb, report["attempted"], report["failed"], report["wrong"],
                      report["errors"], report.get("trace"), report["kernel_backend"])


def setup_s(done, report):
    """Seconds from spawning a child to the end of its set-up, sampling left
    out, as measured and at reference speed (None when traced).  The speed is
    that of the samples taken before the set-up ended."""
    seconds = report["ready"] - done.start - report["ready_spent"]
    if report["ready_speed"] is None:
        return seconds, None
    speed_sum, samples = report["ready_speed"]
    return seconds, seconds * (done.before[0] + speed_sum) / (done.before[1] + samples)


def quat_coefficients(stdout):
    """Integer coefficients of a ``quat --format json`` document, or None."""
    try:
        return [int(c) for c in json.loads(stdout)["coefficients"]]
    except (ValueError, KeyError, TypeError):
        return None


def merge_traces(a, b):
    merged = {}
    for key, value in a.items():
        other = b[key]
        if value is None or other is None:
            merged[key] = None
        elif key.endswith(("max_bits", "max_index")):
            merged[key] = max(value, other)
        else:
            merged[key] = value + other
    return merged


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("audit", "grid", "deep"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny runs every workload at a toy size (schema smoke test)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "fibquat" / "__init__.py").is_file():
        print(f"error: no fibquat sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # the harness reads the CLI's large integers
    bench = Bench(args.size)
    iterate = getattr(bench, args.workload)
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    i = 0
    while True:
        key = f"{args.workload}:{args.seed}:{i}"
        untraced.append(iterate(random.Random(key), False))
        if args.trace:
            traced.append(iterate(random.Random(key), True))
        i += 1
        if time.monotonic() >= deadline:
            break

    samples = untraced + traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    wrong = sum(s.wrong for s in samples)
    walls = [s.wall for s in untraced]
    ref_walls = [s.ref_wall for s in untraced if s.ref_wall is not None]
    if args.trace:
        units = PER_LAYER_UNITS
        values = {name: median_or_none([s.trace.get(name) if s.trace else None for s in traced])
                  for name in units}
        values["trace.wall_s"] = statistics.median(s.wall for s in traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": median_or_none(ref_walls),
            "setup_s": median_or_none([s.ref_setup for s in untraced]),
            "peak_rss_mb": statistics.median(s.rss_mb for s in untraced),
        }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "benchmark": "fibquat",
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "seconds": args.seconds,
        "kernel_backend": next((s.backend for s in samples if s.backend), None),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "runs": len(untraced),
        "traced_runs": len(traced),
        "wall_s_quartiles": quartiles(ref_walls) if ref_walls else None,
        "raw_wall_s": statistics.median(walls),
        "raw_setup_s": median_or_none([s.setup for s in untraced]),
        "ops_failed_frac": failed / attempted,
        "errors": sorted({n for s in samples for n in s.notes})[:10],
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": wrong == 0 and failed < attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
