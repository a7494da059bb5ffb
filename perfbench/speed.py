"""Core-speed sampling: times measured on a shared host, restated at one fixed speed.

Usage: python3 perfbench/speed.py -m MODULE [ARG ...]

The core a benchmark process runs on is shared with other machines' work.  On
the 2-core VM this benchmark was written on, it switches between a fast and a
slow regime, about 1.7x apart, in stretches from a tenth of a second to tens
of seconds, so the same work can take 1.7x longer in one 30 s run than in
the next.  To take that out, a fixed calibration slice is timed at regular
wall-clock intervals while the work runs.  The slice is pure-integer
arithmetic (rational-style products with ``math.gcd``, then big-integer
additions), none of it fibquat code, and it allocates no object the garbage
collector tracks, so the program's heap does not change its cost.  The speed
at a sample is ``REF_SLICE_S`` over the slice's time: 1.0 on an uncontended
core of the reference machine.  A stretch of work of ``t`` seconds during
which the samples average speed ``v`` took ``t * v`` seconds at reference
speed; that is what the benchmark reports.

``Sampler.start`` takes a sample every ``PERIOD_S`` from a ``SIGALRM``
handler, which runs between bytecodes of the main thread, and keeps the time
spent sampling so it can be taken out of the work's time.  Run as a script,
this module runs ``MODULE`` as ``__main__``, as ``python -m`` does, under a
sampler, and writes the sampler's report as the last line of stderr.
"""

import json
import math
import runpy
import signal
import sys
import time

REF_SLICE_S = 0.0011  # one slice on an uncontended core of the reference machine
PERIOD_S = 0.05
MARK = "perfbench-speed "


def slice_s():
    """Seconds taken by one calibration slice."""
    start = time.perf_counter()
    acc = 0
    for i in range(1, 1200):
        num = (i % 17 - 8) * (i % 5 + 1) * (i % 3 + 2) + (i % 7 + 1) * (i % 11 + 1)
        den = (i % 7 + 1) * (i % 11 + 1) * (i % 3 + 2)
        g = math.gcd(num, den)
        acc += num // g - den // g
    a, b = acc, 1
    for _ in range(6000):
        a, b = b, a + b
    return time.perf_counter() - start


class Sampler:
    """Speed samples taken so far, and the seconds spent taking them."""

    def __init__(self):
        self.speed_sum = 0.0
        self.samples = 0
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        self.speed_sum += REF_SLICE_S / slice_s()
        self.samples += 1
        self.spent += time.perf_counter() - start

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def report(self):
        return {"speed_sum": self.speed_sum, "samples": self.samples, "spent": self.spent}


def read_report(stderr):
    """The sampler report a process wrote to stderr, or None."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK):
            return json.loads(line[len(MARK):])
    return None


def write_report(sampler):
    print(MARK + json.dumps(sampler.report()), file=sys.stderr, flush=True)


def main():
    if len(sys.argv) < 3 or sys.argv[1] != "-m":
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    module = sys.argv[2]
    sys.argv = [module, *sys.argv[3:]]
    sampler = Sampler()
    sampler.start()
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        write_report(sampler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
