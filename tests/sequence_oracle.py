"""The sequence tests' one oracle: x_n = x_{n-1} + x_{n-k}, k = len(seeds),
walked from the seeds x_0, ..., x_{k-1} (f: (0, 1), h^{p,q}: (p, q), u:
(0, 1, 1)) by that rule alone, and ``off_by_one``, the fault that the
range-read tests inject.  pytest does not collect this module.
"""

from collections import deque


def walk(seeds, start, stop):
    """x_start, ..., x_{stop-1} for any signed start <= stop, backward by
    x_n = x_{n+k} - x_{n+k-1}; it keeps k values until it reaches start."""
    assert start <= stop, (start, stop)
    window = deque(seeds, maxlen=len(seeds))  # x_i, ..., x_{i+k-1}, from i = 0
    for _ in range(start):
        window.append(window[-1] + window[0])
    for _ in range(-start):
        window.appendleft(window[-1] - window[-2])
    out = []
    for _ in range(stop - start):
        out.append(window[0])
        window.append(window[-1] + window[0])
    return out


def off_by_one(read, position):
    """``read`` with the value at ``position`` of its list raised by one."""

    def wrong(*args):
        values = list(read(*args))
        if len(values) > position:
            values[position] += 1
        return values

    return wrong
