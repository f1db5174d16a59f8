"""The speed of the machine, measured between pieces of work.

The benchmark shares its machine with other tenants.  On the 2-vCPU
machine its bounds were set on, the same work took from 1x to 1.8x as long
depending on what ran beside it, in spells that lasted from a fraction of
a second to minutes, and CPU time moved with wall time, so the process was
slowed rather than descheduled.  That spread is wider than any useful
bound, so each measured time is scaled by how fast the machine ran it:

    scaled = raw * NOMINAL_S / mean(loop time just before, just after)

The loop is fixed interpreter work on the standard library alone, so no
change to the package can change it; it runs with the collector off, so a
collection owed by the work does not land in it.  A scaled time reads as
the time the work would take where the loop takes NOMINAL_S.
"""

import gc
from time import perf_counter

# the loop's time on that machine in its fastest spells (Python 3.11)
NOMINAL_S = 0.006


def _tree(depth):
    return None if depth == 0 else (_tree(depth - 1), _tree(depth - 1))


def _size(t):
    return 0 if t is None else 1 + _size(t[0]) + _size(t[1])


def loop_seconds() -> float:
    """Wall time of the fixed loop: calls, tuples, a dict and strings."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        table = {}
        acc = 0
        for i in range(16000):
            row = (i, i * 3, str(i & 255))
            table[row[2]] = row
            acc += len(table) + row[1] % 7
        acc += _size(_tree(12))
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Loop times taken at the boundaries between pieces of work; scale()
    closes the current piece and returns the factor for its times."""

    def __init__(self):
        self.samples = [loop_seconds()]

    def scale(self) -> float:
        self.samples.append(loop_seconds())
        return NOMINAL_S / ((self.samples[-2] + self.samples[-1]) / 2)
