"""Spans around the calls the benchmark makes into the package.

A span has a name, a start, an end, a parent span and the id of the verdict
it belongs to.  Spans live in flat typed arrays (a million spans cost about
30 MB) and are written out once, when the run ends.  The benchmark opens a
span around each verdict and around set-up; every call into a public
function of the package is a leaf span under it.  Work counts are summed at
the same boundaries, from the results the calls return.
"""

import gzip
from array import array
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("I")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.verdict = array("q")
        self._open = [-1]
        self.verdict_id = -1
        self.counts = defaultdict(int)
        self.tags = {}  # verdict id -> (program, budget), for the scaling fits

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _append(self, nid: int, t0: float, t1: float) -> int:
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)
        self.parent.append(self._open[-1])
        self.verdict.append(self.verdict_id)
        return len(self.start) - 1

    def begin(self, name: str) -> None:
        """Open a span that later spans nest under until finish()."""
        self._open.append(self._append(self._name_id(name), perf_counter(), 0.0))

    def finish(self) -> None:
        self.end[self._open.pop()] = perf_counter()

    def wrap(self, name: str, fn, on_result=None):
        """fn, recording a leaf span per call; on_result(counts, result)
        runs after the span closes, so counting is not billed to fn."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._append(nid, t0, perf_counter())
            if on_result is not None:
                on_result(self.counts, out)
            return out

        return traced

    def self_times(self):
        """{name: (calls, self seconds)}; a span's self time is its
        duration minus the time its child spans cover."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = defaultdict(int)
        selfs = defaultdict(float)
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            selfs[nm] += self.end[i] - self.start[i] - child[i]
        return {nm: (calls[nm], selfs[nm]) for nm in calls}

    def durations(self, name: str):
        """(verdict id, seconds) of every span with this name."""
        nid = self._ids.get(name)
        return [
            (self.verdict[i], self.end[i] - self.start[i])
            for i in range(len(self.start))
            if self.name[i] == nid
        ]

    def dump(self, path) -> None:
        """Write every span as a line of gzipped TSV."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("id\tname\tstart_s\tend_s\tparent\tverdict\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                f.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i] - t0:.9f}\t"
                    f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.verdict[i]}\n"
                )
