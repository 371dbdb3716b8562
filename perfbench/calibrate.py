"""Host-speed calibration for the benchmark's timings.

On a shared host the same job can run 1.5-2 times slower for tens of seconds
while neighbours load the cores and caches, in wall and in CPU time alike.
The harness therefore runs a fixed reference job between its timed jobs and
reports each timing scaled to the speed at which the reference job takes
``REFERENCE_S``:

    reported = measured * REFERENCE_S / middle(reference job times in the run)

where ``middle`` is the mean of the middle half of the samples.  The
reference job's times are often bimodal (fast and slow stretches of the
host); a median would jump between the modes when they are about equally
common, while the middle mean moves smoothly with the share of slow time and
still ignores outliers.

The reference job is the benchmark's own code and does not touch ``tgr``:
ten breadth-first searches over a fixed random graph of 3,000 vertices and
12,000 edges, the same kind of set and list work as the program's graph
traversals.  Of the reference jobs tried (a replay of a relabel walk, a
larger graph, added dict building and edge-object scans) this one tracked
the program's stages best over busy and quiet stretches of the host.  A
change to the program cannot make it faster or slower, so the scaling
cancels the host's drift and keeps the program's.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

# About the reference job's time on the 2.1 GHz Xeon VM (Python 3.11) the
# baselines were measured on, when that host runs at full speed.
REFERENCE_S = 0.020


def _graph(n: int = 3000, m: int = 12000) -> list[list[int]]:
    rng = random.Random(0)
    adj: list[set[int]] = [set() for _ in range(n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(a) for a in adj]


def reference_job(adj) -> int:
    """Ten breadth-first searches; returns the summed reach, a fixed number."""
    total = 0
    for src in range(0, len(adj), len(adj) // 10):
        seen = {src}
        todo = [src]
        for x in todo:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        total += len(todo)
    return total


class Calibration:
    """Reference job samples, taken at most every ``every`` seconds."""

    def __init__(self, every: float):
        self.every = every
        self.samples: list[float] = []
        self.last = float("-inf")
        self._adj = _graph()
        self._reach = reference_job(self._adj)

    def sample(self) -> None:
        t0 = perf_counter()
        reach = reference_job(self._adj)
        self.last = perf_counter()
        if reach != self._reach:
            raise RuntimeError("calibration job gave a different result")
        self.samples.append(self.last - t0)

    def maybe(self) -> None:
        """Take a sample if ``every`` seconds have passed since the last one."""
        if perf_counter() - self.last >= self.every:
            self.sample()

    def middle(self) -> float:
        """Mean of the middle half of the samples."""
        xs = sorted(self.samples)
        k = len(xs) // 4
        return statistics.mean(xs[k:len(xs) - k])

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference-speed time."""
        return REFERENCE_S / self.middle()
