"""Host speed, sampled by a fixed reference kernel while the benchmark runs.

The benchmark runs on shared virtual machines whose speed changes by up to
a factor of two within seconds and sometimes stays changed for minutes.
No amount of work in one run averages that out. So while a ``HostSpeed``
is entered, an interval timer interrupts the process every ``INTERVAL_S``
and the signal handler times a small fixed pure-Python kernel. An interval
of the run is then scaled by ``NOMINAL_KERNEL_S`` over the mean kernel time
sampled in it (and just before and after it), so a timing reads what it
would on a host where the kernel takes exactly ``NOMINAL_KERNEL_S``. The
kernel's own time is taken out of every interval it falls in. Sampling
inside long items and long set-up steps follows speed changes that happen
while they run, which kernels run only between items cannot.

The kernel imports nothing from graphseq, so a change to the program moves
the scaled figures and a change of host speed moves them much less. It
does the kinds of work the benchmark's graphs cause: it draws small
attributed graphs, round-trips them through JSON and refines their node
colours until they are stable. Timed against repeated passes over the same
items, kernels of this kind slowed about as much as graphseq did (log-log
slopes of 0.9-1.14), while a tight loop over a small adjacency list slowed
less and left slow runs slow after scaling.
"""
from __future__ import annotations

import bisect
import json
import random
import signal
import statistics
from collections import Counter
from time import perf_counter

# One sample every INTERVAL_S. A sample runs the kernel twice and times
# the second run, so the caches the interrupted work used (which depend on
# the program) do not enter the figure. A kernel run draws KERNEL_GRAPHS
# graphs in about 0.4 ms, so sampling takes about 4% of the run.
INTERVAL_S = 0.02
KERNEL_GRAPHS = 2
# Kernel seconds the scaled figures refer to: about the kernel's median on
# a 2-vCPU VM with Python 3.11. Changing it rescales every timing metric.
NOMINAL_KERNEL_S = 0.0005


def _graph(rng: random.Random) -> dict:
    n = rng.randint(10, 30)
    edges = [[rng.randrange(v), v] for v in range(1, n)]
    present = {tuple(e) for e in edges}
    degree = Counter(v for e in edges for v in e)
    while len(edges) < n + 3:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) in present or (degree[u] + degree[v]) % 2:
            continue
        present.add((u, v))
        edges.append([u, v])
        degree[u] += 1
        degree[v] += 1
    return {
        "num_nodes": n,
        "edges": edges,
        "node_attrs": [[rng.choices(range(9), (5, 2, 1, 1, 1, 1, 1, 1, 1))[0],
                        rng.choice((0, 0, 1, 2))] for _ in range(n)],
        "edge_attrs": [[rng.choice((0, 0, 1, 2))] for _ in edges],
    }


def _refine(doc: dict) -> int:
    """Rounds of colour refinement until the colour count stops growing."""
    n = doc["num_nodes"]
    nbrs = [[] for _ in range(n)]
    for (u, v), attr in zip(doc["edges"], doc["edge_attrs"]):
        nbrs[u].append((tuple(attr), v))
        nbrs[v].append((tuple(attr), u))
    table: dict = {}
    colours = [table.setdefault(tuple(a), len(table)) for a in doc["node_attrs"]]
    for rounds in range(1, n + 1):
        refined = [table.setdefault((colours[v], tuple(sorted((a, colours[w]) for a, w in nbrs[v]))),
                                    len(table)) for v in range(n)]
        if len(Counter(refined)) == len(Counter(colours)):
            return rounds
        colours = refined
    return n


def kernel() -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    rng = random.Random(7)
    total = 0
    for _ in range(KERNEL_GRAPHS):
        doc = json.loads(json.dumps(_graph(rng)))
        total += _refine(doc) + len(doc["edges"])
    return total


class HostSpeed:
    """Kernel samples taken by a timer signal while the object is entered.

    Only one ``HostSpeed`` may be entered at a time: it owns ``SIGALRM``
    and the real-time interval timer of the process.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._taken = [0.0]  # kernel seconds taken before each sample
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that arrives during a slow sample is skipped
            return
        self._busy = True
        t0 = perf_counter()
        kernel()  # warms the caches the interrupted work left cold
        t1 = perf_counter()
        kernel()
        t2 = perf_counter()
        self.starts.append(t0)
        self.kernel_s.append(t2 - t1)
        self._taken.append(self._taken[-1] + t2 - t0)
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        # A sample before and after everything, so every interval has one.
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def raw_seconds(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the kernel samples in them."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        return end - start - (self._taken[j] - self._taken[i])

    def seconds(self, start: float, end: float) -> float:
        """``raw_seconds`` scaled to the nominal host speed."""
        i = bisect.bisect_left(self.starts, start)
        j = bisect.bisect_right(self.starts, end)
        around = statistics.fmean(self.kernel_s[max(i - 1, 0):j + 1])
        return self.raw_seconds(start, end) * NOMINAL_KERNEL_S / around

    def factor(self) -> float:
        """Median kernel time over nominal: above 1 on a slow host."""
        return statistics.median(self.kernel_s) / NOMINAL_KERNEL_S
