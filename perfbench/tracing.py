"""In-memory spans around the benchmark's calls into graphseq's layers.

A span is (name, start, end, parent span, item id). Spans are kept in a
list while the run is timed and written out once it ends. A layer's self
time is its span's duration minus the time its child spans cover.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

_NO_SPAN = nullcontext()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._counts: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, perf_counter(), 0.0, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        """Add one observation to a named counter (sum and sample count)."""
        entry = self._counts[name]
        entry[0] += value
        entry[1] += 1

    def total(self, name: str) -> float:
        return self._counts[name][0] if name in self._counts else 0.0

    def samples(self, name: str) -> int:
        return self._counts[name][1] if name in self._counts else 0

    def mean(self, name: str) -> float:
        n = self.samples(name)
        return self.total(name) / n if n else 0.0

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus what its children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            out[name] += end - start - covered
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps([name, start, end, parent, item]) + "\n")


def span(tr: Tracer | None, name: str):
    """A span under ``tr``, or a no-op context when the run is untraced."""
    return _NO_SPAN if tr is None else tr.span(name)
