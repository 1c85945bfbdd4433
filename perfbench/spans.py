"""In-memory spans and counters recorded around calls into scenescale.

A span is (name, start, end, parent span index, item id).  Spans are kept
in a list while the run goes and written out once at the end, so tracing
costs one ``perf_counter`` pair and one list append per call.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)

    def count(self, name: str, value: float) -> None:
        self.counts[name].append(value)

    def self_times(self, item_filter=None) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover.

        Children of one span never overlap (the benchmark is single-threaded),
        so their summed durations are the covered time.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _, item), child in zip(self.spans, covered):
            if item_filter is None or item_filter(item):
                out[name].append(end - start - child)
        return out

    def write(self, path: Path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced run."""

    item = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass
