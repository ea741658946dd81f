"""In-memory spans and a counting bit source for the benchmark.

Spans are recorded only around calls the benchmark itself makes into a
spinhl layer (and, for the traced ``verify`` child, around each identity
check).  They are kept in a list and written once when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans as (name, start, end, parent index, iteration id), kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, iteration=None):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, self.clock(), None, parent, iteration])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = self.clock()

    def self_times(self):
        """Seconds per span name: each span's duration minus its children's."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[idx]
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                [
                    {"name": n, "start": s, "end": e, "parent": p, "iteration": it}
                    for n, s, e, p, it in self.spans
                ],
                fh,
            )


class CountingBits:
    """Duck-typed bit source: forwards to a RandomSource and counts what it hands out.

    The samplers only call ``bit()`` and ``substream(*key)``, so this can
    stand in for a ``RandomSource`` in sequential and per-cell modes alike.
    All substreams share one counter dict.
    """

    def __init__(self, source, counts=None):
        self._source = source
        self.counts = counts if counts is not None else {"bits": 0, "substreams": 0}

    def bit(self):
        self.counts["bits"] += 1
        return self._source.bit()

    def substream(self, *key):
        self.counts["substreams"] += 1
        return CountingBits(self._source.substream(*key), self.counts)
