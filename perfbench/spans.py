"""Spans around the calls the benchmark makes into circleops.

The benchmark never patches the package: each call it makes into a public
function goes through ``call(name, fn, *args)``.  Untraced, that is a plain
call.  Traced, the span (name, item, parent, start, end) is kept in memory
and written out when the run ends; a layer's self time is its spans'
durations minus the parts covered by their child spans.  Span times come
from the worker's clock, which leaves out the host-speed calibration; layer
self times are scaled to reference seconds like the end-to-end times.
"""

from __future__ import annotations

from collections import defaultdict


class Untraced:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass

    def begin_item(self, item):
        pass


class Tracer:
    enabled = True

    def __init__(self, clock):
        self._clock = clock
        # [name, item, parent index or -1, start, end]
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._item = -1

    def begin_item(self, item):
        self._item = item

    def call(self, name, fn, *args):
        idx = len(self.spans)
        rec = [name, self._item, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[3] = self._clock()
        try:
            return fn(*args)
        finally:
            rec[4] = self._clock()
            self._stack.pop()

    def count(self, name, n):
        self.counts[name] += n

    def layers(self, scale: float) -> dict:
        """Per span name: self time, times ``scale``, and number of calls."""
        child_time = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, _, _, start, end), inner in zip(self.spans, child_time):
            layer = out.setdefault(name, {"s": 0.0, "calls": 0})
            layer["s"] += (end - start - inner) * scale
            layer["calls"] += 1
        return out
