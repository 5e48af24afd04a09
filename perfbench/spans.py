"""Spans recorded by the benchmark around the public calls it makes.

A span has a name, start and end (``time.perf_counter`` seconds), the
index of the span that encloses it and the operation it belongs to.
Spans stay in memory and are written out once, when the run ends. A
disabled tracer records nothing and hands out one shared no-op context.
"""

import time
from collections import defaultdict
from contextlib import nullcontext

_NO_SPAN = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.op = -1

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NO_SPAN

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in ms.

        Self time is a span's duration minus the time its direct children
        cover; children of one span never overlap, so that is the sum of
        their durations.
        """
        child_s = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_s[span["parent"]] += span["end"] - span["start"]
        totals = defaultdict(float)
        for index, span in enumerate(self.spans):
            own = span["end"] - span["start"] - child_s[index]
            totals[span["name"]] += own * 1000.0
        return dict(totals)

    def duration_ms(self, name: str) -> list[float]:
        """Durations of every span with this name, in record order."""
        return [
            (s["end"] - s["start"]) * 1000.0 for s in self.spans if s["name"] == name
        ]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        tracer.spans.append(
            {
                "name": self.name,
                "op": tracer.op,
                "parent": tracer._open[-1] if tracer._open else None,
                "start": time.perf_counter(),
                "end": None,
            }
        )
        tracer._open.append(self.index)
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index]["end"] = time.perf_counter()
        self.tracer._open.pop()
        return False
