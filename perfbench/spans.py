"""In-memory spans recorded around calls into the program, and their self times."""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records one span per ``with tracer.span(...)`` block.

    A span is a dict with its name, start and end (``perf_counter`` seconds),
    the index of the enclosing span in ``spans`` (or None), the sequence it
    belongs to and the measurement round. A block that raises still closes
    its span.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, seq: int, rnd: int | None = None):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "seq": seq,
            "round": rnd,
        }
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def extend(self, spans: list[dict]) -> None:
        """Append spans recorded by another tracer, keeping their parent links."""
        offset = len(self.spans)
        for s in spans:
            self.spans.append(dict(s, parent=None if s["parent"] is None else s["parent"] + offset))


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time per (round, name): duration minus the time its child spans cover.

    Children of one span never overlap here (the program is single-threaded),
    so the covered time is the sum of their durations.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = defaultdict(float)
    for i, s in enumerate(spans):
        out[(s["round"], s["name"])] += s["end"] - s["start"] - child_time[i]
    return dict(out)
