"""In-memory spans for the traced run, and the null recorder for timed runs.

A span is recorded around each call the benchmark makes into a pisu layer:
name, start, end, the index of the enclosing span (-1 at the root) and the
id of the workload item it belongs to.  Nothing is written until the run
ends.  The benchmark is single-threaded, so a plain stack tracks nesting.
"""

from __future__ import annotations

import contextlib
from time import perf_counter

_NULL_SPAN = contextlib.nullcontext()


class NoSpans:
    """Recorder for untraced runs: every span is a shared no-op context."""

    item = None

    def span(self, name: str):
        return _NULL_SPAN


class Spans:
    """Recorder for traced runs; ``records`` rows are [name, start, end, parent, item]."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.item: str | None = None
        self._stack: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, summed self time and each call's duration.

        Self time is a span's duration minus the time covered by its direct
        children; children of one span never overlap in a single thread.
        """
        covered = [0.0] * len(self.records)
        for name, start, end, parent, _ in self.records:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.records):
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - covered[index]
            entry["durations"].append(end - start)
        return out

    def to_json_rows(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "item": item}
            for name, start, end, parent, item in self.records
        ]


class _Span:
    __slots__ = ("rec", "name", "index")

    def __init__(self, rec: Spans, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> None:
        rec = self.rec
        self.index = len(rec.records)
        parent = rec._stack[-1] if rec._stack else -1
        rec.records.append([self.name, perf_counter(), 0.0, parent, rec.item])
        rec._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        self.rec.records[self.index][2] = perf_counter()
        self.rec._stack.pop()
