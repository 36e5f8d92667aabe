"""In-memory spans for the traced benchmark run.

A span is one timed call at a layer boundary: a name, start and end on
the system-wide monotonic clock (so spans from different processes of
one run line up), the span that caused it, and the sizes of the work it
did.  Spans are kept in memory and written as JSON lines only when the
process that recorded them is done, so writing costs nothing while the
work is timed.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager

clock = time.perf_counter  # CLOCK_MONOTONIC on Linux: comparable across processes


class Tracer:
    """Records nested spans; ``parent`` is the id of the enclosing span."""

    def __init__(self, root_parent: str | None = None):
        self.spans: list[dict] = []
        self._stack: list[str] = [root_parent] if root_parent else []
        self._prefix = f"{os.getpid()}:"

    def _open(self, name: str, sizes: dict) -> dict:
        span = {
            "id": f"{self._prefix}{len(self.spans)}",
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": clock(),
            "end": None,
            "sizes": dict(sizes),
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def _close(self, span: dict) -> None:
        span["end"] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **sizes):
        """Time the block; the yielded dict's ``sizes`` may be filled in later."""
        span = self._open(name, sizes)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn, sizer=None):
        """A stand-in for ``fn`` that records one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sizer is not None:
                span["sizes"].update(sizer(args, result))
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def subtree(spans: list[dict], root_id: str) -> list[dict]:
    """The span ``root_id`` and every span under it."""
    children: dict[str, list[dict]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    out = [span for span in spans if span["id"] == root_id]
    for span in out:  # grows while it is walked
        out.extend(children.get(span["id"], []))
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds of self time per span name.

    A span's self time is its duration minus the time its children cover.
    Children of one span never overlap here: every traced call is made
    from a single thread.  The layer is the name before its first dot.
    """
    child_time: dict[str, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + duration(span)
    names: dict[str, float] = {}
    for span in spans:
        own = duration(span) - child_time.get(span["id"], 0.0)
        names[span["name"]] = names.get(span["name"], 0.0) + own
    return names
