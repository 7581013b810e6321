"""The benchmark's own span recorder.

Deliberately independent of ``repro.obs``: a change to the program's
tracing must not be able to move the ruler that measures it.  Spans are
kept in memory and written as JSON when the run ends; each has an id, a
parent id, a per-job id and ``ref``, the index of the kernel sample that
closed its measured interval (whose host-speed factor normalizes it).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next = 1
        #: Set by the caller: the index of the kernel sample that will
        #: close the interval new spans fall in.
        self.ref = 0

    def _new(self, name: str, job, args: dict, parent) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]
        if job is None and parent is not None:
            job = parent["job"]
        span = {"id": self._next, "parent": parent["id"] if parent
                else None, "job": job, "ref": self.ref,
                "name": name, "args": args}
        self._next += 1
        return span

    @contextmanager
    def span(self, name: str, job=None, **args):
        """Time the block; ``args`` may be filled in inside it."""
        span = self._new(name, job, args, None)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span["args"]
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def add(self, name: str, start: float, end: float, job=None,
            parent: dict | None = None, **args) -> dict:
        """Record a span timed elsewhere (e.g. across two threads)."""
        span = self._new(name, job, args, parent)
        span["start"], span["end"] = start, end
        self.spans.append(span)
        return span


def self_seconds(spans: list[dict]) -> dict[int, float]:
    """{span id: duration minus the part its children cover}."""
    children: dict[int, list] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out = {}
    for span in spans:
        covered = 0.0
        edge = span["start"]
        for child in sorted(children.get(span["id"], ()),
                            key=lambda s: s["start"]):
            lo = max(child["start"], edge)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span["id"]] = span["end"] - span["start"] - covered
    return out
