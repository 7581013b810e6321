"""Distributed trace context: one identity per job, everywhere it runs.

One job's spans come from more than one process: the submitting
client, the service's scheduler and the pool worker that solves it.
Each process has its own tracer, so the single most useful
observability invariant — *all spans of one job join into one tree* —
needs an identity they share; without one, the worker's solver spans
are orphans that never connect back to the submission that caused
them.

A :class:`TraceContext` is that identity.  It is deliberately tiny —
``(trace_id, parent_span_id, baggage)`` — and travels three ways:

* **HTTP**: the ``X-Repro-Trace`` header (:meth:`TraceContext.to_header`
  / :meth:`TraceContext.from_header`), W3C-traceparent-flavoured:
  ``<trace_id>-<parent_span_id>`` plus ``;key=value`` baggage pairs.
* **Job specs**: :class:`~repro.service.protocol.JobSpec` carries the
  context as a field, so journal ``submit`` frames (the spec is what
  is logged) propagate it with no extra plumbing.
* **Pickle**: the engine's ``execute_job`` payload ships the context
  dict to pool workers, whose tracers stamp every span record with
  ``trace`` (and roots with ``parent``) — see
  :class:`repro.obs.trace.Tracer`.

Baggage is a small set of string pairs for cross-cutting labels
(the benchmark name, the submitting host); it rides the context but
is *not* stamped onto every span record.

The context never participates in cache keys or analysis fingerprints:
two submissions of the same spec under different trace ids must share
cache entries and produce bit-identical bounds.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

#: Hex id lengths (bytes of entropy): 128-bit trace, 64-bit span.
_TRACE_ID_BYTES = 16
_SPAN_ID_BYTES = 8

_ID_RE = re.compile(r"^[0-9a-f]+$")
_BAGGAGE_KEY_RE = re.compile(r"^[A-Za-z0-9_.\-]+$")


def new_trace_id() -> str:
    """A fresh 128-bit hex trace id."""
    return os.urandom(_TRACE_ID_BYTES).hex()


def new_span_id() -> str:
    """A fresh 64-bit hex span id."""
    return os.urandom(_SPAN_ID_BYTES).hex()


@dataclass(frozen=True)
class TraceContext:
    """The identity a job's spans share across processes.

    Hashable and picklable (baggage is a sorted tuple of pairs), so it
    can live inside the frozen :class:`~repro.service.protocol.JobSpec`
    and cross the process-pool pickle boundary unchanged.
    """

    trace_id: str
    #: Span id of the caller's enclosing span ("" for a root context).
    parent_span_id: str = ""
    #: Sorted ``(key, value)`` string pairs.
    baggage: tuple = ()

    # ------------------------------------------------------------------
    @classmethod
    def new(cls, **baggage) -> "TraceContext":
        """A fresh root context (new trace id, no parent)."""
        return cls(trace_id=new_trace_id(),
                   parent_span_id=new_span_id(),
                   baggage=tuple(sorted((str(k), str(v))
                                        for k, v in baggage.items())))

    def child(self) -> "TraceContext":
        """Same trace, fresh parent span id (a new hop in the chain)."""
        return TraceContext(trace_id=self.trace_id,
                            parent_span_id=new_span_id(),
                            baggage=self.baggage)

    # ------------------------------------------------------------------
    # Wire forms
    # ------------------------------------------------------------------
    def to_header(self) -> str:
        """The ``X-Repro-Trace`` header value."""
        head = self.trace_id
        if self.parent_span_id:
            head += f"-{self.parent_span_id}"
        return head + "".join(f";{k}={v}" for k, v in self.baggage)

    @classmethod
    def from_header(cls, text: str) -> "TraceContext":
        """Parse an ``X-Repro-Trace`` value; raises ValueError."""
        if not text or not isinstance(text, str):
            raise ValueError("empty trace header")
        parts = text.strip().split(";")
        ids = parts[0].split("-", 1)
        trace_id = ids[0].lower()
        parent = ids[1].lower() if len(ids) > 1 else ""
        if not _ID_RE.match(trace_id) or (parent
                                          and not _ID_RE.match(parent)):
            raise ValueError(f"malformed trace ids in {parts[0]!r}")
        baggage = []
        for pair in parts[1:]:
            if not pair:
                continue
            key, sep, value = pair.partition("=")
            if not sep or not _BAGGAGE_KEY_RE.match(key):
                raise ValueError(f"malformed baggage pair {pair!r}")
            baggage.append((key, value))
        return cls(trace_id=trace_id, parent_span_id=parent,
                   baggage=tuple(sorted(baggage)))

    def to_dict(self) -> dict:
        data = {"trace_id": self.trace_id}
        if self.parent_span_id:
            data["parent_span_id"] = self.parent_span_id
        if self.baggage:
            data["baggage"] = dict(self.baggage)
        return data

    @classmethod
    def from_dict(cls, data) -> "TraceContext":
        """Parse the JSON form; raises ValueError on junk."""
        if isinstance(data, TraceContext):
            return data
        if not isinstance(data, dict):
            raise ValueError("trace context must be a JSON object")
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) \
                or not _ID_RE.match(trace_id.lower()):
            raise ValueError(f"bad trace_id {trace_id!r}")
        parent = data.get("parent_span_id") or ""
        if parent and (not isinstance(parent, str)
                       or not _ID_RE.match(parent.lower())):
            raise ValueError(f"bad parent_span_id {parent!r}")
        baggage = data.get("baggage") or {}
        if not isinstance(baggage, dict):
            raise ValueError("baggage must be an object")
        return cls(trace_id=trace_id.lower(),
                   parent_span_id=parent.lower(),
                   baggage=tuple(sorted((str(k), str(v))
                                        for k, v in baggage.items())))
