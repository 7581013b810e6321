"""Hierarchical span tracing for the analysis pipeline.

A :class:`Tracer` records *spans* — named, timed regions of work with
structured attributes and counters — as flat, picklable records.  The
pipeline threads one tracer through compilation, CFG construction,
constraint generation, DNF expansion, LP formatting and every solver
call, so a single trace shows where a bound's wall time went and how
much simplex/branch-and-bound effort each constraint set consumed.

Design points
-------------
* **Zero cost when disabled.**  Instrumented code holds
  :data:`NULL_TRACER` by default; its ``span()`` returns a shared
  no-op context manager, so the disabled path is one attribute access
  and two no-op calls per instrumentation site.
* **Thread safety.**  Each thread keeps its own span stack (for depth
  / parent tracking) in a ``threading.local``; finished records are
  appended under a lock.
* **Process safety.**  Records are plain dicts.  A pool worker builds
  its own :class:`Tracer`, ships ``tracer.records()`` home inside its
  result object, and the parent :meth:`Tracer.absorb`\\ s them.  Start
  timestamps are anchored to the wall clock (``time.time``) so records
  from different processes interleave correctly, while durations come
  from ``time.perf_counter`` for resolution.
* **Exportable.**  :mod:`repro.obs.export` renders the records as
  Chrome ``trace_event`` JSON (loadable in ``chrome://tracing`` and
  Perfetto).

Example
-------
>>> tracer = Tracer()
>>> with tracer.span("solve", cat="solver", set=3) as span:
...     span.inc("pivots", 17)
...     span.set("status", "optimal")
>>> [r["name"] for r in tracer.records()]
['solve']
"""

from __future__ import annotations

import os
import threading
import time

#: Record keys, documented once: ``name`` (span label), ``cat``
#: (coarse category: pipeline / solver / cache / ...), ``ts`` (wall
#: clock seconds at start), ``dur`` (seconds), ``pid`` / ``tid``
#: (origin process and thread), ``depth`` (nesting level within its
#: thread) and ``args`` (attributes and counters).
RECORD_KEYS = ("name", "cat", "ts", "dur", "pid", "tid", "depth", "args")


class _Span:
    """A live span; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "cat", "args", "_ts", "_start",
                 "_depth")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def set(self, key: str, value) -> None:
        """Attach one structured attribute to the span."""
        self.args[key] = value

    def inc(self, key: str, amount: float = 1) -> None:
        """Increment a counter attribute (created at 0)."""
        self.args[key] = self.args.get(key, 0) + amount

    def __enter__(self) -> "_Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        stack.append(self)
        self._ts = self._tracer._now()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer._emit({
            "name": self.name,
            "cat": self.cat,
            "ts": self._ts,
            "dur": duration,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "depth": self._depth,
            "args": self.args,
        })


class _NullSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def inc(self, key: str, amount: float = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False
    _NULL_SPAN = _NullSpan()

    def span(self, name: str, cat: str = "pipeline", **attrs) -> _NullSpan:
        return self._NULL_SPAN

    def absorb(self, records) -> None:
        pass

    def records(self) -> list[dict]:
        return []

    def __len__(self) -> int:
        return 0


#: The module-wide disabled tracer; instrumented code defaults to it.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects span records; thread-safe, merge-friendly."""

    enabled = True

    def __init__(self):
        self._records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Anchor: wall-clock epoch + a monotonic reference, so every
        # span start is epoch-based (cross-process mergeable) while
        # still measured with perf_counter resolution.
        self._epoch = time.time()
        self._perf0 = time.perf_counter()

    # -- internal ------------------------------------------------------
    def _now(self) -> float:
        return self._epoch + (time.perf_counter() - self._perf0)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit(self, record: dict) -> None:
        with self._lock:
            self._records.append(record)

    # -- public --------------------------------------------------------
    def span(self, name: str, cat: str = "pipeline", **attrs) -> _Span:
        """Open a span; use as a context manager.

        Keyword arguments become the span's initial attributes.
        """
        return _Span(self, name, cat, dict(attrs))

    def absorb(self, records) -> None:
        """Merge records captured elsewhere (another thread/process)."""
        with self._lock:
            self._records.extend(records)

    def records(self) -> list[dict]:
        """All finished span records, in completion order."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __bool__(self) -> bool:
        # Truthy even when empty: ``len() == 0`` must never demote a
        # live tracer to "absent" in ``tracer or NULL_TRACER`` idioms.
        return True


def counters_from_stats(span, stats) -> None:
    """Attach an :class:`~repro.ilp.SolveStats`' figures to a span."""
    span.inc("lp_calls", stats.lp_calls)
    span.inc("pivots", stats.simplex_iterations)
    span.inc("nodes", stats.nodes)
    span.inc("nodes_pruned", stats.nodes_pruned)
