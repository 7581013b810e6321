"""Live telemetry streaming: the event bus and its wire format.

The tracer (:mod:`repro.obs.trace`) and the metrics registry
(:mod:`repro.obs.registry`) record evidence you can export *after* a
run.  This module adds the missing primitive for consuming telemetry
*while* the run is happening: a dependency-free, thread-safe
**event bus** that instrumented code publishes into incrementally —
finished spans, job and constraint-set lifecycle — and that any
number of consumers subscribe to without ever being able to stall a
solve.  Metric values are not echoed here: ``/metricz`` reads the
registry itself.

Design points
-------------
* **Publishers never block.**  ``publish`` appends to a bounded ring
  buffer and to each subscriber's bounded queue under one short lock.
  A slow consumer overflows its own queue — the oldest events are
  dropped and counted (:attr:`Subscription.dropped`), the publisher
  carries on at full speed.
* **Off the solver path.**  No solver or tracer code publishes:
  each job's events go out once, when the job is dispatched and when
  it finishes, and a bus with no subscribers costs one lock and one
  ring append per event.
* **Replayable.**  Every event gets a monotonically increasing
  ``seq``; the ring buffer serves :meth:`EventBus.replay` so a late or
  reconnecting consumer (SSE ``Last-Event-ID``) can catch up on recent
  history.
* **Process-safe by merging.**  Pool workers don't publish across the
  process boundary; their span records travel home in picklable
  results and the parent publishes them with the job's lifecycle
  (:func:`repro.engine.pool.publish_done`, shared by the engine and
  the service scheduler), so multiprocess runs stream through the
  same bus.

Event schema
------------
Events are plain JSON-safe dicts.  Every event carries ``seq`` (bus
sequence number), ``ts`` (wall-clock seconds) and ``type``; the rest
is per-type payload:

==============  ======================================================
``job_queued``  the service admitted a job
``job_running`` a job was dispatched (engine or service)
``set_done``    per-constraint-set result: ``set``, ``pivots``,
                ``nodes``, ``wall``, ``worst``, ``best``
``span``        ``name``, ``cat``, ``dur``, ``depth``, ``pid``,
                ``args`` — one of the finished job's span records
``job_done`` / ``job_failed``   the job's outcome
==============  ======================================================

Job events carry the job's ``name``, and in the service its id in
``job``.  A finished job's ``set_done``, ``span`` and terminal events
come in that order.

The SSE helpers at the bottom (:func:`sse_format`,
:func:`parse_sse_stream`) define the wire framing the analysis
service's ``/v1/events`` endpoints and ``ServiceClient.watch`` share.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque

#: Default ring-buffer capacity (events kept for replay).
RING_SIZE = 4096

#: Default per-subscriber queue bound.
SUBSCRIBER_QUEUE = 1024


class Subscription:
    """One consumer's bounded view of the bus.

    Obtain via :meth:`EventBus.subscribe`; use as a context manager or
    call :meth:`close` so the bus forgets the queue.  Events overflow
    oldest-first: the queue always holds the *most recent* ``maxlen``
    events and :attr:`dropped` counts what was lost.
    """

    def __init__(self, bus: "EventBus", maxlen: int,
                 wakeup=None, name: str | None = None):
        self._bus = bus
        self._queue: deque = deque(maxlen=maxlen)
        self._cond = threading.Condition()
        self._wakeup = wakeup
        #: Stable label for drop accounting (``obs.stream.dropped.<name>``).
        self.name = name or "anonymous"
        self.dropped = 0
        self.closed = False

    # Called by the bus under its lock; must never block.
    def _offer(self, event: dict) -> None:
        with self._cond:
            if len(self._queue) == self._queue.maxlen:
                self._queue.popleft()
                self.dropped += 1
            self._queue.append(event)
            self._cond.notify()
        if self._wakeup is not None:
            try:
                self._wakeup()
            except Exception:      # a consumer's bug must not stall us
                pass

    def get(self, timeout: float | None = None) -> dict | None:
        """Next event, blocking up to `timeout`; None on timeout."""
        with self._cond:
            if not self._queue:
                self._cond.wait(timeout)
            if self._queue:
                return self._queue.popleft()
            return None

    def pop_all(self) -> list[dict]:
        """Drain everything buffered right now (non-blocking)."""
        with self._cond:
            events = list(self._queue)
            self._queue.clear()
            return events

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._bus._forget(self)

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EventBus:
    """Thread-safe fan-out of telemetry events with bounded buffers.

    >>> bus = EventBus()
    >>> with bus.subscribe() as sub:
    ...     _ = bus.publish("job_done", job="j1", status="ok")
    ...     sub.get(timeout=1)["type"]
    'job_done'
    """

    def __init__(self, ring_size: int = RING_SIZE):
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=ring_size)
        self._subs: list[Subscription] = []
        self._seq = 0
        # Per-name drop totals of closed subscriptions; live
        # subscriptions are summed in on top (drop_counts/dropped).
        self._closed_drops: dict[str, int] = {}

    # ------------------------------------------------------------------
    def publish(self, type: str, **payload) -> dict:
        """Emit one event; never blocks on consumers."""
        payload["type"] = type
        payload["ts"] = time.time()
        with self._lock:
            self._seq += 1
            payload["seq"] = self._seq
            self._ring.append(payload)
            subs = self._subs
            if subs:
                for sub in subs:
                    sub._offer(payload)
        return payload

    def subscribe(self, maxlen: int = SUBSCRIBER_QUEUE,
                  wakeup=None, name: str | None = None) -> Subscription:
        """Attach a consumer.

        ``wakeup``, if given, is called (from the publisher's thread)
        after each delivery — the hook an asyncio consumer uses to poke
        its event loop via ``call_soon_threadsafe``.  ``name`` labels
        the consumer for drop accounting (:meth:`drop_counts`);
        several subscriptions may share one name and their drops sum.
        """
        with self._lock:
            label = name or f"sub{len(self._subs) + 1}"
        sub = Subscription(self, maxlen, wakeup=wakeup, name=label)
        with self._lock:
            self._subs = self._subs + [sub]
        return sub

    def _forget(self, sub: Subscription) -> None:
        with self._lock:
            if sub.dropped:
                self._closed_drops[sub.name] = \
                    self._closed_drops.get(sub.name, 0) + sub.dropped
            self._subs = [s for s in self._subs if s is not sub]

    # ------------------------------------------------------------------
    @property
    def seq(self) -> int:
        """Sequence number of the most recent event."""
        with self._lock:
            return self._seq

    @property
    def subscribers(self) -> int:
        return len(self._subs)

    @property
    def dropped(self) -> int:
        """Total events dropped across all (live and past) consumers."""
        return sum(self.drop_counts().values())

    def drop_counts(self) -> dict[str, int]:
        """``{subscriber name: events dropped}``, live + closed merged.

        This is the export surface the drop counters were always
        missing: ``/metricz`` publishes each entry as an
        ``obs.stream.dropped.<name>`` gauge and the live dashboard
        shows the sum in its footer.  Names with zero drops are
        omitted — a healthy bus reports an empty dict.
        """
        with self._lock:
            counts = dict(self._closed_drops)
            for sub in self._subs:
                if sub.dropped:
                    counts[sub.name] = counts.get(sub.name, 0) \
                        + sub.dropped
            return counts

    def replay(self, since: int = 0) -> list[dict]:
        """Ring-buffered events with ``seq > since``, oldest first.

        The ring is bounded, so a consumer that fell more than
        ``ring_size`` events behind gets what is left; the gap shows as
        a jump in ``seq``.
        """
        with self._lock:
            return [event for event in self._ring
                    if event["seq"] > since]


# ----------------------------------------------------------------------
# Server-sent-event framing (shared by the service and its client)
# ----------------------------------------------------------------------
def sse_format(event: dict) -> bytes:
    """Frame one bus event as an SSE message.

    ``seq`` becomes the SSE ``id`` (so ``Last-Event-ID`` reconnects
    resume from the ring buffer), ``type`` the SSE ``event`` name, and
    the whole dict travels as one-line JSON ``data``.
    """
    data = json.dumps(event, separators=(",", ":"))
    return (f"id: {event.get('seq', 0)}\n"
            f"event: {event.get('type', 'message')}\n"
            f"data: {data}\n\n").encode()


def sse_comment(text: str = "keepalive") -> bytes:
    """An SSE comment line — the heartbeat that keeps proxies open."""
    return f": {text}\n\n".encode()


def parse_sse_stream(stream):
    """Yield parsed events from a byte-line stream of SSE frames.

    `stream` needs only ``readline()`` returning bytes (an
    ``http.client.HTTPResponse``, a socket file, a ``BytesIO``).
    Yields dicts: the JSON ``data`` payload with the SSE ``id`` merged
    in as ``seq`` and the SSE ``event`` name as ``type`` when the
    payload does not already carry them.  Comment lines (heartbeats)
    are skipped.  Ends at EOF.
    """
    event_id, event_type, data_lines = None, None, []
    while True:
        raw = stream.readline()
        if not raw:
            return
        line = raw.decode("utf-8", errors="replace").rstrip("\r\n")
        if not line:                       # dispatch on blank line
            if data_lines:
                text = "\n".join(data_lines)
                try:
                    payload = json.loads(text)
                except json.JSONDecodeError:
                    payload = {"data": text}
                if not isinstance(payload, dict):
                    payload = {"data": payload}
                if event_type and "type" not in payload:
                    payload["type"] = event_type
                if event_id is not None and "seq" not in payload:
                    try:
                        payload["seq"] = int(event_id)
                    except ValueError:
                        pass
                yield payload
            event_id, event_type, data_lines = None, None, []
            continue
        if line.startswith(":"):           # comment / heartbeat
            continue
        field, _, value = line.partition(":")
        value = value[1:] if value.startswith(" ") else value
        if field == "id":
            event_id = value
        elif field == "event":
            event_type = value
        elif field == "data":
            data_lines.append(value)
