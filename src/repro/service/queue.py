"""Bounded priority queue with admission control for the service.

The queue is the backpressure point of the whole service: pushes are
synchronous (they happen on the event loop while handling ``POST
/v1/jobs``) and fail fast with :class:`QueueSaturated` when the depth
cap is reached — the server turns that into ``429 Too Many Requests``
with a ``Retry-After`` estimate instead of buffering unboundedly.
Draining closes admission (:class:`QueueClosed` -> ``503``) while
workers continue popping until the queue is empty.

Ordering: higher ``priority`` pops first; within a priority, records
order by their tenant's fair-share *pass* (0.0 when tenancy is off —
see ``durable/tenants.py``), and ties break on a monotonically
increasing push sequence number, so dispatch is FIFO-stable in push
order and the heap never compares records.  Journal recovery pushes
the restored jobs in job-id order, which is their admission order.
"""

from __future__ import annotations

import asyncio
import heapq

from ..errors import ReproError


class QueueSaturated(ReproError):
    """The queue is at capacity; retry after backoff (HTTP 429)."""

    def __init__(self, depth: int, maxsize: int):
        self.depth = depth
        self.maxsize = maxsize
        super().__init__(
            f"queue saturated ({depth}/{maxsize} jobs waiting)")


class QueueClosed(ReproError):
    """The service is draining and admits no new work (HTTP 503)."""

    def __init__(self):
        super().__init__("service is draining; not accepting jobs")


class JobQueue:
    """Priority queue bridging the HTTP handlers and the scheduler.

    Single-event-loop object: ``push``/``close``/``pop_nowait`` are
    plain calls from coroutines, ``pop`` awaits work.  ``maxsize`` <= 0
    means unbounded.
    """

    def __init__(self, maxsize: int = 0):
        self.maxsize = maxsize
        self._heap: list = []     # (-priority, fair_pass, seq, record)
        self._seq = 0
        self._closed = False
        self._waiters: list[asyncio.Future] = []

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def closed(self) -> bool:
        return self._closed

    def push(self, record, force: bool = False) -> None:
        """Admit a record or raise QueueSaturated/QueueClosed.

        ``force`` bypasses the depth cap for records that were already
        admitted once — journal recovery can restore more jobs than
        ``maxsize`` (a full queue plus whatever was running at crash
        time), and refusing them would turn every restart on that
        journal into the same boot failure.
        """
        if self._closed:
            raise QueueClosed()
        if not force and self.maxsize > 0 \
                and len(self._heap) >= self.maxsize:
            raise QueueSaturated(len(self._heap), self.maxsize)
        self._seq += 1
        heapq.heappush(self._heap,
                       (-record.spec.priority,
                        getattr(record, "fair_pass", 0.0),
                        self._seq, record))
        self._wake_one()

    async def pop(self):
        """Next record by priority, or None once closed and empty."""
        while True:
            record = self.pop_nowait()
            if record is not None:
                return record
            if self._closed:
                return None
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter

    def pop_nowait(self):
        """Next record if one is waiting, else None."""
        if self._heap:
            return heapq.heappop(self._heap)[3]
        return None

    def remove(self, record) -> bool:
        """Withdraw a record that has not been popped yet.

        The admission-rollback primitive: a submit whose journal frame
        cannot be written must not stay admitted (the 503 tells the
        client to retry, and an unjournaled job would be silently lost
        by the next crash).  O(depth), which is fine for an error
        path.  True if the record was found and removed.
        """
        for index, entry in enumerate(self._heap):
            if entry[3] is record:
                last = self._heap.pop()
                if index < len(self._heap):
                    self._heap[index] = last
                    heapq.heapify(self._heap)
                return True
        return False

    def close(self) -> None:
        """Stop admitting; pending pops return once the heap empties."""
        self._closed = True
        self._wake_all()

    # ------------------------------------------------------------------
    def _wake_one(self) -> None:
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.done():
                waiter.set_result(None)
                return

    def _wake_all(self) -> None:
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.done():
                waiter.set_result(None)
