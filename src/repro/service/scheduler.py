"""The scheduler: queue -> pool dispatch with budgets.

``workers`` asyncio worker tasks pop :class:`~.protocol.JobRecord`
objects off the :class:`~.queue.JobQueue` and run each through the
engine's :class:`~repro.engine.pool.Pool` — spawned worker processes
in production (real parallelism, crash isolation) or threads for tests
and low-overhead embedding.  The unit of work is the engine's
:func:`repro.engine.execute_job` payload, and the pool, its retry
policy and the cache step are the ones ``repro engine run`` uses, so
the service computes bounds on exactly the engine's code path.

Deadline propagation
--------------------
A spec's ``deadline_seconds`` counts from admission.  Whatever is left
when the job reaches a worker becomes its per-set solver timeout
(min-combined with any explicit ``set_timeout``), so a job that sat in
the queue gets a proportionally tighter solver budget instead of
blowing through its deadline.  A job whose deadline has already passed
fails immediately with ``deadline exceeded`` and never occupies a
worker.  Cache keys carry only the *spec-level* budgets, never the
deadline-derived remainder: a run that finishes without tripping any
budget produced the true bound, which is valid for every deadline,
while a budget-degraded (partial) result is never cached at all.

Failure semantics
-----------------
Deterministic analysis errors come back inside the ``JobResult``
(status ``failed``) and are terminal.  Transient executor failures — a
worker killed by the OOM killer — are retried by the pool's policy
(:mod:`repro.engine.pool`), which replaces the dead worker alone.
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
import time
import traceback

from ..chaos import inject
from ..engine import metrics
from ..engine.core import execute_job
from ..engine.pool import Pool, lookup, store
from ..errors import ReproError
from ..obs.registry import MetricsRegistry

#: Buckets for queue-wait and run-time histograms (seconds).
LATENCY_BUCKETS = (0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0, 60.0)

#: EWMA smoothing for the running average job duration that feeds the
#: ``Retry-After`` estimate.
_EWMA_ALPHA = 0.3


class Scheduler:
    """Dispatches queued job records to analysis workers.

    Parameters
    ----------
    queue:
        The :class:`~.queue.JobQueue` to consume.
    workers:
        Executor width and number of concurrent dispatch tasks.
    cache:
        A :class:`repro.engine.ResultCache` (None disables caching).
        The scheduler looks each job up before dispatch and stores its
        report after; workers never touch it.
    executor:
        The :class:`~repro.engine.pool.Pool` kind: ``"process"``
        (default; spawned workers) or ``"thread"``.
    runner:
        The payload function run in the executor; defaults to
        :func:`repro.engine.execute_job`.  Injectable for tests.
    registry:
        The service's :class:`~repro.obs.MetricsRegistry`; every job
        is folded into it under ``engine.*`` names by
        :func:`repro.engine.metrics.record` (job status, cache
        traffic, solver effort, stage seconds from its spans).
    bus:
        An optional :class:`repro.obs.EventBus`; each job's
        ``job_running`` (at dispatch) and ``job_done`` /
        ``job_failed`` (see :meth:`_publish_done`) go into it for the
        ``/v1/events`` firehose.
    """

    def __init__(self, queue, workers: int = 2, cache=None,
                 executor: str = "process", runner=None,
                 default_set_timeout: float | None = None,
                 max_iterations: int | None = None,
                 registry: MetricsRegistry | None = None,
                 bus=None, journal=None):
        self.queue = queue
        self.workers = max(1, workers)
        self.cache = cache
        # Spawned (not forked) workers: fork children inherit the
        # service's listening socket and journal WAL descriptors.
        self.pool = Pool(self.workers, kind=executor,
                         start_method="spawn")
        self.runner = runner or execute_job
        self.default_set_timeout = default_set_timeout
        self.max_iterations = max_iterations
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.bus = bus
        #: Optional :class:`~.durable.JobJournal`: start and terminal
        #: records are logged before events are published, so a crash
        #: at any point replays to a consistent queue.
        self.journal = journal
        for status in ("ok", "partial", "failed"):
            self.registry.counter(f"service.jobs.done.{status}")
        self.registry.counter("service.jobs.deadline_expired")
        self.registry.counter("service.retries")
        self.registry.histogram("service.queue_seconds",
                                buckets=LATENCY_BUCKETS)
        self.registry.histogram("service.run_seconds",
                                buckets=LATENCY_BUCKETS)
        self.running = 0
        self.completed = 0
        self.avg_run_seconds = 0.0
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker tasks (the pool starts with the first job)."""
        self._tasks = [asyncio.create_task(self._worker(),
                                           name=f"service-worker-{n}")
                       for n in range(self.workers)]

    async def join(self) -> None:
        """Wait for every worker to exit (queue closed and drained)."""
        if self._tasks:
            await asyncio.gather(*self._tasks)

    # ------------------------------------------------------------------
    # Admission helpers (used by the HTTP layer)
    # ------------------------------------------------------------------
    def retry_after(self) -> int:
        """Whole-second backpressure hint for a 429 response: the
        estimated time for the backlog to clear one slot."""
        backlog = self.queue.depth + self.running
        per_job = max(self.avg_run_seconds, 0.05)
        return max(1, math.ceil(backlog * per_job / self.workers))

    def note_depth(self) -> None:
        """Refresh the queue-depth and running gauges; their readers
        (``/metricz`` and the drain's metrics flush) call this first."""
        self.registry.gauge("service.queue_depth").set(self.queue.depth)
        self.registry.gauge("service.running").set(self.running)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            record = await self.queue.pop()
            if record is None:
                return
            await self._run_record(record)

    async def _run_record(self, record) -> None:
        record.state = "running"
        record.queue_seconds = (time.monotonic()
                                - record.admitted_monotonic)
        self.registry.histogram(
            "service.queue_seconds",
            buckets=LATENCY_BUCKETS).observe(record.queue_seconds)
        if self.journal is not None:
            self.journal.append("start", id=record.id)
        if self.bus is not None:
            self.bus.publish("job_running", job=record.id,
                             name=record.spec.name,
                             queue_seconds=record.queue_seconds)
        self.running += 1
        started = time.monotonic()
        span_ts = time.time()
        span_clock = time.perf_counter()
        try:
            # Chaos seam: stall the job on its way to the executor,
            # consuming its deadline budget (the deadline check inside
            # _execute then fires exactly as it would for a genuinely
            # overloaded pool).  The stall is run time: the job has
            # left the queue.
            hang = inject.delay("worker.hang")
            if hang > 0:
                await asyncio.sleep(hang)
            report_text = None
            try:
                report_text = await self._execute(record)
            except Exception as error:
                # A defect fails its own job, not the worker coroutine
                # that serves this share of the queue.
                traceback.print_exc()
                record.fail(f"internal error: {error!r}")
            self._finish_spans(record, span_ts,
                               time.perf_counter() - span_clock)
            self._journal_terminal(record, report_text)
            self._publish_done(record)
        finally:
            record.run_seconds = time.monotonic() - started
            self.registry.histogram(
                "service.run_seconds",
                buckets=LATENCY_BUCKETS).observe(record.run_seconds)
            self.avg_run_seconds = (
                record.run_seconds if not self.completed
                else _EWMA_ALPHA * record.run_seconds
                + (1 - _EWMA_ALPHA) * self.avg_run_seconds)
            self.running -= 1
            self.completed += 1
            self.registry.counter(
                f"service.jobs.done.{record.status or 'failed'}").inc()

    def _finish_spans(self, record, span_ts: float,
                      span_dur: float) -> None:
        """Synthesize the enclosing ``service.job`` span for a record.

        Built as a plain record dict, *not* via ``tracer.span(...)``:
        a context manager held across the awaits in ``_run_record``
        would corrupt the tracer's thread-local depth stack when
        several jobs interleave on the event-loop thread.  The worker
        spans shipped back in the result were filled into
        ``record.spans`` by ``_execute``; the service span fronts them.
        ``record.spans`` is the one store of a job's spans: ``GET
        /v1/jobs/{id}/trace`` serves it.
        """
        span = {
            "name": "service.job", "cat": "service",
            "ts": span_ts, "dur": span_dur,
            "pid": os.getpid(), "tid": threading.get_ident(),
            "depth": 0,
            "args": {"job": record.id, "name": record.spec.name,
                     "status": record.status or "failed",
                     "cache_hit": record.cache_hit},
        }
        record.spans = [span] + list(record.spans or [])

    def _publish_done(self, record) -> None:
        """Publish the record's ``job_done`` or ``job_failed``: its
        outcome and, with a report, its set count and bounds.  The
        per-set results and spans stay in the record, which ``GET
        /v1/jobs/{id}`` and ``/trace`` serve."""
        if self.bus is None:
            return
        payload = {"job": record.id, "name": record.spec.name,
                   "status": record.status,
                   "cache_hit": record.cache_hit}
        report = record.report
        if report is not None:
            payload.update(sets=report.sets_solved, worst=report.worst,
                           best=report.best)
        if record.state == "failed":
            self.bus.publish("job_failed", **payload, error=record.error)
        else:
            self.bus.publish("job_done", **payload)

    def _journal_terminal(self, record, report_text) -> None:
        """Log the terminal frame for a record.

        The ``complete`` frame carries the serialized report, every
        set's result included, so a restarted service serves finished
        bounds straight from the journal without re-running anything.
        `report_text` is the report's JSON text when the cache step
        has it (a stored miss, a held hit); it is spliced in as it is,
        and only a report without one is encoded here.
        """
        if self.journal is None:
            return
        from ..engine.cache import report_json

        if record.state == "failed":
            self.journal.append("fail", id=record.id,
                                status=record.status,
                                error=record.error)
            return
        if report_text is None:
            report_text = "null" if record.report is None \
                else report_json(record.report)
        self.journal.append(
            "complete", id=record.id, status=record.status,
            cache_hit=record.cache_hit, encoded={"report": report_text})

    async def _execute(self, record) -> str | None:
        """Run one record to its result; returns its report's JSON
        text when the cache step has it, else None."""
        spec = record.spec
        remaining = record.deadline_remaining()
        if remaining is not None and remaining <= 0:
            self.registry.counter("service.jobs.deadline_expired").inc()
            record.fail("deadline exceeded while queued")
            return None
        try:
            job = spec.to_analysis_job()
        except (ReproError, KeyError) as error:
            record.fail(str(error))
            return None

        set_timeout = spec.set_timeout if spec.set_timeout is not None \
            else self.default_set_timeout
        max_iterations = spec.max_iterations \
            if spec.max_iterations is not None else self.max_iterations
        key, result = lookup(self.cache, job, set_timeout, max_iterations)
        if result is None:
            if remaining is not None:
                set_timeout = remaining if set_timeout is None \
                    else min(set_timeout, remaining)
            # Chaos seam: collapse the solver budget so the set solver
            # trips its deadline and degrades to the (sound) LP
            # relaxation — the "partial" path under injection.
            set_timeout = inject.budget("solver.budget", set_timeout)
            result = await self.pool.run(
                self.runner, (job, set_timeout, max_iterations, True))
            record.attempts = result.attempts
            self.registry.counter("service.retries").inc(
                result.attempts - 1)
            report_text = store(self.cache, key, result)
        elif self.journal is not None:
            report_text = self.cache.get_report_text(key)
        else:
            report_text = None
        record.finish(result)
        record.spans = list(result.spans)
        metrics.record(self.registry, result,
                       cache=self.cache is not None)
        return report_text
