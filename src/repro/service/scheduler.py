"""The scheduler: queue -> executor dispatch with budgets and retry.

``workers`` asyncio worker tasks pop :class:`~.protocol.JobRecord`
objects off the :class:`~.queue.JobQueue` and run each through an
executor — a ``ProcessPoolExecutor`` in production (real parallelism,
crash isolation) or a ``ThreadPoolExecutor`` for tests and
low-overhead embedding.  The unit of work is the engine's
:func:`repro.engine.execute_job` payload, so the service computes
bounds on exactly the code path ``repro engine run`` uses.

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
worker killed by the OOM killer, a broken pool — are retried with
exponential backoff in a fresh pool up to ``retries`` times.
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
import time
import traceback
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..chaos import inject
from ..engine import metrics
from ..engine.core import execute_job
from ..engine.jobs import JobResult
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
        ``"process"`` (default) or ``"thread"``.
    runner:
        The payload function run in the executor; defaults to
        :func:`repro.engine.execute_job`.  Injectable for tests.
    registry:
        The service's :class:`~repro.obs.MetricsRegistry`; every job
        is folded into it under ``engine.*`` names by
        :func:`repro.engine.metrics.record` (job status, cache
        traffic, solver effort, stage seconds from its spans).
    bus:
        An optional :class:`repro.obs.EventBus`; job lifecycle
        (``job_running``, per-set ``set_done``, ``job_done`` /
        ``job_failed``) is published into it for the SSE endpoints.
        Per-set events are synthesized from the finished report (the
        executor boundary hides live solver progress), always *before*
        the terminal job event, so followers see per-set effort ahead
        of the final bound.
    """

    def __init__(self, queue, workers: int = 2, cache=None,
                 executor: str = "process", runner=None,
                 retries: int = 2, backoff: float = 0.25,
                 default_set_timeout: float | None = None,
                 max_iterations: int | None = None,
                 registry: MetricsRegistry | None = None,
                 bus=None, journal=None, tracer=None):
        if executor not in ("process", "thread"):
            raise ValueError(f"unknown executor kind {executor!r}")
        self.queue = queue
        self.workers = max(1, workers)
        self.cache = cache
        self.executor_kind = executor
        self.runner = runner or execute_job
        self.retries = retries
        self.backoff = backoff
        self.default_set_timeout = default_set_timeout
        self.max_iterations = max_iterations
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.bus = bus
        #: Optional :class:`~.durable.JobJournal`: start and terminal
        #: records are logged before events are published, so a crash
        #: at any point replays to a consistent queue.
        self.journal = journal
        #: Optional service-level :class:`repro.obs.Tracer`; every
        #: finished job's spans (scheduler + workers) are absorbed into
        #: it, which also streams them over SSE when the tracer's bus
        #: is attached.
        self.tracer = tracer
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
        self._executor = None
        self._tasks: list[asyncio.Task] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Create the executor and spawn the worker tasks."""
        self._executor = self._make_executor()
        self._tasks = [asyncio.create_task(self._worker(),
                                           name=f"service-worker-{n}")
                       for n in range(self.workers)]

    async def join(self) -> None:
        """Wait for every worker to exit (queue closed and drained)."""
        if self._tasks:
            await asyncio.gather(*self._tasks)

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def _make_executor(self):
        if self.executor_kind == "thread":
            return ThreadPoolExecutor(max_workers=self.workers)
        # Spawned (not forked) workers: fork children inherit the
        # service's listening socket and journal WAL descriptors, so
        # pool processes orphaned by a SIGKILLed parent would keep
        # the port bound and the WAL open — exactly what a crash
        # recovery restart needs them not to do.
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"))

    def _reset_executor(self) -> None:
        """Replace a (possibly broken) pool before a retry."""
        broken = self._executor
        self._executor = self._make_executor()
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)

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
        self.registry.gauge("service.queue_depth").set(self.queue.depth)
        self.registry.gauge("service.running").set(self.running)

    def _budget_key(self, spec) -> str:
        """Spec-level budgets as cache-key material; matches
        :meth:`repro.engine.AnalysisEngine._budget_key` so warm cache
        entries are shared with ``repro engine run``."""
        set_timeout = spec.set_timeout if spec.set_timeout is not None \
            else self.default_set_timeout
        max_iterations = spec.max_iterations \
            if spec.max_iterations is not None else self.max_iterations
        return (f"timeout={set_timeout!r}|"
                f"max_iterations={max_iterations!r}")

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            record = await self.queue.pop()
            if record is None:
                return
            self.note_depth()
            await self._run_record(record)

    async def _run_record(self, record) -> None:
        loop = asyncio.get_running_loop()
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
        self.note_depth()
        # Chaos seam: stall the job on its way to the executor,
        # consuming its deadline budget (the deadline check inside
        # _execute then fires exactly as it would for a genuinely
        # overloaded pool).
        hang = inject.delay("worker.hang")
        if hang > 0:
            await asyncio.sleep(hang)
        started = time.monotonic()
        span_ts = time.time()
        span_clock = time.perf_counter()
        try:
            try:
                await self._execute(loop, record)
            except Exception as error:
                # A defect fails its own job, not the worker coroutine
                # that serves this share of the queue.
                traceback.print_exc()
                record.fail(f"internal error: {error!r}")
            self._finish_spans(record, span_ts,
                               time.perf_counter() - span_clock)
            self._journal_terminal(record)
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
            self.note_depth()

    def _finish_spans(self, record, span_ts: float,
                      span_dur: float) -> None:
        """Synthesize the enclosing ``service.job`` span for a record.

        Built as a plain record dict, *not* via ``tracer.span(...)``:
        a context manager held across the awaits in ``_run_record``
        would corrupt the tracer's thread-local depth stack when
        several jobs interleave on the event-loop thread.  The worker
        spans shipped back in the result were filled into
        ``record.spans`` by ``_execute``; the service span fronts them
        and the whole set is absorbed into the service tracer (which
        republishes over SSE when a bus is attached).
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
        context = record.spec.trace
        if context is not None:
            span["trace"] = context.trace_id
            if context.parent_span_id:
                span["parent"] = context.parent_span_id
        record.spans = [span] + list(record.spans or [])
        if self.tracer is not None:
            self.tracer.absorb(record.spans)

    def _journal_terminal(self, record) -> None:
        """Log per-set progress then the terminal frame for a record.

        The ``complete`` frame carries the serialized report, so a
        restarted service serves finished bounds straight from the
        journal without re-running anything.
        """
        if self.journal is None:
            return
        from ..engine.cache import report_to_dict

        report = record.report
        if report is not None:
            for result in report.set_results:
                self.journal.append(
                    "set_done", id=record.id, set=result.index,
                    worst=result.worst, best=result.best,
                    feasible=result.feasible)
        if record.state == "failed":
            self.journal.append("fail", id=record.id,
                                status=record.status,
                                error=record.error)
        else:
            self.journal.append(
                "complete", id=record.id, status=record.status,
                cache_hit=record.cache_hit,
                report=report_to_dict(report) if report is not None
                else None)

    def _publish_done(self, record) -> None:
        """Per-set progress then the terminal event for one record.

        The per-set ``set_done`` events come from the finished
        report's (canonically ordered) set results; publishing them
        ahead of ``job_done`` guarantees followers see solver effort
        per constraint set before the final bound, even for cache
        hits and process executors.
        """
        if self.bus is None:
            return
        report = record.report
        if report is not None:
            for result in report.set_results:
                self.bus.publish(
                    "set_done", job=record.id, name=record.spec.name,
                    set=result.index, feasible=result.feasible,
                    pivots=result.stats.simplex_iterations,
                    nodes=result.stats.nodes, wall=result.wall_time,
                    worst=result.worst, best=result.best)
        payload = {"job": record.id, "name": record.spec.name,
                   "status": record.status,
                   "cache_hit": record.cache_hit}
        if report is not None:
            payload["sets"] = report.sets_solved
            payload["worst"] = report.worst
            payload["best"] = report.best
        if record.state == "failed":
            payload["error"] = record.error
            self.bus.publish("job_failed", **payload)
        else:
            self.bus.publish("job_done", **payload)

    async def _execute(self, loop, record) -> None:
        spec = record.spec
        remaining = record.deadline_remaining()
        if remaining is not None and remaining <= 0:
            self.registry.counter("service.jobs.deadline_expired").inc()
            record.fail("deadline exceeded while queued")
            return
        try:
            job = spec.to_analysis_job()
        except (ReproError, KeyError) as error:
            record.fail(str(error))
            return

        key = None
        if self.cache is not None:
            key = self.cache.job_key(job.fingerprint(),
                                     budget=self._budget_key(spec))
            report = self.cache.get_report(key)
            if report is not None:
                record.cache_hit = True
                record.state = "done"
                record.status = "ok"
                record.report = report
                metrics.record(self.registry,
                               JobResult(job.name, "ok", report,
                                         cache_hit=True), cache=True)
                return

        set_timeout = spec.set_timeout if spec.set_timeout is not None \
            else self.default_set_timeout
        if remaining is not None:
            set_timeout = remaining if set_timeout is None \
                else min(set_timeout, remaining)
        # Chaos seam: collapse the solver budget so the set solver
        # trips its deadline and degrades to the (sound) LP
        # relaxation — the "partial" path under injection.
        set_timeout = inject.budget("solver.budget", set_timeout)
        max_iterations = spec.max_iterations \
            if spec.max_iterations is not None else self.max_iterations
        # Ship the submitter's trace context across the pickle
        # boundary so pool-worker spans carry the job's trace id.
        trace = spec.trace.to_dict() if spec.trace is not None else False
        payload = (job, set_timeout, max_iterations, trace)

        result = await self._dispatch(loop, payload, record)
        if result is None:           # retries exhausted; record failed
            metrics.record(self.registry,
                           JobResult(job.name, "failed",
                                     error=record.error),
                           cache=self.cache is not None)
            return
        record.finish(result)
        record.spans = list(result.spans)
        metrics.record(self.registry, result,
                       cache=self.cache is not None)
        if (result.report is not None and self.cache is not None
                and result.ok):
            self.cache.put_report(key, result.report)

    async def _dispatch(self, loop, payload, record):
        """Run the payload in the executor with retry + backoff."""
        attempt = 0
        while True:
            record.attempts += 1
            try:
                # Chaos seam: a dead worker, surfaced exactly where a
                # real pool crash surfaces (exercises retry + pool
                # reset below).
                inject.fire("worker.kill")
                return await loop.run_in_executor(
                    self._executor, self.runner, payload)
            except asyncio.CancelledError:
                raise
            except ReproError as error:
                # Deterministic analysis failure escaping the runner.
                record.fail(str(error))
                return None
            except Exception as error:
                attempt += 1
                self.registry.counter("service.retries").inc()
                if attempt > self.retries:
                    record.fail(
                        f"worker failed after {attempt} attempts: "
                        f"{error!r}")
                    return None
                self._reset_executor()
                await asyncio.sleep(self.backoff * (2 ** (attempt - 1)))
