"""The batch analysis engine: fan jobs out over a process pool, with
caching, timeouts and retry.

Dispatch
--------
A job is the unit of dispatch: :func:`execute_job` compiles, builds
the CFGs and solves every constraint-set ILP of one
:class:`~repro.engine.jobs.AnalysisJob` in one process, through
:meth:`repro.Analysis.estimate`.  ``AnalysisEngine.run`` calls it in
the caller when one job needs solving or the engine has one worker,
and otherwise gives each job its own pool task.  Workers only compute:
the engine looks each job up in the :class:`ResultCache` before
dispatch and stores its report after, in the calling process.

Failure semantics
-----------------
* Deterministic analysis errors (:class:`~repro.errors.ReproError`:
  infeasible systems, missing bounds, unbounded objectives, ...) fail
  only their own job; the batch continues.
* A constraint set that exceeds ``set_timeout`` falls back to its LP
  relaxation — still a sound bound — and marks the job ``partial``.
* Transient failures (a crashed worker, a broken pool, an OS error)
  are retried up to ``retries`` times with exponential backoff before
  the job is declared failed.

Results always come back in submission order, and — because the DNF
expansion is canonically ordered — a job's ``set_results`` are
identical whether it ran serially, in the caller or in a worker.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor

from ..errors import ReproError
from .cache import ResultCache
from .jobs import AnalysisJob, JobResult
from .metrics import record


def _default_workers() -> int:
    return max(1, os.cpu_count() or 1)


def execute_job(payload) -> JobResult:
    """Pool worker: run one job end to end (module-level, picklable).

    ``payload`` is ``(job, set_timeout, max_iterations, trace)``.  It
    touches no cache: the caller looks the job up before dispatch and
    stores the report after.  Also the unit of work the analysis
    service dispatches — one HTTP job request becomes exactly one of
    these payloads.

    ``trace`` is polymorphic: falsy disables tracing, ``True`` traces
    anonymously, and a :class:`~repro.obs.context.TraceContext` dict
    traces with every span stamped by that distributed context — the
    service ships the submitter's context here so pool-worker spans
    reassemble under the job's trace id (see
    :mod:`repro.obs.flight`).
    """
    job, set_timeout, max_iterations, trace = payload
    started = time.monotonic()
    tracer = None
    if trace:
        from ..obs.trace import Tracer

        context = None
        if isinstance(trace, dict):
            from ..obs.context import TraceContext

            context = TraceContext.from_dict(trace)
        tracer = Tracer(context=context)
    try:
        analysis = job.build_analysis(tracer=tracer)
        report = analysis.estimate(set_timeout=set_timeout,
                                   max_iterations=max_iterations)
    except ReproError as error:
        failed = JobResult(job.name, "failed", error=str(error),
                           wall_time=time.monotonic() - started)
        if tracer is not None:
            failed.spans = tracer.records()
        return failed
    result = JobResult(job.name,
                       "partial" if report.partial else "ok",
                       report, wall_time=time.monotonic() - started)
    if tracer is not None:
        result.spans = tracer.records()
    return result


class AnalysisEngine:
    """Batch IPET analysis over a process pool with an on-disk cache.

    Parameters
    ----------
    workers:
        Pool size; defaults to the machine's CPU count.
    cache_dir:
        Directory for the :class:`ResultCache`; None disables caching.
    set_timeout:
        Per-constraint-set wall budget in seconds (None: no limit).
    max_iterations:
        Cumulative simplex-pivot budget per ILP (None: no limit);
        exceeding it degrades that direction to its LP relaxation.
    cache_limits:
        Optional ``(max_entries, max_bytes)`` LRU caps for the cache
        (None in either slot: unlimited on that axis).
    retries, backoff:
        Transient-failure policy: each pooled job is retried up to
        `retries` extra times, sleeping ``backoff * 2**attempt``
        seconds between tries.
    tracer:
        A :class:`repro.obs.Tracer`; the run and every job's pipeline
        and solver work emit spans into it.  Each job traces into its
        own tracer, in the caller or a pool worker, and its records
        come home in :attr:`JobResult.spans`.  Without one, the
        engine records no stage times.
    bus:
        An optional :class:`repro.obs.EventBus`; the engine publishes
        run/job lifecycle events into it (``run_start``,
        ``job_start``, ``job_done`` / ``job_failed``, ``run_done``)
        for live consumers such as the ``--live`` dashboard.  Span
        events additionally flow through the tracer when the caller
        has also attached the bus there.
    """

    def __init__(self, workers: int | None = None,
                 cache_dir=None,
                 set_timeout: float | None = None,
                 max_iterations: int | None = None,
                 cache_limits: tuple | None = None,
                 retries: int = 2,
                 backoff: float = 0.25,
                 tracer=None,
                 bus=None):
        from ..obs.registry import MetricsRegistry
        from ..obs.trace import NULL_TRACER

        self.workers = workers or _default_workers()
        max_entries, max_bytes = cache_limits or (None, None)
        self.cache = ResultCache(cache_dir, max_entries=max_entries,
                                 max_bytes=max_bytes) \
            if cache_dir else None
        self.set_timeout = set_timeout
        self.max_iterations = max_iterations
        self.retries = retries
        self.backoff = backoff
        #: Every run's ``engine.*`` metrics (see
        #: :mod:`repro.engine.metrics`).
        self.registry = MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.bus = bus

    def _budget_key(self) -> str:
        """Solver budgets as cache-key material (see
        :meth:`repro.engine.cache.ResultCache.job_key`)."""
        return (f"timeout={self.set_timeout!r}|"
                f"max_iterations={self.max_iterations!r}")

    # ------------------------------------------------------------------
    def run(self, jobs: list[AnalysisJob]) -> list[JobResult]:
        """Run every job; results in submission order."""
        started = time.monotonic()
        results: dict[int, JobResult] = {}
        keys: dict[int, str] = {}
        pending: list[tuple[int, AnalysisJob]] = []
        bus = self.bus
        if bus is not None:
            bus.publish("run_start", jobs=len(jobs))

        for index, job in enumerate(jobs):
            if self.cache is not None:
                keys[index] = self.cache.job_key(
                    job.fingerprint(), budget=self._budget_key())
                report = self.cache.get_report(keys[index])
                if report is not None:
                    results[index] = JobResult(
                        job.name, "ok", report, cache_hit=True)
                    if bus is not None:
                        bus.publish("job_start", name=job.name,
                                    cached=True)
                        self._publish_result(results[index])
                    continue
            pending.append((index, job))

        if pending:
            with self.tracer.span("engine.run", cat="engine",
                                  jobs=len(jobs), pending=len(pending)):
                for index, result in self._dispatch(pending):
                    results[index] = result
                    self.tracer.absorb(result.spans)
                    if bus is not None:
                        self._publish_result(result)
                    if (self.cache is not None
                            and result.report is not None
                            and not result.cache_hit):
                        self.cache.put_report(keys[index], result.report)

        ordered = [results[i] for i in range(len(jobs))]
        elapsed = time.monotonic() - started
        self._record(ordered, elapsed)
        if bus is not None:
            bus.publish("run_done", jobs=len(jobs), seconds=elapsed)
        return ordered

    def _publish_result(self, result: JobResult) -> None:
        """One ``job_done`` / ``job_failed`` bus event per result."""
        payload = {"name": result.name, "status": result.status,
                   "wall": result.wall_time,
                   "cache_hit": result.cache_hit}
        if result.report is not None:
            payload["sets"] = result.report.sets_solved
            payload["worst"] = result.report.worst
            payload["best"] = result.report.best
        if result.error:
            payload["error"] = result.error
        kind = "job_failed" if result.status == "failed" else "job_done"
        self.bus.publish(kind, **payload)

    # ------------------------------------------------------------------
    # Dispatch, with retry + backoff over the pool
    # ------------------------------------------------------------------
    def _dispatch(self, pending):
        """Yield ``(index, JobResult)`` for every pending job: in the
        caller for one job or one worker, else over the pool."""
        context = getattr(self.tracer, "context", None)
        trace = context.to_dict() if context is not None \
            else self.tracer.enabled
        payloads = {index: (job, self.set_timeout, self.max_iterations,
                            trace)
                    for index, job in pending}
        if self.workers <= 1 or len(pending) == 1:
            for index, job in pending:
                if self.bus is not None:
                    self.bus.publish("job_start", name=job.name)
                yield index, execute_job(payloads[index])
            return
        if self.bus is not None:
            for _, job in pending:
                self.bus.publish("job_start", name=job.name)
        yield from self._pooled(payloads)

    def _pooled(self, payloads: dict):
        """Run :func:`execute_job` on every payload over a pool.

        Yields ``(key, JobResult)``.  Transient failures (crashed
        worker, broken pool, OSError) are retried with exponential
        backoff in a fresh pool; once retries are exhausted the job
        comes back failed.  ``attempts`` counts the tries made.
        """
        tries = {key: 0 for key in payloads}
        remaining = dict(payloads)
        workers = min(self.workers, len(remaining))
        while remaining:
            retry = {}
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {key: pool.submit(execute_job, payload)
                           for key, payload in remaining.items()}
                for key, future in futures.items():
                    tries[key] += 1
                    try:
                        result = future.result()
                    except Exception as error:
                        # A deterministic analysis failure (ReproError)
                        # is never retried.
                        if (isinstance(error, ReproError)
                                or tries[key] > self.retries):
                            yield key, _failure(payloads[key][0], error,
                                                tries[key])
                        else:
                            retry[key] = remaining[key]
                    else:
                        result.attempts = tries[key]
                        yield key, result
            remaining = retry
            if remaining:
                time.sleep(self.backoff * (2 ** (max(tries.values()) - 1)))

    # ------------------------------------------------------------------
    def _record(self, results: list[JobResult], elapsed: float) -> None:
        self.registry.gauge("engine.total_seconds").inc(elapsed)
        for result in results:
            record(self.registry, result, cache=self.cache is not None)


def _failure(job: AnalysisJob, error, attempts: int) -> JobResult:
    """The failed :class:`JobResult` of a pooled job that raised."""
    detail = "".join(traceback.format_exception_only(error)).strip()
    return JobResult(job.name, "failed", error=detail, attempts=attempts)
