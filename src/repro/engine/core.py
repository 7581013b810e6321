"""The batch analysis engine: fan jobs out over a process pool, with
caching, timeouts and retry.

Dispatch
--------
A job is the unit of dispatch: :func:`execute_job` compiles, builds
the CFGs and solves every constraint-set ILP of one
:class:`~repro.engine.jobs.AnalysisJob` in one process, through
:meth:`repro.Analysis.estimate`.  ``AnalysisEngine.run`` calls it in
the caller, with no event loop, when one job needs solving or the
engine has one worker, and otherwise runs each job through the
:class:`~repro.engine.pool.Pool` the service uses too.  Workers only
compute: the engine looks each job up in the :class:`ResultCache`
before dispatch and stores its report after, in the calling process.

Failure semantics
-----------------
* Deterministic analysis errors (:class:`~repro.errors.ReproError`:
  infeasible systems, missing bounds, unbounded objectives, ...) fail
  only their own job; the batch continues.
* A constraint set that exceeds ``set_timeout`` falls back to its LP
  relaxation — still a sound bound — and marks the job ``partial``.
* Transient failures of a pooled job (a crashed worker, an OS error)
  are retried by the pool's policy (:mod:`repro.engine.pool`) before
  the job is declared failed; a dead worker is replaced alone.

Results always come back in submission order, and — because the DNF
expansion is canonically ordered — a job's ``set_results`` are
identical whether it ran serially, in the caller or in a worker.
"""

from __future__ import annotations

import os
import time

from ..errors import ReproError
from .cache import ResultCache
from .jobs import AnalysisJob, JobResult
from .metrics import record
from .pool import Pool, lookup, store


def execute_job(payload) -> JobResult:
    """Pool worker: run one job end to end (module-level, picklable).

    ``payload`` is ``(job, set_timeout, max_iterations, trace)``.  It
    touches no cache: the caller looks the job up before dispatch and
    stores the report after.  Also the unit of work the analysis
    service dispatches — one HTTP job request becomes exactly one of
    these payloads.  With ``trace`` true, the job's spans come home
    in :attr:`JobResult.spans`.
    """
    job, set_timeout, max_iterations, trace = payload
    tracer = None
    if trace:
        from ..obs.trace import Tracer

        tracer = Tracer()
    try:
        report = job.build_analysis(tracer=tracer).estimate(
            set_timeout=set_timeout, max_iterations=max_iterations)
    except ReproError as error:
        result = JobResult(job.name, "failed", error=str(error))
    else:
        result = JobResult(job.name,
                           "partial" if report.partial else "ok", report)
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
    tracer:
        A :class:`repro.obs.Tracer`; the run and every job's pipeline
        and solver work emit spans into it.  Each job traces into its
        own tracer, in the caller or a pool worker, and its records
        come home in :attr:`JobResult.spans`.  Without one, the
        engine records no stage times.
    """

    def __init__(self, workers: int | None = None,
                 cache_dir=None,
                 set_timeout: float | None = None,
                 max_iterations: int | None = None,
                 tracer=None):
        from ..obs.registry import MetricsRegistry
        from ..obs.trace import NULL_TRACER

        self.workers = workers or max(1, os.cpu_count() or 1)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.set_timeout = set_timeout
        self.max_iterations = max_iterations
        #: Every run's ``engine.*`` metrics (see
        #: :mod:`repro.engine.metrics`).
        self.registry = MetricsRegistry()
        self.tracer = NULL_TRACER if tracer is None else tracer

    # ------------------------------------------------------------------
    def run(self, jobs: list[AnalysisJob]) -> list[JobResult]:
        """Run every job; results in submission order."""
        started = time.monotonic()
        results: list = [None] * len(jobs)
        keys: dict[int, str | None] = {}
        pending: list[tuple[int, AnalysisJob]] = []

        def finish(index: int, result: JobResult) -> None:
            results[index] = result
            self.tracer.absorb(result.spans)
            store(self.cache, keys[index], result)

        for index, job in enumerate(jobs):
            keys[index], hit = lookup(self.cache, job, self.set_timeout,
                                      self.max_iterations)
            if hit is None:
                pending.append((index, job))
            else:
                finish(index, hit)

        if pending:
            with self.tracer.span("engine.run", cat="engine",
                                  jobs=len(jobs), pending=len(pending)):
                self._dispatch(pending, finish)

        elapsed = time.monotonic() - started
        self._record(results, elapsed)
        return results

    def _dispatch(self, pending, finish) -> None:
        """Run every pending job and `finish` it: in the caller for
        one job or one worker, else over a :class:`Pool`."""
        payloads = {index: (job, self.set_timeout, self.max_iterations,
                            self.tracer.enabled)
                    for index, job in pending}
        if self.workers <= 1 or len(payloads) == 1:
            for index, payload in payloads.items():
                finish(index, execute_job(payload))
            return
        import asyncio                # only the pooled path runs a loop

        async def pooled() -> None:
            pool = Pool(min(self.workers, len(payloads)))

            async def one(index: int, payload) -> None:
                finish(index, await pool.run(execute_job, payload))

            try:
                await asyncio.gather(*(one(index, payload) for index, payload
                                       in payloads.items()))
            finally:
                pool.shutdown()

        asyncio.run(pooled())

    # ------------------------------------------------------------------
    def _record(self, results: list[JobResult], elapsed: float) -> None:
        self.registry.gauge("engine.total_seconds").inc(elapsed)
        for result in results:
            record(self.registry, result, cache=self.cache is not None)
