"""The one job path: a worker pool with one retry policy and the
job-cache step.

``repro engine run`` (more than one job to solve on more than one
worker) and ``repro serve`` (every job) run :func:`execute_job`
payloads through a :class:`Pool`, and look jobs up and store them with
:func:`lookup` and :func:`store`.

Retry policy: a :class:`~repro.errors.ReproError` escaping the runner
is deterministic and never retried.  Any other exception (a worker
killed mid-job, a broken pool, an OSError) replaces the executor and
retries after ``BACKOFF * 2**(attempt - 1)`` seconds, up to
:data:`RETRIES` times; then the job comes back failed, with its
``attempts`` and the last error.  A job replaces only the executor it
ran on, and only while that one is current, so a broken pool is
replaced once however many in-flight jobs saw it break, and no job
tears down the replacement others were resubmitted to.

Process workers exit once the process that started the pool is gone
(a SIGKILLed ``repro serve``), and the resource tracker with them.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from ..chaos import inject
from ..errors import ReproError
from .cache import budget_key
from .jobs import JobResult

#: Retries a job gets after a transient failure.
RETRIES = 2

#: Seconds before the first retry; each further retry waits twice as long.
BACKOFF = 0.25


def _exit_with_parent() -> None:
    """Process-worker initializer: exit as soon as the process that
    started the pool is gone (its sentinel pipe reads end of file)."""
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def new_executor(kind: str, workers: int, start_method: str | None):
    """A fresh executor of `kind` (``"process"`` or ``"thread"``)."""
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(start_method),
        initializer=_exit_with_parent)


class Pool:
    """`workers` process (or, for tests and embedding, thread) workers,
    started with the first job, and the retry loop every pooled job
    runs through.  `start_method` None is the platform default."""

    def __init__(self, workers: int, kind: str = "process",
                 start_method: str | None = None):
        if kind not in ("process", "thread"):
            raise ValueError(f"unknown executor kind {kind!r}")
        self.workers = workers
        self.kind = kind
        self.start_method = start_method
        self._executor = None

    async def run(self, runner, payload) -> JobResult:
        """Run `runner` (:func:`execute_job`, or a stand-in in tests)
        on `payload`, a ``(job, set_timeout, max_iterations, trace)``
        tuple; ``attempts`` counts the tries made."""
        # Imported here: pool workers import this module but run no
        # event loop, and importing asyncio adds about 2.4 MB to each
        # (Python 3.11, Linux x86-64).
        import asyncio

        loop = asyncio.get_running_loop()
        attempt = 0
        while True:
            attempt += 1
            if self._executor is None:
                self._executor = new_executor(self.kind, self.workers,
                                              self.start_method)
            executor = self._executor
            try:
                # Chaos seam: a dead worker, surfaced where a real pool
                # crash surfaces.
                inject.fire("worker.kill")
                result = await loop.run_in_executor(executor, runner,
                                                    payload)
            except ReproError as error:
                return JobResult(payload[0].name, "failed",
                                 error=str(error), attempts=attempt)
            except Exception as error:
                if attempt > RETRIES:
                    return JobResult(
                        payload[0].name, "failed", attempts=attempt,
                        error=f"worker failed after {attempt} "
                              f"attempts: {error!r}")
                if self._executor is executor:
                    self._executor = None
                    executor.shutdown(wait=False)
                await asyncio.sleep(BACKOFF * 2 ** (attempt - 1))
            else:
                result.attempts = attempt
                return result

    def shutdown(self) -> None:
        """Stop the workers; jobs not yet started are cancelled."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


def lookup(cache, job, set_timeout, max_iterations):
    """The cache step before dispatch: ``(key, hit)``, `hit` the job's
    cached :class:`JobResult` or None; the key carries the spec-level
    budgets.  Without a cache, ``(None, None)``."""
    if cache is None:
        return None, None
    key = cache.job_key(job.fingerprint(),
                        budget=budget_key(set_timeout, max_iterations))
    report = cache.get_report(key)
    if report is None:
        return key, None
    return key, JobResult(job.name, "ok", report, cache_hit=True)


def store(cache, key, result: JobResult) -> None:
    """The cache step after a job: store only an ``ok`` report that did
    not come from the cache."""
    if cache is not None and result.status == "ok" \
            and not result.cache_hit:
        cache.put_report(key, result.report)

