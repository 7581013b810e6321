"""The one job path: a worker pool with one retry policy and the
job-cache step.

``repro engine run`` (more than one job to solve on more than one
worker) and ``repro serve`` (every job) run :func:`execute_job`
payloads through a :class:`Pool`, and look jobs up and store them with
:func:`lookup` and :func:`store`.

Process workers
---------------
Each process worker owns one duplex pipe and runs :func:`_serve`:
receive a pickled ``(runner, payload)``, run it, send back one
``(ok, value)`` reply.  The parent sends and reads on the event-loop
thread: a call takes an idle worker, sends, and reads the reply when
``loop.add_reader`` reports the pipe readable.  No helper thread and
no ``multiprocessing.Queue`` stand between a job and its worker, so
this needs a selector event loop (the default on Linux).

Retry policy: a :class:`~repro.errors.ReproError` escaping the runner
is deterministic and never retried.  Any other exception (a worker
killed mid-job, an OSError) is retried after ``BACKOFF * 2**(attempt
- 1)`` seconds, up to :data:`RETRIES` times; then the job comes back
failed, with its ``attempts`` and the last error.  A process worker is
gone when a send to it fails or its reply ends at end of file; that
worker alone is replaced, and the jobs on the others carry on.  A send
that fails reached no worker, so it spends no try: the call goes to
the next idle worker at once, up to once per worker.  A call cancelled
while its worker computes replaces that worker too, so its late reply
can never answer the next job.

Process workers exit once the process that started the pool is gone
(a SIGKILLed ``repro serve``), and the resource tracker with them.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading

from ..chaos import inject
from ..errors import ReproError
from .cache import budget_key
from .jobs import JobResult

#: Retries a job gets after a transient failure.
RETRIES = 2

#: Seconds before the first retry; each further retry waits twice as long.
BACKOFF = 0.25


def _exit_with_parent() -> None:
    """Exit as soon as the process that started this worker is gone
    (its sentinel pipe reads end of file)."""
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _serve(conn) -> None:
    """A process worker: answer each ``(runner, payload)`` on `conn`
    with ``(True, result)`` or ``(False, exception)``.  Ends quietly at
    end of file or on a broken pipe: its owner is done with it."""
    _exit_with_parent()
    # Ctrl-C in a terminal reaches the whole process group; the owner
    # decides what becomes of the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            runner, payload = conn.recv()
        except (EOFError, OSError):
            return
        try:
            reply = (True, runner(payload))
        except Exception as error:
            reply = (False, error)
        try:
            conn.send(reply)
        except OSError:
            return


class WorkerGone(Exception):
    """A process worker died: a send to it failed or its reply ended
    at end of file."""


class _Worker:
    """A process worker and the parent's end of its pipe."""

    def __init__(self, context):
        self.conn, child = context.Pipe()
        self.process = context.Process(target=_serve, args=(child,),
                                       daemon=True)
        try:
            self.process.start()
        finally:
            child.close()
        #: The future of the call waiting for this worker's reply.
        self.reply = None

    def send(self, runner, payload) -> bool:
        """Send one call; False when the worker is gone and the call
        reached nobody."""
        try:
            self.conn.send((runner, payload))
        except OSError:
            return False
        return True

    async def receive(self):
        """Wait for the ``(ok, value)`` reply to the call sent last."""
        import asyncio

        loop = asyncio.get_running_loop()
        reply = self.reply = loop.create_future()
        loop.add_reader(self.conn.fileno(), self._readable)
        try:
            return await reply
        finally:
            self._unwatch()

    def _readable(self) -> None:
        reply = self.reply
        self._unwatch()
        if reply.done():              # cancelled: the call retires us
            return
        try:
            reply.set_result(self.conn.recv())
        except (EOFError, OSError):
            reply.set_exception(self.gone())
        except Exception as error:    # a reply that does not unpickle
            reply.set_exception(error)

    def _unwatch(self) -> None:
        if self.reply is not None:
            self.reply.get_loop().remove_reader(self.conn.fileno())
            self.reply = None

    def gone(self) -> WorkerGone:
        return WorkerGone(f"pool worker {self.process.pid} is gone")

    def stop(self) -> None:
        """Kill the process and close the pipe, without waiting for
        either; a call still waiting for the reply is cancelled."""
        reply = self.reply
        self._unwatch()
        if reply is not None:
            reply.cancel()
        self.conn.close()
        self.process.kill()


class Pool:
    """`workers` process (or, for tests and embedding, thread) workers,
    started as the first jobs need them, and the retry loop every
    pooled job runs through.  `start_method` None is the platform
    default."""

    def __init__(self, workers: int, kind: str = "process",
                 start_method: str | None = None):
        if kind not in ("process", "thread"):
            raise ValueError(f"unknown executor kind {kind!r}")
        self.workers = workers
        self.kind = kind
        self.start_method = start_method
        #: The thread kind's ``ThreadPoolExecutor``.
        self._executor = None
        #: Live process workers, and the queue of idle ones: each of
        #: its ``workers`` slots holds an idle worker or None, a slot
        #: whose worker is not started yet.
        self._workers: set[_Worker] = set()
        self._idle = None

    async def run(self, runner, payload) -> JobResult:
        """Run `runner` (:func:`execute_job`, or a stand-in in tests)
        on `payload`, a ``(job, set_timeout, max_iterations, trace)``
        tuple; ``attempts`` counts the tries made."""
        # Imported here: pool workers import this module but run no
        # event loop, and importing asyncio adds about 2.4 MB to each
        # (Python 3.11, Linux x86-64).
        import asyncio

        call = self._in_thread if self.kind == "thread" \
            else self._in_process
        attempt = 0
        while True:
            attempt += 1
            try:
                result = await call(runner, payload)
            except ReproError as error:
                return JobResult(payload[0].name, "failed",
                                 error=str(error), attempts=attempt)
            except Exception as error:
                if attempt > RETRIES:
                    return JobResult(
                        payload[0].name, "failed", attempts=attempt,
                        error=f"worker failed after {attempt} "
                              f"attempts: {error!r}")
                await asyncio.sleep(BACKOFF * 2 ** (attempt - 1))
            else:
                result.attempts = attempt
                return result

    async def _in_thread(self, runner, payload):
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        if self._executor is None:
            self._executor = ThreadPoolExecutor(max_workers=self.workers)
        # Chaos seam: a dead worker, surfaced before dispatch.
        inject.fire("worker.kill")
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, runner, payload)

    async def _in_process(self, runner, payload):
        worker = await self._take()
        try:
            # Chaos seam: a dead worker, surfaced before dispatch.
            inject.fire("worker.kill")
            # A send that fails reached no worker, so it spends no try:
            # replace that worker and send to the next idle one.  Each
            # dead worker's replacement is live, so a resend per worker
            # gets past every worker that died idle.
            resends = self.workers
            while not worker.send(runner, payload):
                if not resends:
                    raise worker.gone()
                resends -= 1
                self._retire(worker)
                worker = await self._take()
            ok, value = await worker.receive()
        except BaseException:
            self._retire(worker)
            raise
        if worker in self._workers:
            self._idle.put_nowait(worker)
        if not ok:
            raise value
        return value

    async def _take(self) -> _Worker:
        """An idle worker, started here if its slot has none."""
        import asyncio

        if self._idle is None:
            self._idle = asyncio.Queue()
            for _ in range(self.workers):
                self._idle.put_nowait(None)
        idle = self._idle
        worker = await idle.get()
        if idle is not self._idle:          # shut down while waiting
            idle.put_nowait(None)           # wake the next waiter
            raise asyncio.CancelledError
        if worker is None:
            try:
                worker = self._start()
            except BaseException:
                idle.put_nowait(None)
                raise
        return worker

    def _start(self) -> _Worker:
        worker = _Worker(multiprocessing.get_context(self.start_method))
        self._workers.add(worker)
        return worker

    def _retire(self, worker: _Worker) -> None:
        """Stop `worker` without waiting for it and start its
        replacement; after :meth:`shutdown` stopped it, nothing."""
        if worker not in self._workers:
            return
        self._workers.discard(worker)
        worker.stop()
        try:
            replacement = self._start()
        except OSError:
            replacement = None          # the next call starts one
        self._idle.put_nowait(replacement)

    def shutdown(self) -> None:
        """Stop every worker; calls still waiting for a worker or a
        reply are cancelled."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        workers, self._workers = self._workers, set()
        if self._idle is not None:
            self._idle.put_nowait(None)     # wake a waiting call
            self._idle = None
        for worker in workers:
            worker.stop()
        for worker in workers:
            worker.process.join()


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


def store(cache, key, result: JobResult) -> str | None:
    """The cache step after a job: store only an ``ok`` report that did
    not come from the cache, and return the report's JSON text (None
    when nothing was stored)."""
    if cache is not None and result.status == "ok" \
            and not result.cache_hit:
        return cache.put_report(key, result.report)
    return None
