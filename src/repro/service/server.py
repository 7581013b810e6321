"""The asyncio HTTP front end of the analysis service.

Dependency-free: a minimal HTTP/1.1 request parser over
``asyncio.start_server`` streams with **keep-alive** (requests loop on
one connection until the client sends ``Connection: close`` or the
idle timeout lapses), JSON in and out.  Endpoints:

================================  =====================================
``POST /v1/jobs``                 submit a :class:`~.protocol.JobSpec`;
                                  ``202`` + id, ``429`` + ``Retry-After``
                                  when saturated, ``503`` when draining,
                                  ``400`` on bad specs
``GET /v1/jobs/{id}``             job record (bounds + full report once
                                  done)
``GET /v1/jobs/{id}/explain``     bound provenance (winning set,
                                  witness, binding constraints); takes
                                  ``?direction=worst|best``
``GET /v1/jobs/{id}/trace``       the job's spans as a Chrome
                                  ``trace_event`` document
``GET /v1/events``                **server-sent events**: every job's
                                  lifecycle (queued, running, done or
                                  failed, recovered), degraded-mode and
                                  chaos events
``GET /healthz``                  liveness + queue depth (``degraded``
                                  while the journal fails writes,
                                  ``draining`` while shutting down)
``GET /metricz``                  the service's ``repro.obs`` registry
                                  snapshot — JSON, the same schema
                                  as ``repro obs dump/diff``
================================  =====================================

The event stream honours ``Last-Event-ID`` (or ``?since=N``): events
newer than that sequence number are replayed from the bus ring buffer
before the live tail begins, so a dropped connection resumes without a
gap (up to the ring's capacity).  A comment heartbeat keeps idle
streams alive through proxies.

Graceful drain: ``SIGTERM``/``SIGINT`` (or :meth:`AnalysisService.drain`)
closes admission (new submissions get ``503``), lets in-flight and
queued jobs finish, flushes the metrics snapshot to ``metrics_path``
if configured, ends open SSE streams and keep-alive loops, stops the
listener and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time

from ..chaos import inject
from ..engine.cache import ResultCache
from ..obs.registry import MetricsRegistry
from ..obs.stream import EventBus, sse_comment, sse_format
from .durable import JobJournal
from .protocol import BadRequest, JobRecord, JobSpec
from .queue import JobQueue, QueueClosed, QueueSaturated
from .scheduler import Scheduler

#: Largest accepted request body (a job spec with inline source).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Default keep-alive idle timeout (seconds a connection may sit
#: between requests before the server closes it).
KEEPALIVE_TIMEOUT = 5.0

#: SSE comment-heartbeat period (seconds).
HEARTBEAT_SECONDS = 15.0

#: How often the housekeeping task syncs the journal and checks its
#: compaction thresholds.
HOUSEKEEPING_SECONDS = 0.25

#: Buckets for the journal fsync latency histogram (seconds).
FSYNC_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.025, 0.1, 0.5)

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed", 409: "Conflict",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error", 503: "Service Unavailable"}


class AnalysisService:
    """The analysis server: queue + scheduler + HTTP listener.

    Construct, then either :meth:`run` (blocking, installs signal
    handlers — the ``repro serve`` path) or ``await start()`` /
    ``await drain()`` inside an existing event loop (tests,
    :class:`ServiceThread`).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 workers: int = 2, queue_depth: int = 64,
                 cache_dir=None, cache_limits: tuple | None = None,
                 executor: str = "process", runner=None,
                 set_timeout: float | None = None,
                 max_iterations: int | None = None,
                 metrics_path=None,
                 registry: MetricsRegistry | None = None,
                 keepalive_timeout: float = KEEPALIVE_TIMEOUT,
                 bus: EventBus | None = None,
                 journal_dir=None,
                 chaos: object = None):
        self.host = host
        self.port = port
        #: A chaos schedule (text or :class:`repro.chaos.FaultPlan`);
        #: installed process-wide at :meth:`start` (``serve --chaos`` /
        #: ``$REPRO_CHAOS``).
        self.chaos = chaos
        #: Why the service is in read-only degraded mode, or None when
        #: healthy.  Set when journal writes start failing (ENOSPC,
        #: I/O errors): submits answer 503 + Retry-After while
        #: finished bounds keep being served; housekeeping probes the
        #: journal and clears this automatically once writes succeed.
        self.degraded_reason: str | None = None
        self.metrics_path = metrics_path
        self.keepalive_timeout = keepalive_timeout
        self.bus = bus if bus is not None else EventBus()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        for name in ("service.jobs.submitted", "service.jobs.rejected",
                     "service.jobs.recovered"):
            self.registry.counter(name)
        #: The job journal (WAL); None runs the service ephemerally.
        self.journal = JobJournal(journal_dir) if journal_dir else None
        if self.journal is not None:
            fsync_hist = self.registry.histogram(
                "service.journal.fsync_seconds", buckets=FSYNC_BUCKETS)
            self.journal.fsync_observer = fsync_hist.observe
        max_entries, max_bytes = cache_limits or (None, None)
        cache = ResultCache(cache_dir, max_entries=max_entries,
                            max_bytes=max_bytes) if cache_dir else None
        self.queue = JobQueue(maxsize=queue_depth)
        self.scheduler = Scheduler(
            self.queue, workers=workers, cache=cache,
            executor=executor, runner=runner,
            default_set_timeout=set_timeout,
            max_iterations=max_iterations, registry=self.registry,
            bus=self.bus, journal=self.journal)
        self.records: dict[str, JobRecord] = {}
        self._seq = 0
        self._server: asyncio.AbstractServer | None = None
        self._housekeeper: asyncio.Task | None = None
        self._draining = False
        self._drained: asyncio.Event | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        """Replay the journal, bind the listener, start the workers."""
        self._drained = asyncio.Event()
        if self.chaos:
            injector = inject.install(self.chaos, bus=self.bus,
                                      registry=self.registry)
            print(f"chaos: fault plan active "
                  f"({injector.plan.to_text()})", flush=True)
        if self.journal is not None:
            self._recover(self.journal.open())
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.journal is not None:
            self._housekeeper = asyncio.create_task(
                self._housekeeping(self.journal),
                name="service-housekeeping")

    def _recover(self, state) -> None:
        """Restore records from replayed journal state.

        Terminal jobs come back queryable; queued and running jobs
        re-enter the queue in job-id order and are re-dispatched
        (idempotent: the content-addressed cache answers repeats with
        the bit-identical report).
        """
        requeue = []
        for job_id, data in sorted(state.jobs.items()):
            try:
                record = JobRecord.from_journal(job_id, data)
            except Exception as error:
                print(f"journal: dropping unreadable job "
                      f"{job_id!r}: {error}", flush=True)
                continue
            self.records[job_id] = record
            if job_id.startswith("j"):
                try:
                    self._seq = max(self._seq, int(job_id[1:]))
                except ValueError:
                    pass
            if record.state == "queued":
                requeue.append(record)
        for record in requeue:
            # force: recovered jobs were all admitted under the cap in
            # their first life, but running ones fold back to queued,
            # so the restored set can exceed queue_depth — and a
            # QueueSaturated here would fail *every* restart on this
            # journal.
            self.queue.push(record, force=True)
            self.registry.counter("service.jobs.recovered").inc()
            self.bus.publish("job_recovered", job=record.id,
                             name=record.spec.name,
                             queue_depth=self.queue.depth)
        if state.jobs or state.tail_dropped:
            torn = ", torn tail frame dropped" if state.tail_dropped \
                else ""
            print(f"journal: restored {len(state.jobs)} jobs "
                  f"({len(requeue)} re-queued{torn})", flush=True)

    async def _housekeeping(self, journal: JobJournal) -> None:
        """Sync and compact the journal; run the degraded-mode state
        machine (enter on journal write failure, probe, recover)."""
        while not self._draining:
            await asyncio.sleep(HOUSEKEEPING_SECONDS)
            if self.degraded_reason is None \
                    and journal.last_error is not None:
                # A buffered frame (start/terminal) failed since
                # the last sweep; the submit path finds out here.
                self._enter_degraded(
                    f"journal write failed: {journal.last_error}")
            if self.degraded_reason is not None:
                if journal.probe():
                    self._exit_degraded()
                else:
                    continue
            journal.maybe_sync()
            if journal.last_error is not None:
                continue            # fsync failed; next sweep degrades
            if journal.should_compact():
                try:
                    journal.compact(self._journal_jobs())
                except OSError as error:
                    self._enter_degraded(
                        f"journal compaction failed: {error}")

    def _enter_degraded(self, reason: str) -> None:
        """Flip into read-only degraded mode.

        Finished bounds keep being served with 200; submits answer
        503 + Retry-After until a journal probe round-trips, at which
        point :meth:`_exit_degraded` restores normal admission
        automatically.
        """
        self.degraded_reason = reason
        self.registry.counter("service.degraded.entered").inc()
        self.registry.gauge("service.degraded").set(1)
        self.bus.publish("service_degraded", reason=reason)
        print(f"service degraded (read-only): {reason}", flush=True)

    def _exit_degraded(self) -> None:
        self.degraded_reason = None
        self.registry.gauge("service.degraded").set(0)
        self.bus.publish("service_recovered")
        print("service recovered: journal writes succeeding again",
              flush=True)

    def _journal_jobs(self) -> dict:
        """Every record's compaction-snapshot form."""
        return {job_id: record.to_journal_dict()
                for job_id, record in self.records.items()}

    async def drain(self) -> None:
        """Stop admitting, finish in-flight jobs, flush, stop."""
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        self.queue.close()
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            try:
                await self._housekeeper
            except asyncio.CancelledError:
                pass
        await self.scheduler.join()
        if self.journal is not None:
            try:
                self.journal.compact(self._journal_jobs())
            except OSError as error:
                # A dying disk must not wedge the drain; the WAL (as
                # far as it got) still replays on restart.
                print(f"journal: compaction failed during drain: "
                      f"{error}", flush=True)
            self.journal.close()
        if self.metrics_path:
            self._refresh_gauges()
            self.registry.dump(self.metrics_path)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.scheduler.pool.shutdown()
        self._drained.set()

    async def wait_drained(self) -> None:
        await self._drained.wait()

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT, drain gracefully, return 0."""
        return asyncio.run(self._serve_forever())

    async def _serve_forever(self) -> int:
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum,
                lambda: asyncio.ensure_future(self.drain()))
        print(f"analysis service listening on "
              f"http://{self.host}:{self.port} "
              f"(workers={self.scheduler.workers}, "
              f"queue={self.queue.maxsize}, "
              f"executor={self.scheduler.pool.kind})",
              flush=True)
        await self.wait_drained()
        print("analysis service drained; bye", flush=True)
        return 0

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """Serve requests on one connection until it goes quiet.

        HTTP/1.1 keep-alive: the loop keeps answering requests on the
        same socket until the client asks for ``Connection: close``,
        the idle timeout lapses, the request is malformed, or the
        service drains.  SSE requests take over the connection and end
        it when the stream finishes.
        """
        try:
            while True:
                request = await self._next_request(reader)
                if request is None:          # idle timeout / EOF / drain
                    break
                if isinstance(request, tuple) and request[0] == "error":
                    await self._write_response(writer, request[1],
                                               request[2], None,
                                               keep=False)
                    break
                method, path, query, body, headers = request
                if method == "GET" and path == "/v1/events":
                    await self._serve_sse(writer, query, headers)
                    break
                try:
                    status, payload, extra = await self._route(
                        method, path, query, body)
                except BadRequest as error:
                    status, payload, extra = 400, {"error": str(error)}, \
                        None
                except Exception as error:  # pragma: no cover - defense
                    status, payload, extra = 500, {
                        "error": f"internal error: {error!r}"}, None
                keep = (headers.get("connection", "").lower() != "close"
                        and not self._draining)
                await self._write_response(writer, status, payload,
                                           extra, keep=keep)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Event-loop teardown while this connection idled in its
            # keep-alive wait; close the socket and end the task
            # cleanly rather than letting the cancellation escape into
            # asyncio's connection-made callback.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError,  # pragma: no cover
                    asyncio.CancelledError):
                pass

    async def _write_response(self, writer, status, payload, headers,
                              keep: bool) -> None:
        headers = dict(headers or {})
        content_type = headers.pop("Content-Type", "application/json")
        body = payload if isinstance(payload, (bytes, bytearray)) \
            else json.dumps(payload).encode()
        reason = _REASONS.get(status, "")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(body)}"]
        if keep:
            head.append("Connection: keep-alive")
            head.append("Keep-Alive: timeout="
                        f"{int(self.keepalive_timeout)}")
        else:
            head.append("Connection: close")
        head += [f"{k}: {v}" for k, v in headers.items()]
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        await writer.drain()

    async def _next_request(self, reader):
        """One parsed request, or None when the connection should end.

        The keep-alive idle wait is sliced so an in-progress drain
        closes idle connections promptly instead of after the full
        idle timeout.
        """
        deadline = time.monotonic() + self.keepalive_timeout
        task = asyncio.ensure_future(self._read_request(reader))
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        asyncio.shield(task), timeout=0.25)
                    break
                except asyncio.TimeoutError:
                    if self._draining or time.monotonic() >= deadline:
                        task.cancel()
                        try:
                            await task
                        except (asyncio.CancelledError, Exception):
                            pass
                        return None
        except _RequestTooLarge:
            return ("error", 413, {"error": "request body too large"})
        except (ValueError, UnicodeDecodeError,
                asyncio.IncompleteReadError):
            return ("error", 400, {"error": "malformed HTTP request"})
        return request

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("ascii").split()
        if len(parts) != 3:
            raise ValueError("bad request line")
        method, target, _version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        if length > MAX_BODY_BYTES:
            raise _RequestTooLarge()
        body = await reader.readexactly(length) if length else b""
        path, _, query_text = target.partition("?")
        query = {}
        for pair in query_text.split("&"):
            if "=" in pair:
                key, _, value = pair.partition("=")
                query[key] = value
        return method.upper(), path, query, body, headers

    # ------------------------------------------------------------------
    # Server-sent events
    # ------------------------------------------------------------------
    async def _serve_sse(self, writer, query, headers) -> None:
        """Stream bus events over one connection until drain.

        ``Last-Event-ID`` / ``?since`` replays newer ring-buffered
        events first; without either the stream tails live events
        only.  The subscription is taken before the response head is
        written, so a client that has read the head misses no later
        event, and an event both replayed and delivered is written
        once.  A stream stops writing once its transport is closing:
        the client has gone, and each further write would only be
        counted and logged by asyncio.
        """
        try:
            since = int(headers.get("last-event-id", query.get("since")))
        except (TypeError, ValueError):
            since = None
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        sub = self.bus.subscribe(
            maxlen=4096,
            wakeup=lambda: loop.call_soon_threadsafe(wake.set))
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: text/event-stream\r\n"
                         b"Cache-Control: no-cache\r\n"
                         b"Connection: close\r\n\r\n")
            backlog = [] if since is None else self.bus.replay(since)
            last = 0
            heartbeat_at = time.monotonic() + HEARTBEAT_SECONDS
            while True:
                for event in backlog + sub.pop_all():
                    if writer.is_closing():
                        return
                    if event["seq"] > last:
                        writer.write(sse_format(event))
                        last = event["seq"]
                backlog = []
                if self._draining:
                    break
                if time.monotonic() >= heartbeat_at:
                    writer.write(sse_comment())
                    heartbeat_at = time.monotonic() + HEARTBEAT_SECONDS
                await writer.drain()
                try:
                    await asyncio.wait_for(wake.wait(), timeout=1.0)
                except asyncio.TimeoutError:
                    pass
                wake.clear()
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            sub.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, query, body):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "GET only"}, None
            return 200, self._health(), None
        if path == "/metricz":
            if method != "GET":
                return 405, {"error": "GET only"}, None
            self._refresh_gauges()
            return 200, self.registry.snapshot(), None
        if path == "/v1/jobs":
            if method != "POST":
                return 405, {"error": "POST only"}, None
            return self._submit(body)
        prefix = "/v1/jobs/"
        job_id, _, view = path[len(prefix):].partition("/")
        if path.startswith(prefix) and view in ("", "explain", "trace"):
            if method != "GET":
                return 405, {"error": "GET only"}, None
            if view == "explain":
                return await self._explain(job_id, query)
            if view == "trace":
                return self._job_trace(job_id)
            record = self.records.get(job_id)
            if record is None:
                return 404, {"error": f"unknown job {job_id!r}"}, None
            return 200, record.to_dict(), None
        return 404, {"error": f"no route for {path}"}, None

    def _refresh_gauges(self) -> None:
        """Set the gauges that mirror live state: queue, streams,
        degraded mode, cache quarantine and journal health.
        ``/metricz`` and the drain's metrics flush call this before
        they read the registry."""
        self.scheduler.note_depth()
        gauge = self.registry.gauge
        gauge("stream.dropped").set(self.bus.dropped)
        gauge("stream.subscribers").set(self.bus.subscribers)
        gauge("service.degraded").set(
            0 if self.degraded_reason is None else 1)
        cache = self.scheduler.cache
        if cache is not None:
            gauge("engine.cache.quarantined").set(cache.quarantined)
        journal = self.journal
        if journal is None:
            return
        gauge("service.journal.wal_bytes").set(journal.wal_bytes)
        gauge("service.journal.records").set(journal.appended)
        gauge("service.journal.compactions").set(journal.compactions)
        gauge("service.journal.write_seconds").set(
            journal.write_seconds)
        gauge("service.journal.frames_since_compaction").set(
            journal.frames_since_compaction)
        gauge("service.journal.write_errors").set(
            journal.write_errors)
        replay = journal.last_replay
        if replay is not None:
            gauge("service.journal.replay.records").set(replay.records)
            gauge("service.journal.replay.duplicates").set(
                replay.duplicates)
            gauge("service.journal.replay.tail_dropped").set(
                int(replay.tail_dropped))

    def _health(self) -> dict:
        if self._draining:
            status = "draining"
        elif self.degraded_reason is not None:
            status = "degraded"
        else:
            status = "ok"
        health = {
            "status": status,
            "queue_depth": self.queue.depth,
            "running": self.scheduler.running,
            "completed": self.scheduler.completed,
            "workers": self.scheduler.workers,
            "journal": self.journal is not None,
        }
        if self.degraded_reason is not None:
            health["degraded_reason"] = self.degraded_reason
        return health

    def _degraded_response(self):
        """503 + Retry-After for writes while in degraded mode.

        The hint is short: housekeeping probes the journal every
        sweep, so recovery is noticed within a second of the fault
        clearing."""
        return (503,
                {"error": f"service degraded (read-only): "
                          f"{self.degraded_reason}",
                 "degraded": True, "retry_after": 2},
                {"Retry-After": "2"})

    def _submit(self, body: bytes):
        if self._draining:
            self.registry.counter("service.jobs.rejected").inc()
            return 503, {"error": "service is draining"}, None
        if self.degraded_reason is not None:
            self.registry.counter("service.jobs.rejected").inc()
            return self._degraded_response()
        try:
            data = json.loads(body or b"{}")
        except json.JSONDecodeError as error:
            raise BadRequest(f"body is not valid JSON: {error}")
        spec = JobSpec.from_dict(data)
        self._seq += 1
        record = JobRecord(id=f"j{self._seq:06d}", spec=spec)
        try:
            self.queue.push(record)
        except QueueSaturated as error:
            self.registry.counter("service.jobs.rejected").inc()
            retry_after = self.scheduler.retry_after()
            return (429,
                    {"error": str(error), "retry_after": retry_after},
                    {"Retry-After": str(retry_after)})
        except QueueClosed:
            self.registry.counter("service.jobs.rejected").inc()
            return 503, {"error": "service is draining"}, None
        self.records[record.id] = record
        if self.journal is not None:
            # WAL before the 202: once acked, the job survives a
            # killed process (and a power loss, within the journal's
            # group-commit fsync window).
            frame = self.journal.append("submit", durable=True,
                                        id=record.id,
                                        spec=spec.to_dict())
            if frame is None:
                # The admission could not be journaled (ENOSPC, I/O
                # error): undo it entirely — a 202 whose job the next
                # crash would silently forget is worse than a 503 the
                # client retries — and go read-only until a probe
                # shows the journal writable again.
                self.queue.remove(record)
                self.records.pop(record.id, None)
                self.registry.counter("service.jobs.rejected").inc()
                self._enter_degraded(
                    f"journal write failed: {self.journal.last_error}")
                return self._degraded_response()
        self.registry.counter("service.jobs.submitted").inc()
        self.bus.publish("job_queued", job=record.id,
                         name=record.spec.name,
                         queue_depth=self.queue.depth)
        return (202,
                {"id": record.id, "state": record.state,
                 "queue_depth": self.queue.depth},
                None)

    def _job_trace(self, job_id: str):
        """``GET /v1/jobs/{id}/trace``: the job's spans.

        A Chrome trace document of the record's span records (the
        scheduler's ``service.job`` span and the pool worker's), plus
        a ``repro`` stanza naming the job.
        """
        record = self.records.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, None
        from ..obs.export import to_chrome

        doc = to_chrome(record.spans)
        doc["repro"] = {
            "job": record.id,
            "name": record.spec.name,
            "state": record.state,
            "spans": len(record.spans),
        }
        return 200, doc, None

    async def _explain(self, job_id: str, query):
        record = self.records.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}, None
        if record.state != "done" or record.report is None:
            return (409,
                    {"error": f"job {job_id} is {record.state}; "
                              "explanations need a finished report"},
                    None)
        direction = query.get("direction", "worst")
        if direction not in ("worst", "best"):
            raise BadRequest(f"unknown direction {direction!r}")
        from ..obs.explain import explain_bound, explanation_to_dict

        def build():
            analysis = record.spec.to_analysis_job().build_analysis()
            return explain_bound(analysis, record.report,
                                 direction=direction)

        # Rebuilding the analysis is CPU-bound; keep it off the loop.
        explanation = await asyncio.to_thread(build)
        return 200, explanation_to_dict(explanation), None


class _RequestTooLarge(Exception):
    pass


class ServiceThread:
    """Run an :class:`AnalysisService` event loop on a daemon thread.

    The embedding used by tests, the load-generator benchmark and any
    caller that wants a live server without owning an event loop::

        with (ServiceThread(workers=2, executor="thread") as handle,
              ServiceClient(port=handle.port) as client):
            ...

    ``stop()`` (or leaving the ``with`` block) drains gracefully.
    """

    def __init__(self, **kwargs):
        self.service = AnalysisService(**kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.service.port

    def start(self) -> "ServiceThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="analysis-service", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("analysis service failed to start")
        if self._error is not None:
            raise RuntimeError(
                f"analysis service failed to start: {self._error!r}")
        return self

    async def _main(self) -> None:
        try:
            await self.service.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.service.wait_drained()

    def drain(self, timeout: float = 120.0) -> None:
        """Drain the service and join the thread."""
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(), self._loop)
        future.result(timeout)
        self._thread.join(timeout)
        self._loop = None

    stop = drain

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.drain()
