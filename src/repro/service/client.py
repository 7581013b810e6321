"""A small blocking client for the analysis service.

Used by the ``repro submit`` CLI verb, the load-generator benchmark
and the service tests.  Stdlib only (:mod:`http.client`), with
HTTP/1.1 **keep-alive**: each thread keeps one persistent connection
and reuses it across requests, matching the server's keep-alive loop;
a stale reused socket (server idle-timed it out between requests) is
retried once on a fresh connection.  :meth:`ServiceClient.watch`
consumes the server-sent-events endpoints on a dedicated streaming
connection, reconnecting with ``Last-Event-ID`` so no events are lost
across a dropped connection.

Backpressure shows up as typed exceptions: a saturated queue raises
:class:`ServiceSaturated` carrying the server's ``Retry-After`` hint,
a draining server raises :class:`ServiceUnavailable`.
:meth:`ServiceClient.submit_retry` turns the former into bounded
retry-with-backoff, which is what a well-behaved load generator does.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time

from ..errors import ReproError
from ..obs.stream import parse_sse_stream


class ClientError(ReproError):
    """Base class for client-visible service failures."""


class ServiceSaturated(ClientError):
    """429: the queue is full; retry after ``retry_after`` seconds."""

    def __init__(self, message: str, retry_after: float = 1.0):
        self.retry_after = retry_after
        super().__init__(message)


class ServiceUnavailable(ClientError):
    """503 (draining) or the server cannot be reached at all."""


class ServiceTimeout(ServiceUnavailable):
    """The server accepted the connection but did not answer within
    the client's wall-clock ``timeout`` (connect or read stall — a
    hung, not dead, server).

    Subclasses :class:`ServiceUnavailable` so existing handlers keep
    working; :meth:`ServiceClient.submit_retry` treats it as
    retryable, so a hung server costs a backoff, not a forever-block.
    """

    def __init__(self, message: str, retry_after: float = 0.1):
        self.retry_after = retry_after
        super().__init__(message)


class ServiceDegraded(ServiceUnavailable):
    """503 with ``"degraded": true``: the service is in read-only
    degraded mode (journal I/O failure) and expects to recover.

    Unlike a draining 503 — the server is going away and a retry
    against it is pointless — a degraded server keeps running and
    probes its journal every housekeeping pass, so
    :meth:`ServiceClient.submit_retry` backs off and tries again
    using the server's ``Retry-After`` hint.
    """

    def __init__(self, message: str, retry_after: float = 2.0):
        self.retry_after = retry_after
        super().__init__(message)


class JobFailed(ClientError):
    """A waited-on job finished in the ``failed`` state."""

    def __init__(self, record: dict):
        self.record = record
        super().__init__(f"job {record.get('id')} "
                         f"({record.get('name')}) failed: "
                         f"{record.get('error')}")


class ServiceClient:
    """Blocking HTTP client for one analysis service.

    Connections are persistent and per-thread (a shared client is
    safe to use from several threads — each gets its own socket).
    Use as a context manager, or call :meth:`close` when done, to
    release the calling thread's connection eagerly; sockets are
    otherwise reclaimed with the threads that own them.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 30.0, api_key: str | None = None):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Sent as ``X-API-Key`` when the service enforces tenancy.
        self.api_key = api_key
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self):
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            self._local.connection = connection
            self._local.used = False
        return connection

    def _drop_connection(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()
        self._local.connection = None
        self._local.used = False

    def close(self) -> None:
        """Close the calling thread's persistent connection."""
        self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, method: str, path: str, body: dict | None = None,
                 extra_headers: dict | None = None):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Connection": "keep-alive"}
        if payload:
            headers["Content-Type"] = "application/json"
        if self.api_key:
            headers["X-API-Key"] = self.api_key
        if extra_headers:
            headers.update(extra_headers)
        for attempt in (0, 1):
            connection = self._connection()
            reused = getattr(self._local, "used", False)
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
                response_headers = {k.lower(): v for k, v
                                    in response.getheaders()}
                if response.will_close:
                    self._drop_connection()
                else:
                    self._local.used = True
                try:
                    data = json.loads(raw) if raw else {}
                except json.JSONDecodeError:
                    data = {"error": raw.decode(errors="replace")}
                return response.status, response_headers, data
            except TimeoutError as error:
                # The wall-clock socket timeout tripped: the server is
                # hung, not gone.  No stale-reuse retry here — a fresh
                # connection to a hung server would only burn a second
                # full timeout.
                self._drop_connection()
                raise ServiceTimeout(
                    f"no response from {self.host}:{self.port} within "
                    f"{self.timeout}s ({error or 'timed out'})")
            except (ConnectionError, OSError,
                    http.client.HTTPException) as error:
                self._drop_connection()
                # A reused socket may have been idle-closed by the
                # server between requests; retry once on a fresh
                # connection.  A fresh connection failing means the
                # service really is unreachable.
                if reused and attempt == 0:
                    continue
                raise ServiceUnavailable(
                    f"cannot reach service at {self.host}:{self.port}: "
                    f"{error}")
        raise AssertionError("unreachable")  # pragma: no cover

    def _raise_for(self, status: int, headers: dict, data: dict):
        if status == 429:
            try:
                retry_after = float(headers.get(
                    "retry-after", data.get("retry_after", 1)))
            except (TypeError, ValueError):
                retry_after = 1.0
            raise ServiceSaturated(data.get("error", "queue saturated"),
                                   retry_after=retry_after)
        if status == 503:
            message = data.get("error", "service unavailable")
            if data.get("degraded"):
                try:
                    retry_after = float(headers.get(
                        "retry-after", data.get("retry_after", 2)))
                except (TypeError, ValueError):
                    retry_after = 2.0
                raise ServiceDegraded(message, retry_after=retry_after)
            raise ServiceUnavailable(message)
        if status >= 400:
            raise ClientError(
                f"HTTP {status}: {data.get('error', data)}")

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------
    def submit(self, spec, trace=None) -> dict:
        """POST one job; returns ``{"id": ..., "state": "queued"}``.

        ``spec`` is a dict (the wire schema) or anything with a
        ``to_dict()`` (a :class:`~.protocol.JobSpec`).  `trace`
        optionally carries the submitter's distributed trace identity
        (a :class:`~repro.obs.context.TraceContext` or a pre-formatted
        header string) as ``X-Repro-Trace``; a trace embedded in the
        spec body wins over the header on the server side.
        """
        body = spec.to_dict() if hasattr(spec, "to_dict") else spec
        extra = None
        if trace is not None:
            header = (trace.to_header() if hasattr(trace, "to_header")
                      else str(trace))
            extra = {"X-Repro-Trace": header}
        status, headers, data = self._request("POST", "/v1/jobs", body,
                                              extra_headers=extra)
        self._raise_for(status, headers, data)
        return data

    def submit_retry(self, spec, attempts: int = 8,
                     max_sleep: float = 10.0, trace=None,
                     _sleep=time.sleep, _random=random.uniform) -> dict:
        """Submit with **full-jitter** backoff on 429 responses,
        request timeouts (:class:`ServiceTimeout` — a hung server)
        and read-only degraded mode (:class:`ServiceDegraded` — a
        journal-wounded server that expects to recover).

        The server-sent ``Retry-After`` hint seeds the backoff window:
        attempt *n* sleeps a uniform random duration in
        ``[0, min(retry_after * 2**n, max_sleep)]`` (AWS full jitter).
        Randomising the whole window — rather than sleeping the hint
        verbatim — de-synchronises a fleet of clients that were all
        rejected in the same instant, so they do not stampede the
        queue again together.  ``_sleep``/``_random`` are injectable
        for tests.
        """
        # Pass trace only when set: subclasses (and test doubles) that
        # override submit(spec) without the kwarg keep working.
        kwargs = {"trace": trace} if trace is not None else {}
        for attempt in range(attempts):
            try:
                return self.submit(spec, **kwargs)
            except (ServiceSaturated, ServiceTimeout,
                    ServiceDegraded) as error:
                if attempt == attempts - 1:
                    raise
                window = min(max(error.retry_after, 0.05)
                             * (2 ** attempt), max_sleep)
                _sleep(_random(0.0, window))
        raise AssertionError("unreachable")  # pragma: no cover

    def job(self, job_id: str) -> dict:
        status, headers, data = self._request("GET",
                                              f"/v1/jobs/{job_id}")
        self._raise_for(status, headers, data)
        return data

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> dict:
        """Poll until the job leaves the queue/worker; returns the
        final record.  Raises :class:`JobFailed` on failure and
        ``TimeoutError`` when `timeout` elapses first."""
        deadline = time.monotonic() + timeout
        while True:
            record = self.job(job_id)
            if record["state"] == "done":
                return record
            if record["state"] == "failed":
                raise JobFailed(record)
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {record['state']} after "
                    f"{timeout}s")
            time.sleep(poll)

    def watch(self, job_id: str | None = None, since: int = 0,
              reconnects: int = 3):
        """Yield live events from the service's SSE endpoints.

        With `job_id`, follows ``/v1/jobs/{id}/events`` and returns
        after the job's terminal event (``job_done`` / ``job_failed``
        / a final ``state``); without, tails the ``/v1/events``
        firehose until the server goes away.  Runs on its own
        streaming connection (the per-thread request connection stays
        usable).  A dropped connection reconnects up to `reconnects`
        times with ``Last-Event-ID`` so ring-buffered events missed
        during the gap are replayed.
        """
        path = (f"/v1/jobs/{job_id}/events" if job_id is not None
                else "/v1/events")
        last_seq = since
        failures = 0
        while True:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            ended = False
            try:
                headers = {"Accept": "text/event-stream"}
                if last_seq:
                    headers["Last-Event-ID"] = str(last_seq)
                connection.request("GET", path, headers=headers)
                response = connection.getresponse()
                if response.status != 200:
                    raw = response.read()
                    try:
                        data = json.loads(raw) if raw else {}
                    except json.JSONDecodeError:
                        data = {"error": raw.decode(errors="replace")}
                    self._raise_for(response.status,
                                    {k.lower(): v for k, v
                                     in response.getheaders()}, data)
                    raise ClientError(f"HTTP {response.status} from "
                                      f"{path}")
                failures = 0
                for event in parse_sse_stream(response):
                    last_seq = max(last_seq, event.get("seq", 0))
                    yield event
                    if job_id is not None and event.get("type") in (
                            "job_done", "job_failed"):
                        return
                    if (job_id is not None
                            and event.get("type") == "state"
                            and event.get("state") in ("done",
                                                       "failed")):
                        return
                ended = True        # server closed the stream cleanly
            except (ConnectionError, OSError,
                    http.client.HTTPException) as error:
                failures += 1
                if failures > reconnects:
                    raise ServiceUnavailable(
                        f"event stream to {self.host}:{self.port} "
                        f"lost: {error}")
            finally:
                connection.close()
            if ended:
                if job_id is not None:
                    return          # job stream over (e.g. drain)
                time.sleep(0.2)     # firehose: server restarting?
                failures += 1
                if failures > reconnects:
                    return
            else:
                time.sleep(0.2)

    def trace(self, job_id: str) -> dict:
        """GET a finished job's span tree as a Chrome trace document.

        The ``repro`` key of the response carries the job id, state,
        span count and trace id.
        """
        status, headers, data = self._request(
            "GET", f"/v1/jobs/{job_id}/trace")
        self._raise_for(status, headers, data)
        return data

    def profilez(self, format: str | None = None) -> dict:
        """GET the server's continuous-profiler snapshot.

        Default is a speedscope document; ``format="collapsed"``
        returns collapsed-stack folds instead.  404s (as
        :class:`ClientError`) when the server runs without
        ``--profile-sample-hz``.
        """
        path = "/v1/profilez"
        if format:
            path += f"?format={format}"
        status, headers, data = self._request("GET", path)
        self._raise_for(status, headers, data)
        return data

    def explain(self, job_id: str, direction: str = "worst") -> dict:
        status, headers, data = self._request(
            "GET", f"/v1/jobs/{job_id}/explain?direction={direction}")
        self._raise_for(status, headers, data)
        return data

    def healthz(self) -> dict:
        status, headers, data = self._request("GET", "/healthz")
        self._raise_for(status, headers, data)
        return data

    def metricz(self) -> dict:
        status, headers, data = self._request("GET", "/metricz")
        self._raise_for(status, headers, data)
        return data

    def series(self, prefix: str | None = None,
               since: float | None = None) -> dict:
        """GET the server's time-series history (``/v1/series``).

        ``prefix`` filters series names; ``since`` (a wall-clock
        timestamp) returns only newer points — the incremental-poll
        idiom the ops console uses.  404s (as :class:`ClientError`)
        when the server runs with ``--no-series``.
        """
        params = []
        if prefix:
            params.append(f"prefix={prefix}")
        if since is not None:
            params.append(f"since={since}")
        path = "/v1/series" + ("?" + "&".join(params) if params else "")
        status, headers, data = self._request("GET", path)
        self._raise_for(status, headers, data)
        return data

    def alerts(self) -> dict:
        """GET SLO/alert state (``/v1/alerts``): declared objectives,
        current burn rates and each alert's state machine."""
        status, headers, data = self._request("GET", "/v1/alerts")
        self._raise_for(status, headers, data)
        return data

    def wait_ready(self, timeout: float = 30.0,
                   poll: float = 0.05) -> dict:
        """Block until ``/healthz`` answers (server start-up)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                return self.healthz()
            except ServiceUnavailable:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(poll)
