"""A small blocking client for the analysis service.

Used by the ``repro submit`` CLI verb, the load-generator benchmark
and the service tests.  Stdlib only (:mod:`http.client`), with
HTTP/1.1 **keep-alive**: each thread keeps one persistent connection
and reuses it across requests, matching the server's keep-alive loop;
a stale reused socket (server idle-timed it out between requests) is
retried once on a fresh connection.  :meth:`ServiceClient.watch` tails
the ``/v1/events`` stream on a dedicated connection, reconnecting with
``Last-Event-ID`` so no events are lost across a dropped connection.

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
    Use as a context manager, or call :meth:`close` when done: it
    closes the connection of every thread that used the client.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8787,
                 timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Thread id -> [connection, whether it served a request].
        self._connections: dict[int, list] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> list:
        """The calling thread's ``[connection, used]`` entry."""
        ident = threading.get_ident()
        with self._lock:
            entry = self._connections.get(ident)
            if entry is None:
                entry = self._connections[ident] = [
                    http.client.HTTPConnection(self.host, self.port,
                                               timeout=self.timeout),
                    False]
        return entry

    def _drop_connection(self) -> None:
        with self._lock:
            entry = self._connections.pop(threading.get_ident(), None)
        if entry is not None:
            entry[0].close()

    def close(self) -> None:
        """Close every thread's persistent connection."""
        with self._lock:
            connections, self._connections = self._connections, {}
        for connection, _ in connections.values():
            connection.close()

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
        if extra_headers:
            headers.update(extra_headers)
        for attempt in (0, 1):
            entry = self._connection()
            connection, reused = entry
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
                    entry[1] = True
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
    def submit(self, spec) -> dict:
        """POST one job; returns ``{"id": ..., "state": "queued"}``.

        ``spec`` is a dict (the wire schema) or anything with a
        ``to_dict()`` (a :class:`~.protocol.JobSpec`).
        """
        body = spec.to_dict() if hasattr(spec, "to_dict") else spec
        status, headers, data = self._request("POST", "/v1/jobs", body)
        self._raise_for(status, headers, data)
        return data

    def submit_retry(self, spec, attempts: int = 8,
                     max_sleep: float = 10.0,
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
        for attempt in range(attempts):
            try:
                return self.submit(spec)
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

    def watch(self, *, since: int | None = None, reconnects: int = 3):
        """Yield the service's events from ``/v1/events`` until the
        server goes away.  Runs on its own streaming connection (the
        per-thread request connection stays usable).

        `since` is sent as ``Last-Event-ID``: the stream first replays
        the ring-buffered events newer than that sequence number, so
        ``since=0`` replays the whole ring; left None, the stream
        tails live events only.  A dropped connection reconnects up to
        `reconnects` times with ``Last-Event-ID`` so events missed
        during the gap are replayed.
        """
        last_seq = since
        failures = 0
        while True:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
            ended = False
            try:
                headers = {"Accept": "text/event-stream"}
                if last_seq is not None:
                    headers["Last-Event-ID"] = str(last_seq)
                connection.request("GET", "/v1/events", headers=headers)
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
                                      "/v1/events")
                failures = 0
                for event in parse_sse_stream(response):
                    last_seq = max(last_seq or 0, event.get("seq", 0))
                    yield event
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
                failures += 1       # drained, or restarting?
                if failures > reconnects:
                    return
            time.sleep(0.2)

    def trace(self, job_id: str) -> dict:
        """GET a finished job's span tree as a Chrome trace document.

        The ``repro`` key of the response carries the job id, name,
        state and span count.
        """
        status, headers, data = self._request(
            "GET", f"/v1/jobs/{job_id}/trace")
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
