"""The service-mix load generator and its ``repro serve`` subprocess.

One process drives the server with no more threads or connections than
the host has CPUs (two): the main thread POSTs jobs over one keep-alive
connection, and one reader thread follows the ``/v1/events`` SSE stream.
A job is complete when its ``job_done`` / ``job_failed`` event arrives;
that event already carries ``best``, ``worst`` and ``cache_hit``.
Polling ``GET /v1/jobs/{id}`` every 50 ms (as ``ServiceClient.wait``
does) would quantize a 2-7 ms cache hit into 50 ms, so it is only the
fallback for an event that never comes.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

#: Jobs in flight in the closed loop.
IN_FLIGHT = 2

#: Seconds to wait for a terminal event before asking the job record.
EVENT_TIMEOUT = 30.0

_LISTENING = re.compile(rb"listening on http://([\d.]+):(\d+)")


class Server:
    """``repro serve`` on a free port, with private cache and journal."""

    def __init__(self, root: Path, state: Path, env: dict):
        state.mkdir(parents=True)
        self.log_path = state / "serve.log"
        self.log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2",
             "--journal", str(state / "journal"),
             "--cache-dir", str(state / "cache")],
            cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT)
        self.host, self.port = self._wait_listening()

    def _wait_listening(self, timeout: float = 120.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_bytes())
            if match:
                return match.group(1).decode(), int(match.group(2))
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("repro serve did not start:\n"
                           + self.log_path.read_text(errors="replace"))

    def peak_rss_mb(self) -> float:
        """VmHWM of the server plus that of its largest child."""
        children = [_hwm_mb(pid) for pid in child_pids(self.proc.pid)]
        return _hwm_mb(self.proc.pid) + max(children, default=0.0)

    def stop(self) -> None:
        """SIGTERM, then wait for the drain (SIGKILL if it hangs)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def child_pids(parent: int) -> list[int]:
    """Processes whose parent is ``parent``, read from /proc."""
    pids = []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == parent:
            pids.append(int(entry.name))
    return pids


def _hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class LoadGen:
    """One POST connection plus one SSE reader thread."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=60)
        self.done: dict[str, tuple[float, dict]] = {}
        self.cond = threading.Condition()
        self.sock = socket.create_connection((host, port), timeout=None)
        self.sock.sendall(f"GET /v1/events HTTP/1.1\r\nHost: {host}\r\n"
                          f"\r\n".encode())
        self.stream = self.sock.makefile("rb")
        # The server subscribes before it writes the response head, so
        # once the head is read no later event can be missed.
        status = self.stream.readline()
        if b" 200 " not in status:
            raise RuntimeError(f"/v1/events answered {status!r}")
        while self.stream.readline() not in (b"\r\n", b"\n", b""):
            pass
        self.reader = threading.Thread(target=self._read, daemon=True,
                                       name="sse-reader")
        self.reader.start()

    def _read(self) -> None:
        kind = b""
        try:
            for line in self.stream:
                if line.startswith(b"event: "):
                    kind = line[7:].strip()
                elif line.startswith(b"data: ") and kind in (
                        b"job_done", b"job_failed"):
                    arrived = time.perf_counter()
                    event = json.loads(line[6:])
                    with self.cond:
                        self.done[event["job"]] = (arrived, event)
                        self.cond.notify_all()
        except (OSError, ValueError):
            pass        # close() shut the socket; the stream is over

    def request(self, method: str, path: str, body=None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else {}

    def close(self) -> None:
        self.conn.close()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.reader.join(timeout=10)

    # ------------------------------------------------------------------
    def run_pass(self, items: list[dict]) -> list[dict]:
        """Closed loop, ``IN_FLIGHT`` jobs at a time, in item order.

        Returns one outcome per item: the item plus ``start``,
        ``accepted``, ``end`` (perf_counter seconds), the terminal event
        and the job id, or an ``error``.
        """
        pending = deque(items)
        inflight: dict[str, dict] = {}
        outcomes = []
        while pending or inflight:
            while pending and len(inflight) < IN_FLIGHT:
                item = pending.popleft()
                start = time.perf_counter()
                status, body = self.request("POST", "/v1/jobs",
                                            item["spec"])
                accepted = time.perf_counter()
                if status != 202:
                    outcomes.append({**item, "error": f"HTTP {status}: "
                                     f"{body.get('error')}"})
                    continue
                inflight[body["id"]] = {**item, "id": body["id"],
                                        "start": start,
                                        "accepted": accepted}
            if not inflight:            # every POST left was refused
                continue
            for job_id, (end, event) in self._wait_any(inflight):
                outcome = inflight.pop(job_id)
                outcome.update(end=end, event=event)
                outcomes.append(outcome)
        return outcomes

    def _wait_any(self, inflight: dict):
        deadline = time.monotonic() + EVENT_TIMEOUT
        with self.cond:
            while True:
                ready = [(job_id, self.done.pop(job_id))
                         for job_id in list(inflight)
                         if job_id in self.done]
                if ready:
                    return ready
                if time.monotonic() >= deadline:
                    break
                self.cond.wait(timeout=1.0)
        # No event: the stream dropped it.  Ask the records instead.
        ready = []
        for job_id in inflight:
            status, record = self.request("GET", f"/v1/jobs/{job_id}")
            if record.get("state") in ("done", "failed"):
                report = record.get("report") or {}
                ready.append((job_id, (time.perf_counter(), {
                    "type": "job_done" if record["state"] == "done"
                    else "job_failed", "job": job_id,
                    "cache_hit": record.get("cache_hit"),
                    "best": report.get("best"),
                    "worst": report.get("worst"),
                    "error": record.get("error"), "polled": True})))
        if not ready:
            raise RuntimeError(f"jobs {sorted(inflight)} did not finish "
                               f"within {EVENT_TIMEOUT} s")
        return ready

    def metricz(self) -> dict:
        return self.request("GET", "/metricz")[1]


def metric_delta(before: dict, after: dict, name: str) -> float:
    def value(snapshot):
        entry = snapshot.get(name) or {}
        return entry.get("value", entry.get("count", 0)) or 0
    return value(after) - value(before)
