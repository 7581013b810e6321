"""Analysis service: wire model, queue, admission, deadlines, drain.

Scheduling behaviour is tested deterministically by injecting a gated
fake runner (the scheduler's ``runner`` hook) so a worker can be held
mid-job while the test probes the HTTP surface around it; the
end-to-end class runs the real engine payload and checks the served
bounds against serial ``Analysis.estimate``.
"""

import asyncio
import json
import math
import threading
import time

import pytest

from repro.engine.jobs import JobResult
from repro.engine.metrics import STAGES
from repro.obs import EventBus, MetricsRegistry
from repro.programs import get_benchmark
from repro.service import (AnalysisService, BadRequest, ClientError,
                           JobFailed, JobQueue, JobSpec, QueueClosed,
                           QueueSaturated, ServiceClient, ServiceSaturated,
                           ServiceThread, ServiceUnavailable)


class GatedRunner:
    """A fake engine runner the test can hold and release."""

    def __init__(self):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.payloads = []
        self._lock = threading.Lock()

    def __call__(self, payload):
        with self._lock:
            self.payloads.append(payload)
        self.started.set()
        if not self.gate.wait(timeout=30):
            raise TimeoutError("test never released the gate")
        return JobResult(payload[0].name, "ok")

    @property
    def names(self):
        with self._lock:
            return [payload[0].name for payload in self.payloads]


def _thread_service(**kwargs):
    kwargs.setdefault("executor", "thread")
    return ServiceThread(**kwargs)


def _src(name, **extra):
    """A named source-job spec (fake runners never compile it, and the
    spec's name travels into the engine payload — unlike benchmark
    jobs, which take the benchmark's registered name)."""
    return {"name": name, "source": "int f() { return 1; }",
            "entry": "f", **extra}


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_dict({
            "source": "int f() { return 1; }", "entry": "f",
            "machine": "dsp3210", "backend": "exact",
            "auto_bounds": True, "bounds": [[None, 3, 0, 8]],
            "constraints": [["x1 = 1", None]], "priority": 4,
            "deadline_seconds": 9.5, "set_timeout": 2.0,
            "max_iterations": 1000})
        assert JobSpec.from_dict(spec.to_dict()) == spec
        assert spec.name == "f@source"

    def test_null_priority_is_the_default(self):
        # A null field takes its default, as the budgets' nulls do.
        spec = JobSpec.from_dict({"benchmark": "check_data",
                                  "priority": None})
        assert spec.priority == 0

    def test_wire_form_has_no_trace(self):
        # The job id is a job's identity, not a field of its spec: the
        # wire form carries no trace, and a body that sends one is
        # refused like any unknown field.
        spec = JobSpec.from_dict({"benchmark": "check_data"})
        assert "trace" not in spec.to_dict()
        with pytest.raises(BadRequest,
                           match=r"unknown job fields: \['trace'\]"):
            JobSpec.from_dict({**spec.to_dict(),
                               "trace": {"trace_id": "ab" * 16}})

    def test_lowers_to_engine_job(self):
        spec = JobSpec.from_dict({"benchmark": "check_data"})
        job = spec.to_analysis_job()
        from repro.engine import AnalysisJob
        assert (job.fingerprint()
                == AnalysisJob.from_benchmark("check_data").fingerprint())

    def test_fingerprint_sorts_rows_with_nulls(self):
        spec = JobSpec.from_dict({
            "source": "int f() { return 1; }", "entry": "f",
            "bounds": [["g", 4, 0, 2], [None, 3, 0, 8]],
            "constraints": [["x1 = 1", "g"], ["x1 = 1", None]]})
        fingerprint = spec.to_analysis_job().fingerprint()
        assert "bounds=[(None, 3, 0, 8), ('g', 4, 0, 2)]" in fingerprint
        assert "constraints=[('x1 = 1', None), ('x1 = 1', 'g')]" \
            in fingerprint

    @pytest.mark.parametrize("body", [
        "not a dict",
        {},                                        # no target
        {"benchmark": "a", "source": "b", "entry": "f"},
        {"source": "int f(){}"},                   # no entry
        {"benchmark": "check_data", "machine": "vax"},
        {"benchmark": "check_data", "backend": "cplex"},
        {"benchmark": "check_data", "deadline_seconds": -1},
        {"benchmark": "check_data", "set_timeout": "soon"},
        {"benchmark": "check_data", "bounds": [[1]]},
        {"benchmark": "check_data", "frobnicate": True},
        {"benchmark": ["check_data"]},
        {"benchmark": "no_such_routine"},
        {"benchmark": "check_data", "machine": []},
        {"benchmark": "check_data", "max_iterations": math.inf},
        {"benchmark": "check_data", "priority": math.nan},
        {"source": 123, "entry": "f"},
        {"source": "int f(){}", "entry": ["main"]},
        {"source": "int f(){}", "entry": "f", "name": 7},
        {"source": "int f(){}", "entry": "f",
         "bounds": [["f", None, 1, math.inf]]},
        {"source": "int f(){}", "entry": "f", "bounds": [[["f"], 3, 1, 2]]},
        {"source": "int f(){}", "entry": "f", "constraints": [["x1=1", 5]]},
        # Source-only fields, which a benchmark job would drop.
        {"benchmark": "check_data", "bounds": [[None, 3, 0, 1]]},
        {"benchmark": "check_data", "constraints": [["x1 = 0", None]]},
        {"benchmark": "check_data", "auto_bounds": True},
    ])
    def test_rejects_bad_specs(self, body):
        with pytest.raises(BadRequest):
            JobSpec.from_dict(body)


class _Record:
    def __init__(self, name, priority=0):
        self.spec = JobSpec(name=name, benchmark=name, priority=priority)


class TestJobQueue:
    def test_priority_then_fifo(self):
        async def scenario():
            queue = JobQueue()
            for name, priority in (("a", 0), ("b", 5),
                                   ("c", 0), ("d", 5)):
                queue.push(_Record(name, priority))
            return [(await queue.pop()).spec.name for _ in range(4)]

        assert asyncio.run(scenario()) == ["b", "d", "a", "c"]

    def test_priority_ties_are_fifo_stable(self):
        """Submission-order fairness: equal-priority records must pop
        in exactly the order they were pushed, at any scale."""
        async def scenario():
            queue = JobQueue()
            for n in range(50):
                queue.push(_Record(f"job{n:02d}", priority=3))
            return [(await queue.pop()).spec.name for _ in range(50)]

        assert asyncio.run(scenario()) \
            == [f"job{n:02d}" for n in range(50)]

    def test_saturation_and_close(self):
        async def scenario():
            queue = JobQueue(maxsize=1)
            queue.push(_Record("a"))
            with pytest.raises(QueueSaturated):
                queue.push(_Record("b"))
            queue.close()
            with pytest.raises(QueueClosed):
                queue.push(_Record("c"))
            assert (await queue.pop()).spec.name == "a"
            assert await queue.pop() is None      # closed and empty

        asyncio.run(scenario())


class TestAdmissionControl:
    def test_saturated_queue_gets_429_with_retry_after(self):
        runner = GatedRunner()
        with _thread_service(workers=1, queue_depth=1,
                             runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            first = client.submit(_src("inflight"))
            assert runner.started.wait(timeout=10)
            client.submit(_src("queued"))
            with pytest.raises(ServiceSaturated) as excinfo:
                client.submit(_src("rejected"))
            assert excinfo.value.retry_after >= 1

            snapshot = client.metricz()
            assert snapshot["service.jobs.rejected"]["value"] == 1
            assert snapshot["service.jobs.submitted"]["value"] == 2

            runner.gate.set()
            record = client.wait(first["id"], timeout=30)
            assert record["state"] == "done"
        assert "rejected" not in runner.names

    def test_priority_orders_dispatch(self):
        runner = GatedRunner()
        with _thread_service(workers=1, queue_depth=8,
                             runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            client.submit(_src("blocker"))
            assert runner.started.wait(timeout=10)
            client.submit(_src("low", priority=0))
            client.submit(_src("high", priority=5))
            runner.gate.set()
        assert runner.names == ["blocker", "high", "low"]

    def test_bad_submissions_are_400(self):
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(ClientError, match="HTTP 400"):
                client.submit({"benchmark": "check_data",
                               "machine": "vax"})
            with pytest.raises(ClientError, match="HTTP 404"):
                client.job("j999999")
            with pytest.raises(ClientError,
                               match="HTTP 400: .* source jobs only"):
                client.submit({"benchmark": "check_data",
                               "constraints": [["x1 = 0", None]],
                               "bounds": [[None, 3, 0, 1]],
                               "auto_bounds": True})
            assert client.healthz()["completed"] == 0


class TestSingleReplica:
    """The service is one replica: no route hands a queued job to
    another process, and no payload carries a lease or a peer's
    metrics."""

    @pytest.mark.parametrize("path", ["/v1/peer/claim",
                                      "/v1/peer/complete"])
    def test_peer_routes_are_404_and_take_nothing(self, path):
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            client.submit(_src("inflight"))
            assert runner.started.wait(timeout=10)
            queued = client.submit(_src("queued"))["id"]
            status, _, data = client._request(
                "POST", path,
                {"peer": "127.0.0.1:8788", "id": queued, "state": "done"},
                extra_headers={"X-Cluster-Key": "secret"})
            assert status == 404, data
            assert client.job(queued)["state"] == "queued"
            runner.gate.set()
            assert client.wait(queued, timeout=30)["state"] == "done"
        assert runner.names == ["inflight", "queued"]

    def test_health_records_and_metricz_are_local(self):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            record = client.wait(client.submit(_src("a"))["id"],
                                 timeout=30)
            health = client.healthz()
            # The query that once merged peers' registries is ignored.
            status, _, merged = client._request("GET",
                                                "/metricz?merge=peers")
        assert record["state"] == "done" and "leased_to" not in record
        assert "leased" not in health and health["completed"] == 1
        assert status == 200
        assert merged["service.jobs.submitted"]["value"] == 1
        assert not [name for name in merged
                    if name.startswith(("federation.", "service.peer."))]


class TestNoUnusedSettings:
    """The service takes no cache caps, and its keep-alive timeout,
    event bus and metrics registry are its own."""

    @pytest.mark.parametrize("keyword, value", [
        ("cache_limits", lambda: (1, None)),
        ("keepalive_timeout", lambda: 1.0),
        ("bus", EventBus),
        ("registry", MetricsRegistry),
    ], ids=["cache_limits", "keepalive_timeout", "bus", "registry"])
    def test_service_takes_no(self, keyword, value):
        with pytest.raises(TypeError):
            AnalysisService(**{keyword: value()})


class TestSingleUser:
    """The service serves one user and checks no credentials: a
    submission is admitted with or without a key, and the queue-depth
    cap is its only 429."""

    @pytest.mark.parametrize("headers", [
        pytest.param({}, id="none"),
        pytest.param({"X-API-Key": "unknown"}, id="x-api-key"),
        pytest.param({"Authorization": "Bearer unknown"}, id="bearer"),
    ])
    def test_credentials_are_neither_required_nor_checked(self, headers):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            status, _, data = client._request(
                "POST", "/v1/jobs", _src("a"), extra_headers=headers)
            assert status == 202, data
            record = client.wait(data["id"], timeout=30)
        assert record["state"] == "done" and "tenant" not in record
        assert runner.names == ["a"]

    def test_one_set_of_counters_and_gauges(self):
        # Submissions, completions, rejections and occupancy are counted
        # service-wide; nothing is kept per key or per tenant.
        runner = GatedRunner()
        with _thread_service(workers=1, queue_depth=1,
                             runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            first = client.submit(_src("one"))
            assert runner.started.wait(timeout=10)
            second = client.submit(_src("two"))     # fills the queue
            with pytest.raises(ServiceSaturated):
                client.submit(_src("three"))
            mid = client.metricz()
            runner.gate.set()
            client.wait(first["id"], timeout=30)
            client.wait(second["id"], timeout=30)
            done = client.metricz()
        midway = MetricsRegistry.from_snapshot(mid)
        assert midway.value("service.jobs.submitted") == 2
        assert midway.value("service.jobs.rejected") == 1
        assert midway.value("service.queue_depth") == 1
        assert midway.value("service.running") == 1
        finished = MetricsRegistry.from_snapshot(done)
        assert finished.value("service.jobs.done.ok") == 2
        assert finished.value("service.queue_depth") == 0
        assert finished.value("service.running") == 0
        for snapshot in (mid, done):
            assert "service.jobs.throttled" not in snapshot
            assert not [name for name in snapshot
                        if name.startswith("tenant.")]


class TestOneIdentity:
    """A job's one identity is its job id: a body has no ``trace``
    field, an ``X-Repro-Trace`` header is ignored like any unknown
    header, and there is no profiler endpoint."""

    def test_trace_field_is_400_and_trace_header_is_ignored(self):
        serial = get_benchmark("check_data").make_analysis().estimate()
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(ClientError, match="HTTP 400: unknown "
                                                  "job fields: .'trace'."):
                client.submit({"benchmark": "check_data",
                               "trace": {"trace_id": "ab"}})
            status, _, ticket = client._request(
                "POST", "/v1/jobs", {"benchmark": "check_data"},
                extra_headers={"X-Repro-Trace": "not-hex;;="})
            assert status == 202, ticket
            record = client.wait(ticket["id"], timeout=60)
            doc = client.trace(ticket["id"])
        assert sorted(ticket) == ["id", "queue_depth", "state"]
        assert (record["best"], record["worst"]) == serial.interval
        assert "trace_id" not in record
        assert sorted(doc["repro"]) == ["job", "name", "spans", "state"]

    def test_profilez_is_404(self):
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            status, _, data = client._request("GET", "/v1/profilez")
        assert status == 404, data
        assert data == {"error": "no route for /v1/profilez"}


class TestOneMetricsSurface:
    """``/metricz`` is the service's one metrics surface: no time
    series, no alerts, no console page."""

    def test_series_alerts_and_console_are_404(self):
        paths = ("/v1/series", "/v1/series?prefix=service.", "/v1/alerts",
                 "/dashboard")
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            answers = {path: client._request("GET", path)
                       for path in paths}
            health = client.healthz()
        for path, (status, _, data) in answers.items():
            assert status == 404, (path, data)
            route = path.partition("?")[0]
            assert data == {"error": f"no route for {route}"}
        assert health["status"] == "ok"
        assert "alerts_firing" not in health

    def test_healthz_fields(self, tmp_path):
        # Status, queue and worker figures, and whether a journal backs
        # the service; degraded_reason joins them only while degraded.
        keys = {"status", "queue_depth", "running", "completed",
                "workers", "journal"}
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            ephemeral = client.healthz()
        with _thread_service(workers=1, journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            journaled = client.healthz()
        assert set(ephemeral) == set(journaled) == keys
        assert ephemeral["journal"] is False
        assert journaled["journal"] is True
        assert ephemeral["status"] == journaled["status"] == "ok"
        assert ephemeral["workers"] == journaled["workers"] == 1

    def test_housekeeping_runs_only_with_a_journal(self, tmp_path):
        # Housekeeping looks after the journal and nothing else, so an
        # ephemeral service starts no such task.
        with _thread_service(workers=1) as handle:
            assert handle.service._housekeeper is None
        with _thread_service(workers=1, journal_dir=tmp_path) as handle:
            task = handle.service._housekeeper
            assert task is not None and not task.done()


class TestDeadlines:
    def test_deadline_becomes_solver_budget(self):
        runner = GatedRunner()
        runner.gate.set()                         # run-through
        with _thread_service(workers=1, runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            ticket = client.submit({"benchmark": "check_data",
                                    "deadline_seconds": 60.0})
            client.wait(ticket["id"], timeout=30)
            ticket = client.submit({"benchmark": "check_data",
                                    "deadline_seconds": 60.0,
                                    "set_timeout": 2.0})
            client.wait(ticket["id"], timeout=30)
        # Deadline remainder propagates as the per-set solver timeout…
        _job, set_timeout, _iters, _trace = runner.payloads[0]
        assert set_timeout is not None and 50.0 < set_timeout <= 60.0
        # …and min-combines with an explicit set_timeout.
        _job, set_timeout, _iters, _trace = runner.payloads[1]
        assert set_timeout == 2.0

    def test_expired_deadline_fails_without_running(self):
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner) as handle, \
                ServiceClient(port=handle.port) as client:
            blocker = client.submit(_src("blocker"))
            assert runner.started.wait(timeout=10)
            doomed = client.submit(_src("doomed", deadline_seconds=0.05))
            time.sleep(0.2)                       # let the deadline pass
            runner.gate.set()
            client.wait(blocker["id"], timeout=30)
            with pytest.raises(JobFailed, match="deadline exceeded"):
                client.wait(doomed["id"], timeout=30)
            snapshot = client.metricz()
            assert (snapshot["service.jobs.deadline_expired"]["value"]
                    == 1)
        assert "doomed" not in runner.names       # never reached a worker


class TestDrain:
    def test_drain_finishes_inflight_and_rejects_new(self, tmp_path):
        runner = GatedRunner()
        metrics_path = tmp_path / "metrics.json"
        handle = _thread_service(workers=1, runner=runner,
                                 metrics_path=metrics_path).start()
        with ServiceClient(port=handle.port) as client:
            inflight = client.submit(_src("inflight"))
            assert runner.started.wait(timeout=10)
            queued = client.submit(_src("queued"))

            drainer = threading.Thread(target=handle.drain)
            drainer.start()
            time.sleep(0.2)
            assert client.healthz()["status"] == "draining"
            with pytest.raises(ServiceUnavailable):
                client.submit(_src("late"))

            runner.gate.set()
            drainer.join(timeout=30)
            assert not drainer.is_alive()

            # Both admitted jobs finished; the metrics snapshot was
            # flushed and is a loadable registry.
            records = handle.service.records
            assert {records[t["id"]].state
                    for t in (inflight, queued)} == {"done"}
            flushed = MetricsRegistry.load(metrics_path)
            assert flushed.value("service.jobs.done.ok") == 2
            with pytest.raises(ServiceUnavailable):
                client.healthz()                  # listener is gone

    def test_drain_flushes_current_gauges(self, tmp_path):
        # The flush refreshes the live-state gauges as /metricz does,
        # so the journal's figures are those after the drain's own
        # compaction, with no /metricz read before it.
        runner = GatedRunner()
        runner.gate.set()
        metrics_path = tmp_path / "metrics.json"
        handle = _thread_service(workers=1, runner=runner,
                                 journal_dir=tmp_path / "journal",
                                 metrics_path=metrics_path).start()
        with ServiceClient(port=handle.port) as client:
            for name in ("a", "b", "c"):
                client.wait(client.submit(_src(name))["id"], timeout=30)
        handle.drain()
        journal = handle.service.journal
        flushed = MetricsRegistry.load(metrics_path)
        assert journal.compactions >= 1
        assert flushed.value("service.journal.compactions") \
            == journal.compactions
        assert flushed.value("service.journal.wal_bytes") \
            == journal.wal_bytes
        assert "service.degraded" in flushed
        assert flushed.value("service.degraded") == 0
        assert flushed.value("service.queue_depth") == 0
        assert "stream.subscribers" in flushed


class TestEndToEnd:
    def test_malformed_fields_are_400_and_workers_survive(self):
        bodies = (
            {"benchmark": ["check_data"]},
            {"benchmark": ["check_data"]},
            {"benchmark": "check_data", "machine": []},
            {"benchmark": "check_data", "max_iterations": math.inf},
            {"source": 123, "entry": "f"},
            {"source": "int f() { return 1; }", "entry": ["main"]},
        )
        with ServiceThread(workers=2, executor="process") as handle, \
                ServiceClient(port=handle.port) as client:
            for body in bodies:
                with pytest.raises(ClientError, match="HTTP 400"):
                    client.submit(body)
            done = client.wait(client.submit({"benchmark": "piksrt"})["id"],
                               timeout=60)
            health = client.healthz()
            snapshot = client.metricz()
        serial = get_benchmark("piksrt").make_analysis().estimate()
        assert (done["best"], done["worst"]) == serial.interval
        assert health["status"] == "ok"
        assert snapshot["service.retries"]["value"] == 0

    def test_bounds_match_serial_and_cache_reuses(self, tmp_path):
        serial = get_benchmark("check_data").make_analysis().estimate()
        with _thread_service(workers=2, cache_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            cold = client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=120)
            warm = client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=120)
            explanation = client.explain(cold["id"], direction="worst")
            with pytest.raises(ClientError, match="HTTP 400"):
                client.explain(cold["id"], direction="sideways")
            snapshot = client.metricz()

        assert (cold["best"], cold["worst"]) == serial.interval
        assert (warm["best"], warm["worst"]) == serial.interval
        assert not cold["cache_hit"] and warm["cache_hit"]
        assert (cold["report"]["best"],
                cold["report"]["worst"]) == serial.interval

        assert explanation["bound"] == serial.worst
        assert explanation["consistent"] is True

        # /metricz is an obs snapshot carrying both the service.* and
        # folded engine.* families.
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.jobs.submitted") == 2
        assert registry.value("engine.cache.hits.job") == 1
        queue_hist = registry.histogram("service.queue_seconds")
        assert queue_hist.count == 2

    def test_repeat_hits_are_served_from_memory(self, tmp_path):
        # The first hit verifies the entry file; the second is answered
        # from the cache's memory tier with the very same report, which
        # the records and the explainer only read.  With no journal to
        # write it, no hit encodes the report's text.
        from repro.engine.cache import report_to_dict

        with _thread_service(workers=1, cache_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            cache = handle.service.scheduler.cache
            reads = []
            read = cache._read
            cache._read = lambda key: reads.append(key) or read(key)
            records = [client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=120) for _ in range(3)]
            explanation = client.explain(records[2]["id"])
            snapshot = client.metricz()
            ((held, text), _), = cache._memory.values()

        assert [r["cache_hit"] for r in records] == [False, True, True]
        assert len(reads) == 2          # the cold miss, the first hit
        timing = ("id", "submitted_at", "queue_seconds", "run_seconds")

        def canonical(record):
            return json.dumps({k: v for k, v in record.items()
                               if k not in timing}, sort_keys=True)

        assert canonical(records[1]) == canonical(records[2])
        assert records[2]["report"] == report_to_dict(held)
        assert text is None
        assert explanation["bound"] == held.worst == 722
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("engine.cache.hits.job") == 2
        assert registry.value("engine.cache.quarantined", None) == 0

    def test_engine_cache_entry_is_a_service_hit(self, tmp_path):
        # engine run and serve key a job's entry with one budget
        # string, so either one answers the other's repeats.
        from repro.engine import AnalysisEngine, AnalysisJob

        (cold,) = AnalysisEngine(workers=1, cache_dir=tmp_path).run(
            [AnalysisJob.from_benchmark("check_data")])
        assert cold.ok and not cold.cache_hit
        with _thread_service(workers=1, cache_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            served = client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=60)
        assert served["cache_hit"]
        assert (served["best"], served["worst"]) == cold.report.interval

    def test_engine_counters_track_finished_jobs(self):
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            for _ in range(2):
                client.wait(client.submit({"benchmark": "check_data"})["id"],
                            timeout=120)
            snapshot = client.metricz()
        assert snapshot["service.jobs.done.ok"]["value"] == 2
        engine = {name: entry for name, entry in snapshot.items()
                  if name.startswith("engine.")}
        assert engine["engine.jobs.ok"]["value"] == 2
        # Every engine.* name was recorded by a job; none sits at 0,
        # and a whole-run gauge has no meaning for a service.
        assert [name for name, entry in engine.items()
                if not entry.get("value", entry.get("count"))] == []
        assert "engine.total_seconds" not in engine
        # Every HTTP job is traced, so its stages come from its spans.
        prefix = "engine.stage_seconds."
        assert sorted(name[len(prefix):] for name in engine
                      if name.startswith(prefix)) == sorted(STAGES)

    def test_process_workers_never_write_the_cache(self, tmp_path):
        with ServiceThread(workers=1, executor="process",
                           cache_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            done = client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=60)
        assert not done["cache_hit"]
        (entry,) = tmp_path.glob("??/*.json")
        assert json.loads(entry.read_text())["kind"] == "job"

    def test_process_pool_runs_no_helper_thread(self):
        # The event-loop thread talks to each worker over its pipe:
        # no executor manager thread or queue feeder thread in between.
        with ServiceThread(workers=2, executor="process") as handle, \
                ServiceClient(port=handle.port) as client:
            done = client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=60)
            threads = {(type(thread).__name__, thread.name)
                       for thread in threading.enumerate()}
        assert done["state"] == "done"
        assert not [(kind, name) for kind, name in threads
                    if kind == "_ExecutorManagerThread"
                    or name == "QueueFeederThread"], threads

    def test_unexpected_error_fails_the_job_not_the_worker(
            self, monkeypatch):
        lower = JobSpec.to_analysis_job

        def defective(spec):
            if spec.name == "defective":
                raise RuntimeError("defect")
            return lower(spec)

        monkeypatch.setattr(JobSpec, "to_analysis_job", defective)
        with _thread_service(workers=2) as handle, \
                ServiceClient(port=handle.port) as client:
            for _ in range(2):
                ticket = client.submit(_src("defective"))
                with pytest.raises(JobFailed, match="internal error"):
                    client.wait(ticket["id"], timeout=30)
            done = client.wait(
                client.submit({"benchmark": "check_data"})["id"],
                timeout=60)
        assert (done["best"], done["worst"]) == (34, 722)

    def test_failed_job_surfaces_as_job_failed(self):
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            ticket = client.submit({"source": "int f() { return 1; }",
                                    "entry": "no_such_routine"})
            with pytest.raises(JobFailed):
                client.wait(ticket["id"], timeout=30)
            with pytest.raises(ClientError, match="HTTP 409"):
                client.explain(ticket["id"])
