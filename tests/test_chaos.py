"""Chaos layer: schedules, the injector, seam behavior, graceful
degradation and the soundness invariants harness."""

import json
import socket
import threading
import time

import pytest

from repro.chaos import (FaultPlan, FaultRule, FaultScheduleError,
                         InjectedFault, inject, verify_journal)
from repro.chaos.inject import Injector, NULL_INJECTOR, POINTS
from repro.engine.cache import ResultCache
from repro.service import (JobJournal, JobQueue, JobRecord, JobSpec,
                           ServiceClient, ServiceDegraded, ServiceThread,
                           ServiceTimeout, ServiceUnavailable)


@pytest.fixture(autouse=True)
def _pristine_injector():
    """No test leaks an installed injector into the next."""
    yield
    inject.reset()


def _src(name, **extra):
    return {"name": name, "source": "int f() { return 1; }",
            "entry": "f", **extra}


def _spec_dict(name):
    return JobSpec.from_dict(_src(name)).to_dict()


def _reopen(root):
    """Replay a journal as a restarting service does, then close its
    WAL again; returns the replayed state."""
    journal = JobJournal(root)
    state = journal.open()
    journal.close()
    return state


# ======================================================================
# Schedule grammar
# ======================================================================
class TestFaultPlan:
    def test_parse_round_trips_canonical_text(self):
        text = ("seed=42,journal.enospc=3,worker.kill=1@0.5,"
                "worker.hang=*~0.05")
        plan = FaultPlan.parse(text)
        assert plan.seed == 42
        assert FaultPlan.parse(plan.to_text()) == plan
        by_point = {rule.point: rule for rule in plan.rules}
        assert by_point["journal.enospc"].count == 3
        assert by_point["worker.kill"].probability == 0.5
        assert by_point["worker.hang"].count is None
        assert by_point["worker.hang"].seconds == 0.05

    @pytest.mark.parametrize("bad", [
        "journal.enospc",                 # not NAME=VALUE
        "seed=x",                         # non-integer seed
        "no.such.point=1",                # unknown point
        "worker.kill=1,worker.kill=2",    # duplicate point
        "worker.kill=1@1.5",              # probability out of range
        "worker.kill=-1",                 # negative count
        "worker.kill=maybe",              # non-integer count
        "worker.hang=1~soon",             # non-numeric seconds
    ])
    def test_bad_schedules_are_rejected(self, bad):
        with pytest.raises(FaultScheduleError):
            FaultPlan.parse(bad)

    def test_every_point_is_parseable(self):
        for point in POINTS:
            plan = FaultPlan.parse(f"seed=1,{point}=1")
            assert plan.rules[0].point == point

    @pytest.mark.parametrize("schedule", [
        "seed=7,peer.partition=1",
        "seed=7,peer.latency=*~0.05",
        "seed=7,peer.error=*",
    ])
    def test_peer_points_are_unknown(self, schedule):
        # The service runs one replica: no seam talks to a peer.
        assert not any(point.startswith("peer.") for point in POINTS)
        with pytest.raises(FaultScheduleError, match="unknown"):
            FaultPlan.parse(schedule)


# ======================================================================
# The injector
# ======================================================================
class TestInjector:
    def test_charges_are_consumed(self):
        injector = Injector(FaultPlan.parse("seed=1,worker.kill=2"))
        with pytest.raises(InjectedFault):
            injector.fire("worker.kill")
        with pytest.raises(InjectedFault):
            injector.fire("worker.kill")
        injector.fire("worker.kill")      # budget exhausted: no-op
        assert injector.counts() == {"worker.kill": 2}

    def test_unlisted_points_never_fire(self):
        injector = Injector(FaultPlan.parse("seed=1,worker.kill=1"))
        assert injector.trip("journal.enospc") is False
        assert injector.delay("worker.hang") == 0.0
        assert injector.budget("solver.budget", 5.0) == 5.0

    def test_probability_sequence_is_seed_deterministic(self):
        def sequence(seed):
            injector = Injector(FaultPlan.parse(
                f"seed={seed},cache.read=*@0.5"))
            return [injector.trip("cache.read") for _ in range(64)]

        assert sequence(7) == sequence(7)
        assert sequence(7) != sequence(8)   # astronomically unlikely
        assert any(sequence(7)) and not all(sequence(7))

    def test_points_draw_independent_streams(self):
        """Traffic at one point must not shift another's decisions."""
        lone = Injector(FaultPlan.parse(
            "seed=3,cache.read=*@0.5,journal.write=*@0.5"))
        noisy = Injector(FaultPlan.parse(
            "seed=3,cache.read=*@0.5,journal.write=*@0.5"))
        for _ in range(50):                 # interleaved arrivals
            noisy.trip("journal.write")
        assert [lone.trip("cache.read") for _ in range(20)] \
            == [noisy.trip("cache.read") for _ in range(20)]

    def test_injected_fault_carries_real_errno(self):
        import errno

        injector = Injector(FaultPlan.parse("seed=1,journal.enospc=1"))
        with pytest.raises(InjectedFault) as excinfo:
            injector.fire("journal.enospc")
        assert excinfo.value.errno == errno.ENOSPC
        assert isinstance(excinfo.value, OSError)

    def test_free_functions_follow_install_and_reset(self):
        assert inject.active() is NULL_INJECTOR
        assert inject.trip("worker.kill") is False
        inject.install("seed=1,worker.kill=1")
        with pytest.raises(InjectedFault):
            inject.fire("worker.kill")
        inject.reset()
        inject.fire("worker.kill")          # null again: no-op
        assert inject.active() is NULL_INJECTOR

    def test_corrupt_is_a_pure_function_of_the_text(self):
        injector = Injector(FaultPlan.parse("seed=1,cache.read=2"))
        text = json.dumps({"kind": "set", "result": [1, 2, 3]})
        first = injector.corrupt("cache.read", text)
        assert first != text
        assert injector.corrupt("cache.read", text) == first
        assert injector.corrupt("cache.read", text) == text  # exhausted

    def test_attach_publishes_counter_and_event(self):
        from repro.obs import EventBus, MetricsRegistry

        bus = EventBus()
        registry = MetricsRegistry()
        subscription = bus.subscribe()
        injector = Injector(FaultPlan.parse("seed=1,worker.kill=1"))
        injector.attach(bus=bus, registry=registry)
        with pytest.raises(InjectedFault):
            injector.fire("worker.kill")
        assert registry.value("chaos.worker.kill") == 1
        fault = [e for e in subscription.pop_all()
                 if e["type"] == "chaos_fault"]
        assert fault and fault[0]["point"] == "worker.kill"


# ======================================================================
# Cache integrity: hash verification and quarantine
# ======================================================================
def _report(worst=10, best=2):
    from repro.analysis.report import BoundReport, SetResult
    from repro.ilp import Status

    result = SetResult(index=0, status=Status.OPTIMAL,
                       worst=float(worst), best=float(best))
    return BoundReport(entry="f", machine="m", best=best, worst=worst,
                       set_results=[result], sets_total=1, sets_pruned=0)


class TestCacheQuarantine:
    def test_corrupt_entry_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_report("k1", _report())
        # Flip one byte on disk, as a bad sector would.
        (entry,) = list(tmp_path.glob("??/*.json"))
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0xFF
        entry.write_bytes(bytes(data))

        assert cache.get_report("k1") is None
        assert cache.quarantined == 1
        assert not entry.exists()
        assert list((tmp_path / "quarantine").iterdir())
        # The slot is free again: a recompute repopulates it.
        cache.put_report("k1", _report())
        loaded = cache.get_report("k1")
        assert loaded.interval == (2, 10)

    def test_injected_bitflip_is_caught_by_the_digest(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_report("k1", _report())
        inject.install("seed=1,cache.read=1")
        assert cache.get_report("k1") is None       # corrupted read
        assert cache.quarantined == 1
        cache.put_report("k2", _report(worst=3, best=1))
        loaded = cache.get_report("k2")             # charge spent
        assert loaded.interval == (1, 3)

    def test_legacy_unsealed_entries_still_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_report("k1", _report())
        (entry,) = list(tmp_path.glob("??/*.json"))
        payload = json.loads(entry.read_text())
        del payload["sha256"]                       # pre-digest format
        entry.write_text(json.dumps(payload))
        loaded = cache.get_report("k1")
        assert loaded.interval == (2, 10)

    def test_quarantine_is_excluded_from_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_report("k1", _report())
        cache.put_report("k2", _report(worst=3, best=1))
        inject.install("seed=1,cache.read=1")
        cache.get_report("k1")
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.quarantined == 1
        assert cache.clear() == 1                   # live entry only
        assert list((tmp_path / "quarantine").iterdir())


# ======================================================================
# Journal: failed appends, repair, probe recovery
# ======================================================================
class TestJournalUnderFaults:
    def test_failed_append_returns_none_and_sets_last_error(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        inject.install("seed=1,journal.enospc=1")
        assert journal.append("submit", id="j000001",
                              spec=_spec_dict("a")) is None
        assert journal.last_error is not None
        assert journal.write_errors == 1
        journal.close()
        # The failed frame left no trace: replay sees an empty log.
        assert _reopen(tmp_path).jobs == {}

    def test_probe_recovers_and_later_appends_survive(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        inject.install("seed=1,journal.enospc=1")
        assert journal.append("submit", id="j000001",
                              spec=_spec_dict("a")) is None
        assert journal.probe() is True              # charge spent
        assert journal.last_error is None
        assert journal.append("submit", id="j000002",
                              spec=_spec_dict("b")) is not None
        journal.close()
        state = _reopen(tmp_path)
        assert sorted(state.jobs) == ["j000002"]

    def test_torn_frame_is_repaired_in_place(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"))
        inject.install("seed=1,journal.torn=1")
        assert journal.append("submit", id="j000002",
                              spec=_spec_dict("b")) is None
        # The half-written frame was truncated away: the next append
        # lands on a clean boundary and replay sees no torn tail.
        assert journal.append("submit", id="j000003",
                              spec=_spec_dict("c")) is not None
        journal.close()
        state = _reopen(tmp_path)
        assert not state.tail_dropped
        assert sorted(state.jobs) == ["j000001", "j000003"]

    def test_open_truncates_a_crash_torn_tail(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"))
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"))
        journal.close()
        wal = tmp_path / "journal.wal"
        intact = wal.stat().st_size
        wal.write_bytes(wal.read_bytes() + b"\x13\x00\x00\x00garbage")

        journal = JobJournal(tmp_path)
        journal.open()
        # The torn bytes are gone from disk, not merely skipped: an
        # append after recovery extends a well-formed log.
        journal.append("submit", id="j000003",
                       spec=_spec_dict("c"))
        journal.close()
        assert wal.stat().st_size > intact
        state = _reopen(tmp_path)
        assert not state.tail_dropped
        assert sorted(state.jobs) == ["j000001", "j000002", "j000003"]

    def test_open_removes_stale_snapshot_tmp(self, tmp_path):
        stale = tmp_path / "snapshot.json.tmp"
        tmp_path.mkdir(exist_ok=True)
        stale.write_text('{"schema": 1, "jo')
        journal = JobJournal(tmp_path)
        journal.open()
        journal.close()
        assert not stale.exists()

    def test_failed_snapshot_write_cleans_up_tmp(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"))
        real_replace = __import__("os").replace

        def boom(src, dst):
            raise OSError(28, "no space")

        __import__("os").replace = boom
        try:
            with pytest.raises(OSError):
                journal.compact({"j000001": {"state": "queued",
                                             "spec": _spec_dict("a")}})
        finally:
            __import__("os").replace = real_replace
        assert not (tmp_path / "snapshot.json.tmp").exists()
        journal.close()


class TestQueueRemove:
    def _record(self, name, priority=0):
        return JobRecord(id=name,
                         spec=JobSpec.from_dict(
                             _src(name, priority=priority)))

    def test_remove_withdraws_only_the_target(self):
        queue = JobQueue()
        records = [self._record(f"j{n}") for n in range(4)]
        for record in records:
            queue.push(record)
        assert queue.remove(records[1]) is True
        assert queue.remove(records[1]) is False    # already gone
        popped = []
        while queue.depth:
            popped.append(queue.pop_nowait().id)
        assert popped == ["j0", "j2", "j3"]         # order preserved

    def test_remove_keeps_heap_invariant_under_priorities(self):
        queue = JobQueue()
        records = [self._record(f"j{n}", priority=n % 3)
                   for n in range(9)]
        for record in records:
            queue.push(record)
        queue.remove(records[4])
        priorities = []
        while queue.depth:
            priorities.append(queue.pop_nowait().spec.priority)
        assert priorities == sorted(priorities, reverse=True)


# ======================================================================
# Client timeouts
# ======================================================================
class _HungServer(threading.Thread):
    """Accepts a connection, then never answers."""

    def __init__(self):
        super().__init__(daemon=True)
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(1)
        self.port = self.sock.getsockname()[1]
        self._halt = threading.Event()

    def run(self):
        self.sock.settimeout(0.1)
        conns = []
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
                conns.append(conn)          # hold it open, say nothing
            except socket.timeout:
                continue
        for conn in conns:
            conn.close()
        self.sock.close()

    def stop(self):
        self._halt.set()
        self.join()


class TestServiceTimeout:
    def test_hung_server_raises_typed_timeout(self):
        server = _HungServer()
        server.start()
        try:
            with ServiceClient(port=server.port, timeout=0.2) as client:
                clock = time.monotonic()
                with pytest.raises(ServiceTimeout) as excinfo:
                    client.healthz()
                elapsed = time.monotonic() - clock
            # One timeout, not two: no stale-reuse retry for a hang.
            assert elapsed < 1.0
            assert excinfo.value.retry_after > 0
            assert isinstance(excinfo.value, ServiceUnavailable)
        finally:
            server.stop()

    def test_submit_retry_retries_timeouts(self):
        calls = []

        class FlakyClient(ServiceClient):
            def submit(self, spec):
                calls.append(spec)
                if len(calls) < 3:
                    raise ServiceTimeout("hung")
                return {"id": "j000001", "state": "queued"}

        client = FlakyClient()
        sleeps = []
        result = client.submit_retry(
            {"benchmark": "check_data"}, attempts=5,
            _sleep=sleeps.append, _random=lambda lo, hi: hi)
        assert result["id"] == "j000001"
        assert len(calls) == 3
        assert len(sleeps) == 2
        assert sleeps[1] > sleeps[0]        # backoff grows

    def test_submit_retry_exhaustion_reraises(self):
        class DeadClient(ServiceClient):
            def submit(self, spec):
                raise ServiceTimeout("hung")

        with pytest.raises(ServiceTimeout):
            DeadClient().submit_retry({"benchmark": "x"}, attempts=2,
                                      _sleep=lambda s: None)


# ======================================================================
# Graceful degradation end to end
# ======================================================================
class TestDegradedMode:
    def test_journal_failure_degrades_then_recovers(self, tmp_path):
        plan = FaultPlan.parse("seed=1,journal.enospc=2")
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache",
                           chaos=plan) as handle, \
                ServiceClient(port=handle.port) as client:
            # First charge fails the submit frame: 503 + rollback.
            with pytest.raises(ServiceUnavailable):
                client.submit(_src("a"))
            health = client.healthz()
            assert health["status"] == "degraded"
            assert "journal" in health["degraded_reason"]
            # Housekeeping probes burn the second charge, then the
            # journal heals; automatic recovery follows.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.healthz()["status"] == "ok":
                    break
                time.sleep(0.05)
            assert client.healthz()["status"] == "ok"
            record = client.wait(client.submit(_src("b"))["id"],
                                 timeout=30)
            assert record["state"] == "done"
        # Nothing half-admitted leaked into the journal.
        report = verify_journal(tmp_path / "journal")
        assert report.ok, report.render()

    def test_recovery_is_published_and_clears_the_gauge(self, tmp_path):
        # The degraded-mode signals: one bus event on entry and one on
        # recovery, the entered counter, the level gauge back at 0 and
        # no degraded_reason on /healthz once writes succeed.
        plan = FaultPlan.parse("seed=1,journal.enospc=2")
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache",
                           chaos=plan) as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(ServiceDegraded):
                client.submit(_src("a"))
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                health = client.healthz()
                if health["status"] == "ok":
                    break
                time.sleep(0.05)
            snapshot = client.metricz()
            events = [event for event in handle.service.bus.replay(0)
                      if event["type"] in ("service_degraded",
                                           "service_recovered")]
        assert health["status"] == "ok"
        assert "degraded_reason" not in health
        assert [event["type"] for event in events] \
            == ["service_degraded", "service_recovered"]
        assert "journal" in events[0]["reason"]
        assert snapshot["service.degraded"]["value"] == 0
        assert snapshot["service.degraded.entered"]["value"] == 1

    def test_degraded_serves_finished_bounds_read_only(self, tmp_path):
        plan = FaultPlan.parse("seed=1,journal.enospc=1000000")
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache",
                           chaos=plan) as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(ServiceUnavailable) as excinfo:
                client.submit(_src("a"))
            assert "read-only" in str(excinfo.value)
            # Reads keep working while degraded.
            assert client.healthz()["status"] == "degraded"
            snapshot = client.metricz()
            assert snapshot["service.degraded"]["value"] == 1
            assert snapshot["service.degraded.entered"]["value"] == 1

    def test_degraded_503_is_typed_and_carries_retry_after(
            self, tmp_path):
        plan = FaultPlan.parse("seed=1,journal.enospc=1000000")
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache",
                           chaos=plan) as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(ServiceDegraded) as excinfo:
                client.submit(_src("a"))
            # Retryable, with the server's Retry-After hint — unlike
            # the draining 503, which stays a bare ServiceUnavailable.
            assert excinfo.value.retry_after == 2.0

    def test_submit_retry_rides_through_degraded_mode(self, tmp_path):
        plan = FaultPlan.parse("seed=1,journal.enospc=2")
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache",
                           chaos=plan) as handle, \
                ServiceClient(port=handle.port) as client:
            # First attempt eats the 503; housekeeping probes burn the
            # second charge (~0.25s cadence) and recover the journal,
            # so a later backoff attempt is admitted normally.
            ticket = client.submit_retry(_src("a"),
                                         _random=lambda a, b: 0.3)
            record = client.wait(ticket["id"], timeout=60)
            assert record["state"] == "done"
        report = verify_journal(tmp_path / "journal")
        assert report.ok, report.render()

    def test_worker_kill_is_retried_transparently(self, tmp_path):
        plan = FaultPlan.parse("seed=1,worker.kill=1")
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache",
                           chaos=plan) as handle, \
                ServiceClient(port=handle.port) as client:
            record = client.wait(client.submit(_src("a"))["id"],
                                 timeout=60)
            assert record["state"] == "done"
            snapshot = client.metricz()
            assert snapshot["service.retries"]["value"] >= 1
            assert snapshot["chaos.worker.kill"]["value"] == 1


# ======================================================================
# Invariants harness
# ======================================================================
class TestInvariants:
    def _journal_with(self, tmp_path, frames):
        journal = JobJournal(tmp_path)
        journal.open()
        for kind, payload in frames:
            journal.append(kind, **payload)
        journal.close()

    def test_clean_journal_passes(self, tmp_path):
        self._journal_with(tmp_path, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
            ("start", {"id": "j000001"}),
            ("fail", {"id": "j000001", "status": "failed",
                      "error": "boom"}),
        ])
        report = verify_journal(tmp_path)
        assert report.ok
        assert report.jobs == 1

    def test_lost_job_is_flagged(self, tmp_path):
        self._journal_with(tmp_path, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
            ("start", {"id": "j000001"}),
        ])
        report = verify_journal(tmp_path)
        assert not report.ok
        assert report.violations[0].kind == "lost"
        assert verify_journal(tmp_path, require_terminal=False).ok

    def test_duplicate_submit_is_flagged(self, tmp_path):
        self._journal_with(tmp_path, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
            ("fail", {"id": "j000001", "status": "failed",
                      "error": "x"}),
        ])
        report = verify_journal(tmp_path)
        assert any(v.kind == "duplicate" for v in report.violations)

    def test_orphan_frame_is_flagged(self, tmp_path):
        self._journal_with(tmp_path, [
            ("start", {"id": "j000009"}),
        ])
        report = verify_journal(tmp_path, require_terminal=False)
        assert any(v.kind == "orphan" for v in report.violations)

    def test_divergent_terminal_frames_are_flagged(self, tmp_path):
        self._journal_with(tmp_path, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
            ("complete", {"id": "j000001", "status": "ok",
                          "cache_hit": False, "report": None}),
            ("fail", {"id": "j000001", "status": "failed",
                      "error": "late"}),
        ])
        report = verify_journal(tmp_path)
        assert any(v.kind == "divergent" for v in report.violations)

    def test_agreeing_duplicate_terminals_are_allowed(self, tmp_path):
        # Earlier versions could complete a job twice (a peer lease
        # expired and both replicas ran it) — with the bit-identical
        # result, thanks to the idempotent engine.
        self._journal_with(tmp_path, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
            ("complete", {"id": "j000001", "status": "ok",
                          "cache_hit": False, "report": None}),
            ("complete", {"id": "j000001", "status": "ok",
                          "cache_hit": False, "report": None}),
        ])
        report = verify_journal(tmp_path, serial=False,
                                witnesses=False)
        assert report.ok, report.render()

    def test_lent_job_holds_no_queue_slot(self, tmp_path):
        # Earlier versions journaled a job lent to a peer replica as a
        # ``lease`` frame, and stamped each submit with its tenant; such
        # a journal audits clean.
        journal_dir = tmp_path / "journal"
        self._journal_with(journal_dir, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a"),
                        "tenant": "ci"}),
            ("lease", {"id": "j000001", "peer": "127.0.0.1:8788"}),
            ("submit", {"id": "j000002", "spec": _spec_dict("b"),
                        "tenant": "ci"}),
            ("complete", {"id": "j000001", "status": "ok",
                          "cache_hit": False, "report": None}),
            ("start", {"id": "j000002"}),
            ("fail", {"id": "j000002", "status": "failed",
                      "error": "boom"}),
        ])
        report = verify_journal(journal_dir, serial=False,
                                witnesses=False)
        assert report.ok, report.render()
        assert report.frames == 6

    def test_tampered_bound_is_caught_by_serial_resolve(self, tmp_path):
        # Produce a genuine journal, then forge the worst bound.
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache") as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait(client.submit(
                {"benchmark": "check_data"})["id"], timeout=60)
        journal_dir = tmp_path / "journal"
        assert verify_journal(journal_dir).ok
        snapshot = journal_dir / "snapshot.json"
        data = json.loads(snapshot.read_text())
        (job,) = data["jobs"].values()
        job["report"]["worst"] -= 1          # an unsound "bound"
        snapshot.write_text(json.dumps(data))
        report = verify_journal(journal_dir)
        assert any(v.kind == "bound" for v in report.violations)

    def test_tampered_witness_is_caught(self, tmp_path):
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache") as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait(client.submit(
                {"benchmark": "check_data"})["id"], timeout=60)
        journal_dir = tmp_path / "journal"
        snapshot = journal_dir / "snapshot.json"
        data = json.loads(snapshot.read_text())
        (job,) = data["jobs"].values()
        counts = job["report"]["set_results"][0]["worst_counts"]
        variable = next(iter(counts))
        counts[variable] += 1                # no longer a solution
        snapshot.write_text(json.dumps(data))
        report = verify_journal(journal_dir, serial=False)
        assert any(v.kind == "witness" for v in report.violations)

    def test_report_renders_and_serializes(self, tmp_path):
        self._journal_with(tmp_path, [
            ("submit", {"id": "j000001", "spec": _spec_dict("a")}),
        ])
        report = verify_journal(tmp_path)
        text = report.render()
        assert "violation" in text
        data = report.to_dict()
        assert data["ok"] is False
        assert data["violations"][0]["kind"] == "lost"


# ======================================================================
# Same seed, same faults: the replayability contract end to end
# ======================================================================
class TestReplayability:
    def test_same_plan_fires_the_same_sequence(self, tmp_path):
        def run(label):
            inject.install("seed=11,journal.enospc=2,cache.read=1")
            journal = JobJournal(tmp_path / label)
            journal.open()
            outcomes = []
            for n in range(5):
                frame = journal.append("submit", id=f"j{n:06d}",
                                       spec=_spec_dict(f"x{n}"))
                outcomes.append(frame is not None)
            journal.close()
            counts = inject.active().counts()
            inject.reset()
            return outcomes, counts

        first = run("a")
        second = run("b")
        assert first == second
        assert first[1] == {"journal.enospc": 2}
