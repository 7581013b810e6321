"""Durable cluster layer: journal replay, tenancy, work sharing.

Journal semantics are tested at the file level (torn tails, duplicate
frames, crash-during-compaction) and end-to-end (a service restarted
on a journal re-dispatches recovered jobs).  Tenancy and peer stealing
use the same deterministic gated-runner embedding as
``tests/test_service.py``.
"""

import json
import threading
import time

import pytest

from repro.engine.jobs import JobResult
from repro.obs import MetricsRegistry
from repro.service import (ClientError, JobJournal, JobQueue, JobRecord,
                           JobSpec, JournalError, ServiceClient,
                           ServiceSaturated, ServiceThread,
                           TenantConfigError, TenantRegistry)
from repro.service.durable.journal import MAGIC, apply_record


class GatedRunner:
    """A fake engine runner the test can hold and release."""

    def __init__(self, delay: float = 0.0):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.delay = delay
        self.payloads = []
        self._lock = threading.Lock()

    def __call__(self, payload):
        with self._lock:
            self.payloads.append(payload)
        self.started.set()
        if not self.gate.wait(timeout=30):
            raise TimeoutError("test never released the gate")
        if self.delay:
            time.sleep(self.delay)
        return JobResult(payload[0].name, "ok")

    @property
    def names(self):
        with self._lock:
            return [payload[0].name for payload in self.payloads]


def _thread_service(**kwargs):
    kwargs.setdefault("executor", "thread")
    return ServiceThread(**kwargs)


def _src(name, **extra):
    return {"name": name, "source": "int f() { return 1; }",
            "entry": "f", **extra}


def _spec_dict(name):
    return JobSpec.from_dict(_src(name)).to_dict()


# ======================================================================
# Journal: frames, replay, compaction
# ======================================================================
class TestJournalReplay:
    def test_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"), tenant=None)
        journal.append("start", id="j000001")
        journal.append("set_done", id="j000001", set=0,
                       worst=10, best=2, feasible=True)
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"), tenant="ci")
        journal.append("start", id="j000002")
        journal.append("submit", id="j000003",
                       spec=_spec_dict("c"), tenant=None)
        journal.close()

        state = JobJournal(tmp_path).open()
        assert not state.tail_dropped
        assert state.set_records == 1
        jobs = state.jobs
        assert jobs["j000001"]["state"] == "done"
        assert jobs["j000001"]["status"] == "ok"
        assert jobs["j000002"]["state"] == "running"
        assert jobs["j000002"]["tenant"] == "ci"
        assert jobs["j000003"]["state"] == "queued"

    def test_complete_frame_without_refuted_flags_replays(self, tmp_path):
        # A report journaled before propagation could refute a set has
        # no "refuted" key in its sets' stats.
        from repro.engine.cache import report_to_dict
        from repro.programs import get_benchmark

        report = get_benchmark("dhry").make_analysis().estimate()
        older = report_to_dict(report)
        for entry in older["set_results"]:
            del entry["stats"]["refuted"]
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001", spec=_spec_dict("a"),
                       tenant=None)
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=older)
        journal.close()
        state = JobJournal(tmp_path).open()
        record = JobRecord.from_journal("j000001", state.jobs["j000001"])
        assert record.report.interval == report.interval
        assert not any(r.stats.refuted for r in record.report.set_results)

    def test_truncated_tail_frame_drops_only_the_tail(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        for n in range(4):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"), tenant=None)
        journal.close()
        # Tear the last frame mid-payload, as a crash mid-append would.
        wal = tmp_path / "journal.wal"
        wal.write_bytes(wal.read_bytes()[:-7])

        state = JobJournal(tmp_path).open()
        assert state.tail_dropped
        assert sorted(state.jobs) == ["j000000", "j000001", "j000002"]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"), tenant=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"), tenant=None)
        journal.close()
        wal = tmp_path / "journal.wal"
        data = bytearray(wal.read_bytes())
        data[-1] ^= 0xFF                       # flip a payload byte
        wal.write_bytes(bytes(data))

        state = JobJournal(tmp_path).open()
        assert state.tail_dropped
        assert sorted(state.jobs) == ["j000001"]

    def test_duplicate_records_replay_idempotently(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        for _ in range(3):                     # replayed WAL segment
            journal.append("submit", id="j000001",
                           spec=_spec_dict("a"), tenant=None)
            journal.append("start", id="j000001")
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=True, report=None)
        journal.append("start", id="j000001")  # late duplicate
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=True, report=None)
        journal.close()

        state = JobJournal(tmp_path).open()
        assert list(state.jobs) == ["j000001"]
        job = state.jobs["j000001"]
        assert job["state"] == "done" and job["cache_hit"] is True

    def test_terminal_state_is_monotonic(self):
        jobs = {}
        apply_record(jobs, {"type": "submit", "id": "j1",
                            "spec": {}, "tenant": None})
        apply_record(jobs, {"type": "fail", "id": "j1",
                            "status": "failed", "error": "boom"})
        apply_record(jobs, {"type": "start", "id": "j1"})
        apply_record(jobs, {"type": "lease", "id": "j1", "peer": "p"})
        assert jobs["j1"]["state"] == "failed"
        assert jobs["j1"]["error"] == "boom"

    def test_crash_during_compaction_recovers_consistently(self,
                                                           tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"), tenant=None)
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"), tenant=None)
        state = JobJournal(tmp_path).open().jobs
        # Crash window: snapshot renamed into place, WAL not yet
        # truncated — every WAL record is already folded into the
        # snapshot.
        journal._write_snapshot(state)
        journal.close()
        assert (tmp_path / "snapshot.json").exists()

        replayed = JobJournal(tmp_path).open()
        assert replayed.jobs["j000001"]["state"] == "done"
        assert replayed.jobs["j000002"]["state"] == "queued"
        assert len(replayed.jobs) == 2

    def test_partial_snapshot_tmp_is_ignored(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"), tenant=None)
        journal.close()
        # Crash mid-snapshot-write: a torn temp file, never renamed.
        (tmp_path / "snapshot.json.tmp").write_text('{"schema": 1, "jo')

        state = JobJournal(tmp_path).open()
        assert state.jobs["j000001"]["state"] == "queued"

    def test_compaction_resets_wal_and_preserves_state(self, tmp_path):
        journal = JobJournal(tmp_path, compact_records=4)
        journal.open()
        for n in range(6):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"), tenant=None)
        assert journal.should_compact()
        state = {f"j{n:06d}": {"spec": _spec_dict(f"job{n}"),
                               "state": "queued", "tenant": None}
                 for n in range(6)}
        journal.compact(state)
        assert journal.wal_bytes == len(MAGIC)
        journal.append("complete", id="j000000", status="ok",
                       cache_hit=False, report=None)
        journal.close()

        replayed = JobJournal(tmp_path).open()
        assert len(replayed.jobs) == 6
        assert replayed.jobs["j000000"]["state"] == "done"
        assert replayed.jobs["j000005"]["state"] == "queued"

    def test_compaction_work_is_linear_in_jobs(self, tmp_path):
        # Every snapshot rewrites every job, so compacting on a fixed
        # frame count alone would rewrite the table once per 2 jobs
        # here (200 compactions); waiting for the WAL to reach the
        # snapshot's size makes the snapshots grow geometrically.
        journal = JobJournal(tmp_path, compact_records=4)
        journal.open()
        jobs = {}
        report = {"entry": "f", "best": 1, "worst": 2, "set_results": [
            {"index": n, "best": 1.0, "worst": 2.0} for n in range(4)]}
        for n in range(400):
            job_id = f"j{n:06d}"
            apply_record(jobs, journal.append(
                "submit", durable=True, id=job_id,
                spec=_spec_dict(f"job{n}"), tenant=None))
            apply_record(jobs, journal.append(
                "complete", id=job_id, status="ok", cache_hit=False,
                report=report))
            if journal.should_compact():
                journal.compact(jobs)
        assert 1 <= journal.compactions <= 12
        journal.compact(jobs)
        journal.close()
        assert (tmp_path / "snapshot.json").read_text() == json.dumps(
            {"schema": 1, "jobs": jobs}, separators=(",", ":"))
        # A reopened journal knows the snapshot's size: 400 more
        # frames stay below it.
        reopened = JobJournal(tmp_path, compact_records=4)
        assert len(reopened.open().jobs) == 400
        for _ in range(400):
            reopened.append("noop", durable=True)
        assert not reopened.should_compact()
        reopened.close()

    def test_foreign_magic_is_rejected(self, tmp_path):
        (tmp_path / "journal.wal").write_bytes(b"NOTAJRNL" + b"x" * 32)
        with pytest.raises(JournalError, match="magic"):
            JobJournal(tmp_path).open()


# ======================================================================
# Service recovery from a journal
# ======================================================================
class TestRecovery:
    def _seed_journal(self, root):
        """A prior service life: one finished job, one queued, one
        mid-flight when the process died."""
        journal = JobJournal(root)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("finished"), tenant=None)
        journal.append("start", id="j000001")
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("queued"), tenant=None)
        journal.append("submit", id="j000003",
                       spec=_spec_dict("inflight"), tenant=None)
        journal.append("start", id="j000003")
        journal.close()

    def test_restart_redispatches_queued_and_inflight(self, tmp_path):
        self._seed_journal(tmp_path)
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle:
            client = ServiceClient(port=handle.port)
            # Recovered jobs finish; the finished one is not re-run.
            queued = client.wait("j000002", timeout=30)
            inflight = client.wait("j000003", timeout=30)
            finished = client.job("j000001")
            assert queued["state"] == "done" and queued["recovered"]
            assert inflight["state"] == "done" and inflight["recovered"]
            assert finished["state"] == "done"
            # Id sequence resumes beyond the journal's high-water mark.
            fresh = client.submit(_src("fresh"))
            assert fresh["id"] == "j000004"
            client.wait("j000004", timeout=30)
            snapshot = client.metricz()
        assert sorted(runner.names) == ["fresh", "inflight", "queued"]
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.jobs.recovered") == 2

    def test_recovered_queue_preserves_submission_order(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        for n in (1, 2, 3):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"), tenant=None)
        journal.close()
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle:
            client = ServiceClient(port=handle.port)
            for n in (1, 2, 3):
                client.wait(f"j{n:06d}", timeout=30)
        assert runner.names == ["job1", "job2", "job3"]

    def test_recovery_exceeding_queue_depth_still_boots(self, tmp_path):
        """A journal can hold more live jobs than the queue cap (a full
        queue plus in-flight work at crash time); recovery must admit
        them all instead of failing every restart with 429's error."""
        journal = JobJournal(tmp_path)
        journal.open()
        for n in range(5):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"), tenant=None)
        journal.append("start", id="j000004")   # running at crash
        journal.close()
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner, queue_depth=2,
                             journal_dir=tmp_path) as handle:
            client = ServiceClient(port=handle.port)
            for n in range(5):
                record = client.wait(f"j{n:06d}", timeout=30)
                assert record["state"] == "done" and record["recovered"]

    def test_drain_compacts_for_a_fast_restart(self, tmp_path):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle:
            client = ServiceClient(port=handle.port)
            client.wait(client.submit(_src("one"))["id"], timeout=30)
        # Drain folded everything into the snapshot and reset the WAL.
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["jobs"]["j000001"]["state"] == "done"
        assert (tmp_path / "journal.wal").stat().st_size == len(MAGIC)
        state = JobJournal(tmp_path).open()
        assert state.jobs["j000001"]["state"] == "done"


# ======================================================================
# Tenancy: keys, quotas, rate limits, fair share
# ======================================================================
def _tenants_file(tmp_path, text):
    path = tmp_path / "tenants.toml"
    path.write_text(text)
    return path


class TestTenants:
    def test_load_toml_and_json(self, tmp_path):
        toml = _tenants_file(tmp_path, '[ci]\nkey = "s1"\nweight = 2.0\n')
        registry = TenantRegistry.load(toml)
        assert registry.authenticate("s1").name == "ci"
        json_path = tmp_path / "tenants.json"
        json_path.write_text('{"adhoc": {"key": "s2", "rate": 1.5}}')
        registry = TenantRegistry.load(json_path)
        assert registry.authenticate("s2").rate == 1.5
        assert registry.authenticate("nope") is None

    @pytest.mark.parametrize("text", [
        "",                                       # empty
        "[ci]\nweight = 1.0\n",                   # no key
        '[ci]\nkey = "s"\nfrobnicate = 1\n',      # unknown setting
        '[ci]\nkey = "s"\nweight = 0.0\n',        # bad weight
        '[a]\nkey = "s"\n[b]\nkey = "s"\n',       # duplicate key
    ])
    def test_bad_tenant_files(self, tmp_path, text):
        with pytest.raises(TenantConfigError):
            TenantRegistry.load(_tenants_file(tmp_path, text))

    def test_unknown_key_is_401(self, tmp_path):
        tenants = _tenants_file(tmp_path, '[ci]\nkey = "secret"\n')
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             tenants=tenants) as handle:
            with pytest.raises(ClientError, match="HTTP 401"):
                ServiceClient(port=handle.port).submit(_src("anon"))
            with pytest.raises(ClientError, match="HTTP 401"):
                ServiceClient(port=handle.port,
                              api_key="wrong").submit(_src("bad"))
            client = ServiceClient(port=handle.port, api_key="secret")
            record = client.wait(client.submit(_src("ok"))["id"],
                                 timeout=30)
            assert record["tenant"] == "ci"

    def test_max_queued_quota_is_429(self, tmp_path):
        tenants = _tenants_file(
            tmp_path, '[ci]\nkey = "secret"\nmax_queued = 1\n')
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner,
                             tenants=tenants) as handle:
            client = ServiceClient(port=handle.port, api_key="secret")
            client.submit(_src("inflight"))
            assert runner.started.wait(timeout=10)
            client.submit(_src("queued"))          # fills the quota
            with pytest.raises(ServiceSaturated):
                client.submit(_src("over-quota"))
            runner.gate.set()
            snapshot = client.metricz()
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.jobs.throttled") == 1
        assert "over-quota" not in runner.names

    def test_submit_rate_limit_is_429_with_retry_after(self, tmp_path):
        tenants = _tenants_file(
            tmp_path, '[ci]\nkey = "secret"\nrate = 0.5\nburst = 1\n')
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             tenants=tenants) as handle:
            client = ServiceClient(port=handle.port, api_key="secret")
            client.submit(_src("first"))
            with pytest.raises(ServiceSaturated) as excinfo:
                client.submit(_src("rate-limited"))
            assert excinfo.value.retry_after >= 1

    def test_quota_rejection_does_not_burn_a_rate_token(self):
        from repro.service.durable.tenants import Tenant

        registry = TenantRegistry([Tenant(
            name="ci", key="k", max_queued=1, rate=0.001, burst=1.0)])
        tenant = registry.tenants["ci"]
        registry.note_queued("ci")              # at the queue cap
        rejected = registry.admit(tenant)
        assert not rejected.ok and "queued" in rejected.reason
        registry.note_dequeued("ci")            # a slot frees up
        # The quota bounce above must not have consumed the single
        # token: this admission still succeeds on it...
        assert registry.admit(tenant).ok
        # ...and only now is the bucket empty.
        throttled = registry.admit(tenant)
        assert not throttled.ok and "rate" in throttled.reason
        import asyncio

        registry = TenantRegistry([
            # heavy pays 1/2 pass per job, light pays 1.
            __import__("repro.service.durable.tenants",
                       fromlist=["Tenant"]).Tenant(
                name="heavy", key="h", weight=2.0),
            __import__("repro.service.durable.tenants",
                       fromlist=["Tenant"]).Tenant(
                name="light", key="l", weight=1.0),
        ])

        async def scenario():
            queue = JobQueue()
            for tenant, name in (("heavy", "h1"), ("light", "l1"),
                                 ("heavy", "h2"), ("light", "l2"),
                                 ("heavy", "h3"), ("light", "l3")):
                record = JobRecord(
                    id=name, spec=JobSpec(name=name, benchmark=name),
                    tenant=tenant)
                record.fair_pass = registry.next_pass(tenant)
                queue.push(record)
            return [(await queue.pop()).id for _ in range(6)]

        order = asyncio.run(scenario())
        # Strides: heavy 0.5/1.0/1.5, light 1.0/2.0/3.0 — under
        # contention the weight-2 tenant drains twice as fast.
        assert order == ["h1", "l1", "h2", "h3", "l2", "l3"]


# ======================================================================
# Peer work sharing
# ======================================================================
class TestWorkSharing:
    def test_claim_leases_queued_jobs(self):
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner) as handle:
            client = ServiceClient(port=handle.port)
            client.submit(_src("inflight"))
            assert runner.started.wait(timeout=10)
            client.submit(_src("stealme-1"))
            client.submit(_src("stealme-2"))

            jobs = client.peer_claim(limit=5, peer="test-peer")
            assert [job["spec"]["name"] for job in jobs] \
                == ["stealme-1", "stealme-2"]
            for job in jobs:
                record = client.job(job["id"])
                assert record["state"] == "leased"
                assert record["leased_to"] == "test-peer"
            assert client.peer_claim(limit=5) == []   # queue is empty

            # Journal handoff: completing folds the result in once.
            first = client.peer_complete(
                {"id": jobs[0]["id"], "state": "done", "status": "ok",
                 "peer": "test-peer"})
            assert first == {"state": "done", "duplicate": False}
            again = client.peer_complete(
                {"id": jobs[0]["id"], "state": "done", "status": "ok",
                 "peer": "test-peer"})
            assert again == {"state": "done", "duplicate": True}
            failed = client.peer_complete(
                {"id": jobs[1]["id"], "state": "failed",
                 "error": "peer exploded", "peer": "test-peer"})
            assert failed["state"] == "failed"
            with pytest.raises(ClientError, match="HTTP 404"):
                client.peer_complete({"id": "j999999",
                                      "state": "done",
                                      "peer": "test-peer"})

            assert client.job(jobs[0]["id"])["state"] == "done"
            assert client.job(jobs[1]["id"])["error"] == "peer exploded"
            runner.gate.set()
        assert "stealme-1" not in runner.names     # ran on the "peer"

    def test_expired_lease_requeues_at_owner(self):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             lease_seconds=0.3) as handle:
            client = ServiceClient(port=handle.port)
            runner.gate.clear()
            blocker = client.submit(_src("blocker"))
            assert runner.started.wait(timeout=10)
            victim = client.submit(_src("victim"))
            jobs = client.peer_claim(limit=1, peer="dead-peer")
            assert jobs[0]["id"] == victim["id"]
            runner.gate.set()
            client.wait(blocker["id"], timeout=30)
            # The peer never completes; the lease expires back home.
            record = client.wait(victim["id"], timeout=30)
            assert record["state"] == "done"
            snapshot = client.metricz()
        assert "victim" in runner.names
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.peer.lease_expired") == 1
        assert registry.value("service.peer.claimed") == 1

    def test_idle_replica_steals_and_returns_results(self):
        owner_runner = GatedRunner(delay=0.4)
        owner_runner.gate.set()
        stealer_runner = GatedRunner()
        stealer_runner.gate.set()
        # Both replicas hold the cluster key, so the whole balancer
        # path (claim + complete) runs authenticated.
        with _thread_service(workers=1, runner=owner_runner,
                             cluster_key="fleet-secret",
                             lease_seconds=30.0) as owner:
            with _thread_service(
                    workers=2, runner=stealer_runner,
                    peers=[f"127.0.0.1:{owner.port}"],
                    cluster_key="fleet-secret",
                    balance_interval=0.1) as stealer:
                client = ServiceClient(port=owner.port)
                tickets = [client.submit(_src(f"job-{n}"))
                           for n in range(5)]
                records = [client.wait(ticket["id"], timeout=60)
                           for ticket in tickets]
                assert all(r["state"] == "done" for r in records)
                owner_metrics = MetricsRegistry.from_snapshot(
                    client.metricz())
                stealer_metrics = MetricsRegistry.from_snapshot(
                    ServiceClient(port=stealer.port).metricz())

        stolen = stealer_metrics.value("service.peer.stolen")
        assert stolen >= 1
        assert owner_metrics.value("service.peer.claimed") == stolen
        assert owner_metrics.value("service.peer.completed") \
            == stealer_metrics.value("service.peer.returned")
        # Every job ran exactly once, somewhere.
        assert sorted(owner_runner.names + stealer_runner.names) \
            == sorted(f"job-{n}" for n in range(5))


class TestPeerEndpointSecurity:
    def test_cluster_key_guards_claim_and_complete(self):
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner,
                             cluster_key="swordfish") as handle:
            anon = ServiceClient(port=handle.port)
            wrong = ServiceClient(port=handle.port, cluster_key="nope")
            peer = ServiceClient(port=handle.port,
                                 cluster_key="swordfish")
            anon.submit(_src("inflight"))   # /v1/jobs stays open
            assert runner.started.wait(timeout=10)
            anon.submit(_src("stealme"))
            with pytest.raises(ClientError, match="HTTP 401"):
                anon.peer_claim(limit=1, peer="p")
            with pytest.raises(ClientError, match="HTTP 401"):
                wrong.peer_claim(limit=1, peer="p")
            jobs = peer.peer_claim(limit=1, peer="p")
            assert [job["spec"]["name"] for job in jobs] == ["stealme"]
            with pytest.raises(ClientError, match="HTTP 401"):
                anon.peer_complete({"id": jobs[0]["id"],
                                    "state": "done", "status": "ok",
                                    "peer": "p"})
            done = peer.peer_complete({"id": jobs[0]["id"],
                                       "state": "done", "status": "ok",
                                       "peer": "p"})
            assert done == {"state": "done", "duplicate": False}
            runner.gate.set()

    def test_tenancy_without_cluster_key_closes_peer_endpoints(
            self, tmp_path):
        """--tenants guards /v1/jobs with API keys; the peer endpoints
        must not stay an unauthenticated side door into tenant job
        specs and forged completions."""
        tenants = _tenants_file(tmp_path, '[ci]\nkey = "secret"\n')
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner,
                             tenants=tenants) as handle:
            client = ServiceClient(port=handle.port, api_key="secret")
            client.submit(_src("inflight"))
            assert runner.started.wait(timeout=10)
            ticket = client.submit(_src("queued"))
            with pytest.raises(ClientError, match="HTTP 401"):
                client.peer_claim(limit=1, peer="p")
            with pytest.raises(ClientError, match="HTTP 401"):
                client.peer_complete({"id": ticket["id"],
                                      "state": "done", "status": "ok",
                                      "peer": "p"})
            runner.gate.set()

    def test_complete_requires_an_active_matching_lease(self):
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner) as handle:
            client = ServiceClient(port=handle.port)
            blocker = client.submit(_src("blocker"))
            assert runner.started.wait(timeout=10)
            queued = client.submit(_src("queued"))
            # Never leased: a queued job cannot be completed from
            # outside...
            with pytest.raises(ClientError, match="HTTP 409"):
                client.peer_complete({"id": queued["id"],
                                      "state": "done", "status": "ok",
                                      "peer": "x"})
            # ...nor can a job running locally (a late complete after
            # lease expiry must not race the local execution).
            with pytest.raises(ClientError, match="HTTP 409"):
                client.peer_complete({"id": blocker["id"],
                                      "state": "done", "status": "ok",
                                      "peer": "x"})
            jobs = client.peer_claim(limit=1, peer="replica-a")
            assert jobs[0]["id"] == queued["id"]
            # Leased to replica-a; replica-b may not complete it.
            with pytest.raises(ClientError, match="HTTP 409"):
                client.peer_complete({"id": queued["id"],
                                      "state": "done", "status": "ok",
                                      "peer": "replica-b"})
            done = client.peer_complete({"id": queued["id"],
                                         "state": "done",
                                         "status": "ok",
                                         "peer": "replica-a"})
            assert done == {"state": "done", "duplicate": False}
            runner.gate.set()

    def test_no_share_rejects_peer_complete(self):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             share=False) as handle:
            client = ServiceClient(port=handle.port)
            ticket = client.submit(_src("mine"))
            assert client.peer_claim(limit=1, peer="p") == []
            with pytest.raises(ClientError, match="HTTP 403"):
                client.peer_complete({"id": ticket["id"],
                                      "state": "done", "status": "ok",
                                      "peer": "p"})
            client.wait(ticket["id"], timeout=30)

    def test_leased_jobs_occupy_tenant_running_quota(self, tmp_path):
        tenants = _tenants_file(
            tmp_path, '[ci]\nkey = "ci-key"\nmax_running = 1\n'
                      '[other]\nkey = "other-key"\n')
        runner = GatedRunner()
        with _thread_service(workers=1, runner=runner, tenants=tenants,
                             cluster_key="ck") as handle:
            other = ServiceClient(port=handle.port,
                                  api_key="other-key")
            ci = ServiceClient(port=handle.port, api_key="ci-key")
            peer = ServiceClient(port=handle.port, cluster_key="ck")
            other.submit(_src("filler"))    # occupies the only worker
            assert runner.started.wait(timeout=10)
            victim = ci.submit(_src("victim"))
            jobs = peer.peer_claim(limit=1, peer="replica-a")
            assert jobs[0]["id"] == victim["id"]
            # The lease counts against ci's cluster-wide running cap.
            with pytest.raises(ServiceSaturated):
                ci.submit(_src("over-cap"))
            peer.peer_complete({"id": victim["id"], "state": "done",
                                "status": "ok", "peer": "replica-a"})
            ci.submit(_src("after"))        # the complete freed a slot
            runner.gate.set()


# ======================================================================
# Client backoff (satellite: full jitter honouring Retry-After)
# ======================================================================
class TestSubmitRetryJitter:
    class _Flaky(ServiceClient):
        def __init__(self, failures: int, retry_after: float = 2.0):
            super().__init__()
            self.failures = failures
            self.retry_after = retry_after
            self.calls = 0

        def submit(self, spec):
            self.calls += 1
            if self.calls <= self.failures:
                raise ServiceSaturated("saturated",
                                       retry_after=self.retry_after)
            return {"id": "j000001", "state": "queued"}

    def test_backoff_windows_grow_from_retry_after(self):
        client = self._Flaky(failures=3, retry_after=2.0)
        windows = []

        def fake_random(low, high):
            windows.append((low, high))
            return high                    # worst case: full window

        slept = []
        ticket = client.submit_retry({}, max_sleep=10.0,
                                     _sleep=slept.append,
                                     _random=fake_random)
        assert ticket["id"] == "j000001"
        # Full jitter windows: [0, hint * 2^n] capped at max_sleep.
        assert windows == [(0.0, 2.0), (0.0, 4.0), (0.0, 8.0)]
        assert slept == [2.0, 4.0, 8.0]

    def test_window_cap_and_exhaustion(self):
        client = self._Flaky(failures=99, retry_after=8.0)
        windows = []
        with pytest.raises(ServiceSaturated):
            client.submit_retry({}, attempts=4, max_sleep=10.0,
                                _sleep=lambda s: None,
                                _random=lambda low, high:
                                windows.append((low, high)) or 0.0)
        assert windows == [(0.0, 8.0), (0.0, 10.0), (0.0, 10.0)]
        assert client.calls == 4
