"""Durable layer: journal replay, recovery and tenancy.

Journal semantics are tested at the file level (torn tails, duplicate
frames, crash-during-compaction) and end-to-end (a service restarted
on a journal re-dispatches recovered jobs).  Tenancy uses the same
deterministic gated-runner embedding as ``tests/test_service.py``.
"""

import json
import threading
import time

import pytest

from repro.chaos import verify_journal
from repro.engine.jobs import JobResult
from repro.obs import MetricsRegistry
from repro.programs import get_benchmark
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
        # A frame only earlier versions wrote (a job lent to a peer).
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


class TestEarlierJournals:
    """Earlier versions lent queued jobs to peer replicas and journaled
    it: ``lease`` and ``release`` frames, and snapshot entries in state
    ``leased``.  Replay folds each to ``queued``."""

    NAMES = {"j000001": "check_data", "j000002": "piksrt",
             "j000003": "circle"}

    def _write(self, root):
        def spec(name):
            return JobSpec.from_dict({"benchmark": name}).to_dict()

        root.mkdir()
        (root / "snapshot.json").write_text(json.dumps(
            {"schema": 1,
             "jobs": {"j000001": {"spec": spec("check_data"),
                                  "state": "leased", "tenant": None}}}))
        journal = JobJournal(root)
        journal.open()
        journal.append("submit", id="j000002", spec=spec("piksrt"),
                       tenant=None)
        journal.append("lease", id="j000002", peer="127.0.0.1:8788")
        journal.append("release", id="j000002", peer="127.0.0.1:8788")
        journal.append("submit", id="j000003", spec=spec("circle"),
                       tenant=None)
        journal.append("lease", id="j000003", peer="127.0.0.1:8788")
        journal.close()

    def test_lease_frames_and_leased_entries_replay_queued(self,
                                                           tmp_path):
        self._write(tmp_path / "journal")
        state = JobJournal(tmp_path / "journal").open()
        assert {job_id: job["state"]
                for job_id, job in state.jobs.items()} == {
            "j000001": "queued", "j000002": "queued",
            "j000003": "queued"}

    #: Payloads of the frames an earlier version wrote for a lent job.
    FRAMES = {
        "lease": {"peer": "127.0.0.1:8788"},
        "release": {"peer": "127.0.0.1:8788"},
        "start": {},
        "complete": {"status": "ok", "cache_hit": False, "report": None},
        "fail": {"status": "failed", "error": "peer: boom"},
    }

    @pytest.mark.parametrize("kinds, state", [
        (("lease",), "queued"),                   # still lent at crash
        (("lease", "release"), "queued"),         # lease expired
        (("lease", "release", "lease"), "queued"),  # lent again
        (("lease", "complete"), "done"),          # the peer finished it
        (("lease", "fail"), "failed"),            # the peer failed it
        (("lease", "release", "start", "complete"), "done"),
    ], ids=lambda value: "-".join(value) if isinstance(value, tuple)
        else value)
    def test_lent_job_frame_sequences_replay(self, tmp_path, kinds, state):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001", spec=_spec_dict("a"),
                       tenant=None)
        for kind in kinds:
            journal.append(kind, id="j000001", **self.FRAMES[kind])
        journal.close()
        replayed = JobJournal(tmp_path).open()
        assert replayed.jobs["j000001"]["state"] == state
        record = JobRecord.from_journal("j000001",
                                        replayed.jobs["j000001"])
        assert record.state == state
        assert "leased_to" not in record.to_dict()

    def test_leased_snapshot_entry_takes_later_frames(self, tmp_path):
        """A job lent when the snapshot was taken: a later ``release``
        or terminal frame in the WAL still applies to it."""
        tmp_path.joinpath("snapshot.json").write_text(json.dumps(
            {"schema": 1, "jobs": {
                job_id: {"spec": _spec_dict(job_id), "state": "leased",
                         "tenant": None}
                for job_id in ("j000001", "j000002", "j000003")}}))
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("release", id="j000001", **self.FRAMES["release"])
        journal.append("complete", id="j000002",
                       **self.FRAMES["complete"])
        journal.close()
        state = JobJournal(tmp_path).open()
        assert {job_id: job["state"]
                for job_id, job in state.jobs.items()} == {
            "j000001": "queued", "j000002": "done",
            "j000003": "queued"}

    def test_lent_job_regains_its_place_in_job_id_order(self, tmp_path):
        """A job lent before the snapshot and taken back after a later
        submission re-enters the queue in job-id order, ahead of it."""
        tmp_path.joinpath("snapshot.json").write_text(json.dumps(
            {"schema": 1, "jobs": {
                "j000001": {"spec": _spec_dict("job1"), "state": "queued",
                            "tenant": None},
                "j000002": {"spec": _spec_dict("job2"), "state": "leased",
                            "tenant": None}}}))
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000003", spec=_spec_dict("job3"),
                       tenant=None)
        journal.append("release", id="j000002", **self.FRAMES["release"])
        journal.close()
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle:
            client = ServiceClient(port=handle.port)
            for n in (1, 2, 3):
                record = client.wait(f"j{n:06d}", timeout=30)
                assert record["state"] == "done" and record["recovered"]
                assert "leased_to" not in record
        assert runner.names == ["job1", "job2", "job3"]

    def test_service_runs_them_to_the_serial_bound(self, tmp_path):
        root = tmp_path / "journal"
        self._write(root)
        with _thread_service(workers=1, journal_dir=root) as handle:
            client = ServiceClient(port=handle.port)
            records = {job_id: client.wait(job_id, timeout=60)
                       for job_id in self.NAMES}
        for job_id, name in self.NAMES.items():
            serial = get_benchmark(name).make_analysis().estimate()
            record = records[job_id]
            assert record["state"] == "done" and record["recovered"]
            assert (record["best"], record["worst"]) == serial.interval
        report = verify_journal(root)
        assert report.ok, report.render()
        assert report.checked_bounds == len(self.NAMES)


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
