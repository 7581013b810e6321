"""Durable layer: journal replay and recovery.

Journal semantics are tested at the file level (torn tails, duplicate
frames, crash-during-compaction) and end-to-end (a service restarted
on a journal re-dispatches recovered jobs), with the same
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
from repro.service import (JobFailed, JobJournal, JobRecord, JobSpec,
                           JournalError, ServiceClient, ServiceSaturated,
                           ServiceThread)
from repro.service.durable.journal import MAGIC, apply_record, scan_wal


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


def _reopen(root):
    """Replay a journal as a restarting service does, then close its
    WAL again; returns the replayed state."""
    journal = JobJournal(root)
    state = journal.open()
    journal.close()
    return state


# ======================================================================
# Journal: frames, replay, compaction
# ======================================================================
class TestJournalReplay:
    def test_round_trip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"))
        journal.append("start", id="j000001")
        journal.append("set_done", id="j000001", set=0,
                       worst=10, best=2, feasible=True)
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"))
        journal.append("start", id="j000002")
        journal.append("submit", id="j000003",
                       spec=_spec_dict("c"))
        journal.close()

        state = _reopen(tmp_path)
        assert not state.tail_dropped
        assert state.records == 7 and state.duplicates == 0
        jobs = state.jobs
        assert jobs["j000001"]["state"] == "done"
        assert jobs["j000001"]["status"] == "ok"
        assert jobs["j000002"]["state"] == "running"
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
        journal.append("submit", id="j000001", spec=_spec_dict("a"))
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=older)
        journal.close()
        state = _reopen(tmp_path)
        record = JobRecord.from_journal("j000001", state.jobs["j000001"])
        assert record.report.interval == report.interval
        assert not any(r.stats.refuted for r in record.report.set_results)

    def test_truncated_tail_frame_drops_only_the_tail(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        for n in range(4):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"))
        journal.close()
        # Tear the last frame mid-payload, as a crash mid-append would.
        wal = tmp_path / "journal.wal"
        wal.write_bytes(wal.read_bytes()[:-7])

        state = _reopen(tmp_path)
        assert state.tail_dropped
        assert sorted(state.jobs) == ["j000000", "j000001", "j000002"]

    def test_corrupt_crc_stops_replay(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"))
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"))
        journal.close()
        wal = tmp_path / "journal.wal"
        data = bytearray(wal.read_bytes())
        data[-1] ^= 0xFF                       # flip a payload byte
        wal.write_bytes(bytes(data))

        state = _reopen(tmp_path)
        assert state.tail_dropped
        assert sorted(state.jobs) == ["j000001"]

    def test_duplicate_records_replay_idempotently(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        for _ in range(3):                     # replayed WAL segment
            journal.append("submit", id="j000001",
                           spec=_spec_dict("a"))
            journal.append("start", id="j000001")
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=True, report=None)
        journal.append("start", id="j000001")  # late duplicate
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=True, report=None)
        journal.close()

        state = _reopen(tmp_path)
        assert list(state.jobs) == ["j000001"]
        job = state.jobs["j000001"]
        assert job["state"] == "done" and job["cache_hit"] is True

    def test_terminal_state_is_monotonic(self):
        jobs = {}
        apply_record(jobs, {"type": "submit", "id": "j1",
                            "spec": {}})
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
                       spec=_spec_dict("a"))
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("b"))
        state = _reopen(tmp_path).jobs
        # Crash window: snapshot renamed into place, WAL not yet
        # truncated — every WAL record is already folded into the
        # snapshot.
        journal._write_snapshot(state)
        journal.close()
        assert (tmp_path / "snapshot.json").exists()

        replayed = _reopen(tmp_path)
        assert replayed.jobs["j000001"]["state"] == "done"
        assert replayed.jobs["j000002"]["state"] == "queued"
        assert len(replayed.jobs) == 2

    def test_partial_snapshot_tmp_is_ignored(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001",
                       spec=_spec_dict("a"))
        journal.close()
        # Crash mid-snapshot-write: a torn temp file, never renamed.
        (tmp_path / "snapshot.json.tmp").write_text('{"schema": 1, "jo')

        state = _reopen(tmp_path)
        assert state.jobs["j000001"]["state"] == "queued"

    def test_compaction_resets_wal_and_preserves_state(self, tmp_path):
        journal = JobJournal(tmp_path, compact_records=4)
        journal.open()
        for n in range(6):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"))
        assert journal.should_compact()
        state = {f"j{n:06d}": {"spec": _spec_dict(f"job{n}"),
                               "state": "queued"}
                 for n in range(6)}
        journal.compact(state)
        assert journal.wal_bytes == len(MAGIC)
        journal.append("complete", id="j000000", status="ok",
                       cache_hit=False, report=None)
        journal.close()

        replayed = _reopen(tmp_path)
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
                spec=_spec_dict(f"job{n}")))
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
            _reopen(tmp_path)


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
                       spec=_spec_dict("finished"))
        journal.append("start", id="j000001")
        journal.append("complete", id="j000001", status="ok",
                       cache_hit=False, report=None)
        journal.append("submit", id="j000002",
                       spec=_spec_dict("queued"))
        journal.append("submit", id="j000003",
                       spec=_spec_dict("inflight"))
        journal.append("start", id="j000003")
        journal.close()

    def test_new_frames_and_snapshot_entries_carry_no_tenant(self,
                                                             tmp_path):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit(_src("a"))["id"]
            client.wait(job, timeout=30)
            # Submit frames are flushed before the 202 goes out.
            frames, _, _ = scan_wal(tmp_path / "journal.wal")
        assert [frame["id"] for frame in frames
                if frame["type"] == "submit"] == [job]
        assert not [frame for frame in frames if "tenant" in frame]
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert list(snapshot["jobs"]) == [job]
        assert "tenant" not in snapshot["jobs"][job]

    def test_restart_redispatches_queued_and_inflight(self, tmp_path):
        self._seed_journal(tmp_path)
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
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

    def test_rerun_spans_go_to_the_recovered_record(self, tmp_path):
        # A recovered job keeps its job id, and the spans of its re-run
        # are that record's trace.  A job that finished before the
        # restart has no span in this life.
        self._seed_journal(tmp_path)
        with _thread_service(workers=1, journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait("j000003", timeout=60)
            rerun = client.trace("j000003")
            finished = client.trace("j000001")
        spans = [e for e in rerun["traceEvents"] if e["ph"] == "X"]
        assert rerun["repro"]["job"] == "j000003"
        assert rerun["repro"]["spans"] == len(spans)
        assert {"service.job", "solve", "set.worst"} \
            <= {e["name"] for e in spans}
        assert finished["repro"] == {"job": "j000001", "name": "finished",
                                     "state": "done", "spans": 0}
        assert finished["traceEvents"] == []

    def test_recovered_queue_preserves_submission_order(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.open()
        for n in (1, 2, 3):
            journal.append("submit", id=f"j{n:06d}",
                           spec=_spec_dict(f"job{n}"))
        journal.close()
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
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
                           spec=_spec_dict(f"job{n}"))
        journal.append("start", id="j000004")   # running at crash
        journal.close()
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner, queue_depth=2,
                             journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            for n in range(5):
                record = client.wait(f"j{n:06d}", timeout=30)
                assert record["state"] == "done" and record["recovered"]

    def test_drain_compacts_for_a_fast_restart(self, tmp_path):
        runner = GatedRunner()
        runner.gate.set()
        with _thread_service(workers=1, runner=runner,
                             journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait(client.submit(_src("one"))["id"], timeout=30)
        # Drain folded everything into the snapshot and reset the WAL.
        snapshot = json.loads((tmp_path / "snapshot.json").read_text())
        assert snapshot["jobs"]["j000001"]["state"] == "done"
        assert (tmp_path / "journal.wal").stat().st_size == len(MAGIC)
        state = _reopen(tmp_path)
        assert state.jobs["j000001"]["state"] == "done"


class TestFramesWritten:
    """A job's journal is ``submit``, ``start``, then ``complete`` (its
    report holds every set) or ``fail``.  Earlier versions also wrote
    a ``set_done`` frame per set ahead of ``complete``; replay folds
    them to nothing."""

    @staticmethod
    def _frames(wal, job_ids, timeout=10.0):
        """The WAL's frames once every job's terminal frame is on disk
        (terminal frames reach it at the next group commit)."""
        deadline = time.monotonic() + timeout
        while True:
            frames, _, _ = scan_wal(wal)
            ended = {frame["id"] for frame in frames
                     if frame["type"] in ("complete", "fail")}
            if set(job_ids) <= ended or time.monotonic() > deadline:
                return frames
            time.sleep(0.05)

    def _serve(self, root, cache):
        """A miss, the same job as a hit, and a job that fails."""
        with _thread_service(workers=1, journal_dir=root,
                             cache_dir=cache) as handle, \
                ServiceClient(port=handle.port) as client:
            ids = [client.submit(spec)["id"] for spec in (
                {"benchmark": "check_data"}, {"benchmark": "check_data"},
                _src("broken", source="int f() { return }"))]
            records = {}
            for job_id in ids:
                try:
                    records[job_id] = client.wait(job_id, timeout=60)
                except JobFailed as error:
                    records[job_id] = error.record
            frames = self._frames(root / "journal.wal", ids)
        return ids, records, frames

    def test_a_job_writes_submit_start_and_one_terminal_frame(
            self, tmp_path):
        ids, records, frames = self._serve(tmp_path / "journal",
                                           tmp_path / "cache")
        miss, hit, broken = ids
        assert not records[miss]["cache_hit"] and records[hit]["cache_hit"]
        assert records[broken]["state"] == "failed"
        kinds = {job_id: [frame["type"] for frame in frames
                          if frame.get("id") == job_id]
                 for job_id in ids}
        assert kinds == {miss: ["submit", "start", "complete"],
                         hit: ["submit", "start", "complete"],
                         broken: ["submit", "start", "fail"]}
        (complete,) = [frame for frame in frames
                       if frame["type"] == "complete"
                       and frame["id"] == miss]
        assert len(complete["report"]["set_results"]) == 2

    def test_complete_frames_hold_the_served_report(self, tmp_path):
        # A miss's frame splices the text its cache entry was written
        # with, a hit's the text held beside the cached report; both
        # decode to the report the service serves.
        ids, records, frames = self._serve(tmp_path / "journal",
                                           tmp_path / "cache")
        reports = {frame["id"]: frame["report"] for frame in frames
                   if frame["type"] == "complete"}
        miss, hit, _ = ids
        assert reports == {miss: records[miss]["report"],
                           hit: records[hit]["report"]}
        (entry,) = (tmp_path / "cache").glob("??/*.json")
        assert json.loads(entry.read_text())["report"] == reports[miss]

    def test_earlier_set_done_frames_replay_to_the_same_records(
            self, tmp_path):
        ids, _, frames = self._serve(tmp_path / "journal",
                                     tmp_path / "cache")

        def write(root, set_done):
            """The served WAL; with `set_done`, as an earlier version
            wrote it: one set_done frame per set ahead of complete."""
            journal = JobJournal(root)
            journal.open()
            for frame in frames:
                if set_done and frame["type"] == "complete":
                    for result in frame["report"]["set_results"]:
                        journal.append(
                            "set_done", id=frame["id"],
                            set=result["index"], worst=result["worst"],
                            best=result["best"],
                            feasible=result["status"] == "optimal")
                journal.append(frame["type"], **{
                    key: value for key, value in frame.items()
                    if key not in ("type", "t")})
            journal.close()
            return JobJournal(root).inspect()

        current = write(tmp_path / "current", set_done=False)
        earlier = write(tmp_path / "earlier", set_done=True)
        sets = sum(len(frame["report"]["set_results"]) for frame in frames
                   if frame["type"] == "complete")
        assert sets == 4
        assert earlier.records == current.records + sets
        assert earlier.duplicates == current.duplicates == 0
        assert earlier.jobs == current.jobs

        def rebuilt(state):
            return {job_id: {key: value for key, value in JobRecord
                             .from_journal(job_id, job).to_dict().items()
                             if key != "submitted_at"}
                    for job_id, job in state.jobs.items()}

        assert sorted(rebuilt(earlier)) == ids
        assert rebuilt(earlier) == rebuilt(current)


class TestEarlierJournals:
    """Earlier versions lent queued jobs to peer replicas and journaled
    it: ``lease`` and ``release`` frames, and snapshot entries in state
    ``leased``.  Replay folds each to ``queued``.  They also stamped
    every ``submit`` frame and snapshot entry with a ``tenant``, which
    replay ignores, and every spec with a ``trace`` object, which
    replay drops."""

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
        state = _reopen(tmp_path / "journal")
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
        replayed = _reopen(tmp_path)
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
        state = _reopen(tmp_path)
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
                             journal_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            for n in (1, 2, 3):
                record = client.wait(f"j{n:06d}", timeout=30)
                assert record["state"] == "done" and record["recovered"]
                assert "leased_to" not in record
        assert runner.names == ["job1", "job2", "job3"]

    def test_service_runs_them_to_the_serial_bound(self, tmp_path):
        root = tmp_path / "journal"
        self._write(root)
        with _thread_service(workers=1, journal_dir=root) as handle, \
                ServiceClient(port=handle.port) as client:
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

    def test_tenant_fields_are_ignored(self, tmp_path):
        root = tmp_path / "journal"
        root.mkdir()
        specs = {job_id: JobSpec.from_dict({"benchmark": name}).to_dict()
                 for job_id, name in self.NAMES.items()}
        (root / "snapshot.json").write_text(json.dumps(
            {"schema": 1,
             "jobs": {"j000001": {"spec": specs["j000001"],
                                  "state": "queued", "tenant": "ci"}}}))
        journal = JobJournal(root)
        journal.open()
        for job_id in ("j000002", "j000003"):
            journal.append("submit", id=job_id, spec=specs[job_id],
                           tenant="ci")
        journal.append("start", id="j000003")
        journal.close()
        with _thread_service(workers=1, journal_dir=root) as handle, \
                ServiceClient(port=handle.port) as client:
            records = {job_id: client.wait(job_id, timeout=60)
                       for job_id in self.NAMES}
        for job_id, name in self.NAMES.items():
            serial = get_benchmark(name).make_analysis().estimate()
            record = records[job_id]
            assert record["state"] == "done" and record["recovered"]
            assert "tenant" not in record
            assert (record["best"], record["worst"]) == serial.interval
        snapshot = json.loads((root / "snapshot.json").read_text())
        assert not [job for job in snapshot["jobs"].values()
                    if "tenant" in job]
        report = verify_journal(root)
        assert report.ok, report.render()
        assert report.checked_bounds == len(self.NAMES)

    def _write_traced(self, root, serial):
        """A finished snapshot entry, a queued job and one in flight,
        each spec carrying the ``trace`` object an earlier version
        journaled."""
        from repro.engine.cache import report_to_dict

        def spec(name):
            return {**JobSpec.from_dict({"benchmark": name}).to_dict(),
                    "trace": {"trace_id": "ab" * 16,
                              "parent_span_id": "cd" * 8,
                              "baggage": {"benchmark": name}}}

        root.mkdir()
        (root / "snapshot.json").write_text(json.dumps(
            {"schema": 1,
             "jobs": {"j000001": {
                 "spec": spec("check_data"), "state": "done",
                 "status": "ok", "error": None, "cache_hit": False,
                 "report": report_to_dict(serial)}}}))
        journal = JobJournal(root)
        journal.open()
        for job_id in ("j000002", "j000003"):
            journal.append("submit", id=job_id,
                           spec=spec(self.NAMES[job_id]))
        journal.append("start", id="j000003")
        journal.close()

    def test_trace_objects_in_specs_are_dropped(self, tmp_path):
        serial = {name: get_benchmark(name).make_analysis().estimate()
                  for name in self.NAMES.values()}
        root = tmp_path / "journal"
        self._write_traced(root, serial["check_data"])

        state = JobJournal(root).inspect()
        assert [job_id for job_id, job in state.jobs.items()
                if "trace" in job["spec"]] == []
        records = {job_id: JobRecord.from_journal(job_id, job)
                   for job_id, job in state.jobs.items()}
        assert {job_id: record.state
                for job_id, record in records.items()} == {
            "j000001": "done", "j000002": "queued", "j000003": "queued"}
        assert records["j000001"].report.interval \
            == serial["check_data"].interval
        report = verify_journal(root, require_terminal=False)
        assert report.ok, report.render()
        assert report.checked_bounds == 1

        with _thread_service(workers=1, journal_dir=root) as handle, \
                ServiceClient(port=handle.port) as client:
            served = {job_id: client.wait(job_id, timeout=60)
                      for job_id in self.NAMES}
        for job_id, name in self.NAMES.items():
            record = served[job_id]
            assert record["state"] == "done" and record["recovered"]
            assert "trace_id" not in record
            assert (record["best"], record["worst"]) \
                == serial[name].interval
        assert not served["j000001"]["cache_hit"]
        snapshot = json.loads((root / "snapshot.json").read_text())
        assert not [job for job in snapshot["jobs"].values()
                    if "trace" in job["spec"]]
        report = verify_journal(root)
        assert report.ok, report.render()
        assert report.checked_bounds == len(self.NAMES)

    def test_chaos_verify_reads_trace_objects(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "journal"
        self._write_traced(
            root, get_benchmark("check_data").make_analysis().estimate())
        code = main(["chaos", "verify", "--journal", str(root),
                     "--allow-pending", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0, report
        assert report["ok"] and report["violations"] == []
        assert report["jobs"] == len(self.NAMES)
        assert report["checked_bounds"] == 1


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
