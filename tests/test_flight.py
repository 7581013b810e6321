"""A job's trace, journal inspection and journal gauges.

A service job has one identity, its job id, and one store of spans,
its record's ``spans``: ``GET /v1/jobs/{id}/trace`` serves the
scheduler's ``service.job`` span and the worker's pipeline and solver
spans together.  The end-to-end test runs the *real* engine in a
thread-executor service, so genuine solver spans are in the trace.
"""

import pytest

from repro.obs import MetricsRegistry
from repro.service import (ClientError, JobSpec, ServiceClient,
                           ServiceThread)
from repro.service.durable.journal import JobJournal


def _thread_service(**kwargs):
    kwargs.setdefault("executor", "thread")
    return ServiceThread(**kwargs)


def _src(name, **extra):
    return {"name": name, "source": "int f() { return 1; }",
            "entry": "f", **extra}


# ======================================================================
# Journal inspection
# ======================================================================
class TestJournalInspect:
    def test_inspect_reports_duplicates_and_tail(self, tmp_path):
        spec = JobSpec.from_dict(_src("a")).to_dict()
        journal = JobJournal(tmp_path)
        journal.open()
        journal.append("submit", id="j000001", spec=spec)
        journal.append("start", id="j000001")
        journal.append("start", id="j000001")      # duplicate frame
        journal.close()
        wal = tmp_path / "journal.wal"
        wal.write_bytes(wal.read_bytes() + b"\x07garbage")

        state = JobJournal(tmp_path).inspect()
        assert state.records == 3
        assert state.duplicates == 1
        assert state.tail_dropped
        assert state.jobs["j000001"]["state"] == "running"
        # Read-only: inspect() left no append handle behind and the
        # WAL (garbage tail included) is bit-for-bit untouched.
        assert wal.read_bytes().endswith(b"\x07garbage")


# ======================================================================
# End to end: a service job's trace
# ======================================================================
class TestServiceFlight:
    def test_local_job_trace_has_no_orphans(self):
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            ticket = client.submit(_src("local"))
            record = client.wait(ticket["id"], timeout=60)
            doc = client.trace(ticket["id"])
        assert record["state"] == "done"
        assert doc["repro"]["job"] == ticket["id"]
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert doc["repro"]["spans"] == len(spans)
        # The job id is the job's one identity: no span carries a
        # trace or parent stamp.
        assert [e for e in spans if "trace" in e or "parent" in e] == []
        names = {e["name"] for e in spans}
        # Scheduler envelope plus real worker pipeline/solver spans.
        assert {"service.job", "solve", "set.worst"} <= names

    def test_trace_endpoint_unknown_job_404(self):
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(ClientError, match="HTTP 404"):
                client.trace("j999999")


class TestJournalGauges:
    def test_metricz_exports_journal_health(self, tmp_path):
        with _thread_service(workers=1,
                             journal_dir=str(tmp_path)) as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait(client.submit(_src("logged"))["id"],
                        timeout=60)
            snapshot = client.metricz()
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.journal.wal_bytes") > 0
        assert registry.value("service.journal"
                              ".frames_since_compaction") > 0
        # value() defaults missing metrics to 0, so pin presence on
        # the raw snapshot before trusting any >= 0 assertion.  The
        # fsync latencies are one histogram, with no percentile
        # gauges beside it.
        fsync = snapshot["service.journal.fsync_seconds"]
        assert fsync["type"] == "histogram"
        assert [name for name in snapshot if name.startswith(
            "service.journal.fsync_seconds.")] == []
        assert "service.journal.replay.records" in snapshot
        assert registry.value("service.journal.replay.records") == 0
