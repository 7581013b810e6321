"""Flight recorder: trace propagation and profiling.

The invariants of the flight-recorder layer:

* a :class:`TraceContext` survives every hop — wire dict, HTTP header,
  journal frame, pickle boundary — and stamps every span of a job,
  the scheduler's and the worker's alike;
* the statistical profiler aggregates deterministically, is idempotent
  to start/stop, and measures its own overhead.

The end-to-end half runs the *real* engine in a thread-executor
service, so genuine solver spans join the job's trace.
"""

import threading
import time

import pytest

from repro.obs import (EventBus, MetricsRegistry, SamplingProfiler,
                       TraceContext, Tracer, assemble_trees, build_tree,
                       collapse_frame, group_by_trace, orphan_spans,
                       render_tree)
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
# TraceContext
# ======================================================================
class TestTraceContext:
    def test_round_trips(self):
        context = TraceContext.new(host="ci", benchmark="des")
        assert TraceContext.from_header(context.to_header()) == context
        assert TraceContext.from_dict(context.to_dict()) == context

    def test_child_keeps_trace_id(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_span_id != parent.parent_span_id

    def test_malformed_header_rejected(self):
        for bad in ("", "nothex-zz", "deadbeef-xyz;k=v", "a;b;c=;=d"):
            with pytest.raises(ValueError):
                TraceContext.from_header(bad)

    def test_malformed_dict_rejected(self):
        with pytest.raises(ValueError):
            TraceContext.from_dict({"trace_id": "NOT HEX"})
        with pytest.raises(ValueError):
            TraceContext.from_dict("not a mapping")

    def test_jobspec_wire_and_journal_round_trip(self):
        context = TraceContext.new()
        spec = JobSpec.from_dict({**_src("traced"),
                                  "trace": context.to_dict()})
        assert spec.trace == context
        again = JobSpec.from_dict(spec.to_dict())
        assert again.trace == context
        # The engine lowering deliberately drops the trace context:
        # it must never reach cache keys or analysis fingerprints.
        job = spec.to_analysis_job()
        assert "trace" not in vars(job)


class TestTracerContext:
    def test_records_stamped_with_trace_id(self):
        context = TraceContext.new()
        tracer = Tracer(context=context)
        with tracer.span("outer", cat="t"):
            with tracer.span("inner", cat="t"):
                pass
        records = tracer.records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        assert all(r["trace"] == context.trace_id for r in records)
        # Only depth-0 spans link to the submitter's parent span.
        parents = [r.get("parent") for r in records]
        assert parents == [None, context.parent_span_id]

    def test_maxlen_bounds_the_ring(self):
        tracer = Tracer(maxlen=4)
        for n in range(10):
            with tracer.span(f"s{n}", cat="t"):
                pass
        assert len(tracer.records()) == 4
        assert tracer.records()[-1]["name"] == "s9"


# ======================================================================
# Profiler
# ======================================================================
class TestProfiler:
    def test_ingest_folds_deterministically(self):
        profiler = SamplingProfiler()
        assert profiler.ingest([("a", "b"), ("a", "b"), ("a",)]) == 3
        assert profiler.ingest([("a", "b"), ()]) == 1
        assert profiler.folds() == {("a", "b"): 3, ("a",): 1}
        assert profiler.samples == 2          # one per non-empty batch
        assert profiler.collapsed() == ["a;b 3", "a 1"]

    def test_start_stop_idempotent(self):
        profiler = SamplingProfiler(hz=200.0)
        profiler.start()
        thread = profiler._thread
        profiler.start()                      # no second thread
        assert profiler._thread is thread
        profiler.stop()
        profiler.stop()                       # no-op
        assert not profiler.running

    def test_samples_own_process_threads(self):
        profiler = SamplingProfiler(hz=500.0)
        release = threading.Event()
        ready = threading.Event()

        def camp():
            ready.set()
            release.wait(timeout=10)

        worker = threading.Thread(target=camp, name="campsite")
        worker.start()
        ready.wait(timeout=10)
        try:
            with profiler:
                deadline = time.monotonic() + 5.0
                while (profiler.samples == 0
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
        finally:
            release.set()
            worker.join()
        assert profiler.samples > 0
        assert any("camp" in line for line in profiler.collapsed())
        # Self-accounting: the sampler measured its own cost, and at
        # this tiny duty cycle it is nowhere near the 5% budget.
        assert 0.0 < profiler.overhead_fraction < 0.5

    def test_fake_frames_fn_and_speedscope_shape(self):
        import sys

        frame = sys._getframe()
        profiler = SamplingProfiler(frames_fn=lambda: {1: frame})
        assert profiler.sample_once() == 1
        doc = profiler.to_speedscope(name="unit")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["name"] == "unit"
        assert len(profile["samples"]) == len(profile["weights"]) == 1
        labels = [f["name"] for f in doc["shared"]["frames"]]
        assert any("test_flight.py" in label for label in labels)
        stack = collapse_frame(frame)
        assert stack[-1].endswith("test_fake_frames_fn_and_"
                                  "speedscope_shape")

    def test_reset_clears_aggregate(self):
        profiler = SamplingProfiler()
        profiler.ingest([("a",)])
        profiler.reset()
        assert profiler.folds() == {}
        assert profiler.samples == 0


# ======================================================================
# Trace reassembly
# ======================================================================
def _span(name, ts, dur, pid=1, tid=1, trace="aa11", cat="t", **args):
    return {"name": name, "cat": cat, "ts": ts, "dur": dur, "pid": pid,
            "tid": tid, "depth": 0, "args": args, "trace": trace}


class TestReassembly:
    def test_containment_nesting_ignores_depth(self):
        events = [
            _span("child", 1.2, 0.2),
            _span("root", 1.0, 1.0),
            _span("grandchild", 1.25, 0.1),
            _span("sibling", 2.5, 0.3),
        ]
        roots = build_tree(list(group_by_trace(events)["aa11"]))
        assert [r.name for r in roots] == ["root", "sibling"]
        (child,) = roots[0].children
        assert child.name == "child"
        assert [n.name for n in child.children] == ["grandchild"]

    def test_lanes_split_by_pid_tid(self):
        events = [_span("a", 1.0, 1.0, pid=1),
                  _span("b", 1.1, 0.5, pid=2)]
        roots = build_tree(list(group_by_trace(events)["aa11"]))
        assert sorted(r.name for r in roots) == ["a", "b"]
        assert all(not r.children for r in roots)

    def test_chrome_events_microseconds_normalized(self):
        chrome = {"ph": "X", "name": "x", "cat": "t", "ts": 2_000_000,
                  "dur": 500_000, "pid": 1, "tid": 1,
                  "trace": "aa11", "args": {}}
        (node,) = group_by_trace([chrome])["aa11"]
        assert node.ts == 2.0 and node.dur == 0.5

    def test_assemble_and_orphans(self):
        events = [_span("mine", 1.0, 1.0),
                  _span("stray", 1.0, 1.0, trace="ff00")]
        trees = assemble_trees(events)
        assert set(trees) == {"aa11", "ff00"}
        assert trees["aa11"]["spans"] == 1
        orphans = orphan_spans(events, "aa11")
        assert [n.name for n in orphans] == ["stray"]
        lines = render_tree(trees["aa11"]["roots"])
        assert lines and "t:mine" in lines[0]


# ======================================================================
# Satellites: journal inspection, bus drop accounting
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


class TestBusDropAccounting:
    def test_per_subscriber_drop_counts(self):
        bus = EventBus()
        slow = bus.subscribe(maxlen=1, name="slow")
        bus.subscribe(maxlen=64, name="fast")
        for n in range(5):
            bus.publish("tick", n=n)
        assert bus.drop_counts() == {"slow": 4}
        assert bus.dropped == 4
        # Closed subscribers keep their tally under their name.
        bus.publish("tick", n=99)
        slow.close()
        bus.publish("tick", n=100)
        assert bus.drop_counts() == {"slow": 5}


# ======================================================================
# End to end: traced service, profiler endpoint
# ======================================================================
def _traced_run(client, spec, context):
    ticket = client.submit(spec, trace=context)
    assert ticket["trace_id"] == context.trace_id
    record = client.wait(ticket["id"], timeout=60)
    assert record["state"] == "done"
    assert record["trace_id"] == context.trace_id
    return client.trace(ticket["id"])


class TestServiceFlight:
    def test_local_job_trace_has_no_orphans(self):
        context = TraceContext.new(suite="flight")
        with _thread_service(workers=1) as handle:
            client = ServiceClient(port=handle.port)
            doc = _traced_run(client, _src("local"), context)
        events = doc["traceEvents"]
        assert doc["repro"]["trace_id"] == context.trace_id
        assert orphan_spans(events, context.trace_id) == []
        names = {e["name"] for e in events if e.get("ph") == "X"}
        # Scheduler envelope plus real worker pipeline/solver spans.
        assert {"service.job", "solve", "set.worst"} <= names

    def test_trace_endpoint_unknown_job_404(self):
        with _thread_service(workers=1) as handle:
            client = ServiceClient(port=handle.port)
            with pytest.raises(ClientError, match="HTTP 404"):
                client.trace("j999999")

    def test_profilez_404_without_profiler(self):
        with _thread_service(workers=1) as handle:
            client = ServiceClient(port=handle.port)
            with pytest.raises(ClientError, match="HTTP 404"):
                client.profilez()

    def test_profilez_serves_speedscope_and_collapsed(self):
        with _thread_service(workers=1,
                             profile_hz=400.0) as handle:
            client = ServiceClient(port=handle.port)
            client.wait(client.submit(_src("warm"))["id"], timeout=60)
            deadline = time.monotonic() + 10.0
            doc = client.profilez()
            while not doc["samples"] and time.monotonic() < deadline:
                time.sleep(0.05)
                doc = client.profilez()
            assert doc["samples"] > 0
            assert doc["speedscope"]["profiles"][0]["type"] == "sampled"
            folds = client.profilez(format="collapsed")["folds"]
            assert folds and all(" " in line for line in folds)
            snapshot = client.metricz()
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.profiler.samples") > 0


class TestJournalGauges:
    def test_metricz_exports_journal_health(self, tmp_path):
        with _thread_service(workers=1,
                             journal_dir=str(tmp_path)) as handle:
            client = ServiceClient(port=handle.port)
            client.wait(client.submit(_src("logged"))["id"],
                        timeout=60)
            snapshot = client.metricz()
        registry = MetricsRegistry.from_snapshot(snapshot)
        assert registry.value("service.journal.wal_bytes") > 0
        assert registry.value("service.journal"
                              ".frames_since_compaction") > 0
        # value() defaults missing metrics to 0, so pin presence on
        # the raw snapshot before trusting any >= 0 assertion.
        for q in (50, 95, 99):
            assert f"service.journal.fsync_seconds.p{q}" in snapshot
        assert "service.journal.replay.records" in snapshot
        assert registry.value("service.journal.replay.records") == 0
