"""Telemetry streaming: event bus, SSE framing and endpoints, live
dashboard, keep-alive and trace diffing.

Backpressure is the load-bearing property: a slow (or dead) subscriber
may lose events — counted, never silently — but must not be able to
stall a publisher, because publishers sit inside the solver hot path.
"""

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import SchemaMismatchError
from repro.obs import (EventBus, LiveDashboard, MetricsRegistry, Tracer,
                       aggregate_trace, diff_traces, load_trace_events,
                       parse_sse_stream, render_trace_diff, sse_comment,
                       sse_format, span_key)
from repro.service import ServiceClient, ServiceThread


def _thread_service(**kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 2)
    return ServiceThread(**kwargs)


# ----------------------------------------------------------------------
# EventBus core
# ----------------------------------------------------------------------
class TestEventBus:
    def test_publish_stamps_seq_ts_type(self):
        bus = EventBus()
        first = bus.publish("job_start", name="a")
        second = bus.publish("set_done", set=3)
        assert first["type"] == "job_start" and first["name"] == "a"
        assert second["seq"] == first["seq"] + 1
        assert first["ts"] <= second["ts"]

    def test_subscriber_sees_events_in_order(self):
        bus = EventBus()
        with bus.subscribe() as sub:
            for n in range(5):
                bus.publish("counter", n=n)
            got = sub.pop_all()
        assert [event["n"] for event in got] == list(range(5))

    def test_slow_subscriber_drops_oldest_and_counts(self):
        bus = EventBus()
        sub = bus.subscribe(maxlen=4)
        for n in range(10):
            bus.publish("counter", n=n)
        got = sub.pop_all()
        # The newest 4 survive; the 6 older ones are counted dropped.
        assert [event["n"] for event in got] == [6, 7, 8, 9]
        assert sub.dropped == 6
        assert bus.dropped == 6
        sub.close()

    def test_publisher_never_blocks_on_dead_subscriber(self):
        bus = EventBus()
        bus.subscribe(maxlen=2)      # never drained
        clock = time.perf_counter()
        for n in range(10_000):
            bus.publish("counter", n=n)
        elapsed = time.perf_counter() - clock
        # 10k publishes into a saturated queue stay well under a
        # second: drop-oldest is O(1) and lock-bounded.
        assert elapsed < 1.0
        assert bus.dropped == 10_000 - 2

    def test_closed_subscription_stops_receiving(self):
        bus = EventBus()
        sub = bus.subscribe()
        bus.publish("a")
        sub.close()
        bus.publish("b")
        assert sub.closed
        assert bus.subscribers == 0

    def test_ring_replay_since(self):
        bus = EventBus(ring_size=8)
        for n in range(12):
            bus.publish("counter", n=n)
        replayed = bus.replay(0)
        assert len(replayed) == 8          # ring capacity
        assert replayed[-1]["n"] == 11
        newest = bus.replay(bus.seq - 2)
        assert [event["n"] for event in newest] == [10, 11]

    def test_wakeup_callback_fires_and_errors_are_swallowed(self):
        bus = EventBus()
        fired = []
        bus.subscribe(wakeup=lambda: fired.append(True))

        def explode():
            raise RuntimeError("wakeup crashed")

        bus.subscribe(wakeup=explode)
        bus.publish("tick")            # must not raise
        assert fired

    def test_drop_counts_attribute_losses_per_consumer(self):
        bus = EventBus()
        slow = bus.subscribe(maxlen=2, name="sse")
        other = bus.subscribe(maxlen=2, name="dashboard")
        fast = bus.subscribe(name="logger")
        for n in range(8):
            bus.publish("counter", n=n)
        counts = bus.drop_counts()
        assert counts["sse"] == 6
        assert counts["dashboard"] == 6
        assert counts.get("logger", 0) == 0
        # Closing keeps the blame on the books: a leaky consumer that
        # disconnects must not launder its losses.
        slow.close()
        assert bus.drop_counts()["sse"] == 6
        # Two subscriptions sharing a name sum their drops: the full
        # first subscription sheds 2 more, the new maxlen-1 one sheds 1.
        second = bus.subscribe(maxlen=1, name="dashboard")
        bus.publish("counter", n=8)
        bus.publish("counter", n=9)
        assert bus.drop_counts()["dashboard"] == 6 + 2 + 1
        other.close()
        second.close()
        fast.close()

    def test_concurrent_publishers_never_block_on_slow_consumers(self):
        bus = EventBus()
        for n in range(4):
            bus.subscribe(maxlen=2, name=f"stuck{n}")  # never drained
        errors = []

        def hammer(worker):
            try:
                for n in range(2_000):
                    bus.publish("counter", worker=worker, n=n)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(4)]
        clock = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        elapsed = time.perf_counter() - clock
        assert not errors
        assert elapsed < 5.0            # drop-oldest, not backpressure
        # Every event not sitting in a queue was counted dropped.
        assert bus.dropped == 4 * (4 * 2_000 - 2)

    def test_get_blocks_until_event(self):
        bus = EventBus()
        sub = bus.subscribe()
        results = []
        waiter = threading.Thread(
            target=lambda: results.append(sub.get(timeout=5)))
        waiter.start()
        time.sleep(0.05)
        bus.publish("ping")
        waiter.join(timeout=5)
        assert results and results[0]["type"] == "ping"
        assert sub.get(timeout=0.01) is None   # drained: times out


# ----------------------------------------------------------------------
# Publishers: tracer and registry
# ----------------------------------------------------------------------
class TestPublishers:
    def test_tracer_publishes_span_open_and_close(self):
        bus = EventBus()
        tracer = Tracer()
        tracer.attach_stream(bus)
        with bus.subscribe() as sub:
            with tracer.span("solve", cat="solver", set=3) as span:
                span.inc("pivots", 7)
            events = sub.pop_all()
        kinds = [event["type"] for event in events]
        assert kinds == ["span_open", "span"]
        close = events[1]
        assert close["name"] == "solve" and close["cat"] == "solver"
        assert close["args"]["pivots"] == 7

    def test_absorb_republishes_worker_records(self):
        worker = Tracer()
        with worker.span("set.worst", cat="solver", set=1):
            pass
        bus = EventBus()
        parent = Tracer()
        parent.attach_stream(bus)
        with bus.subscribe() as sub:
            parent.absorb(worker.records())
            events = sub.pop_all()
        assert [event["type"] for event in events] == ["span"]
        assert events[0]["name"] == "set.worst"

    def test_registry_publishes_counter_and_gauge(self):
        bus = EventBus()
        registry = MetricsRegistry()
        registry.attach_stream(bus)
        with bus.subscribe() as sub:
            registry.counter("engine.lp_calls").inc(3)
            registry.gauge("service.queue_depth").set(5)
            events = sub.pop_all()
        assert events[0]["type"] == "counter"
        assert events[0]["name"] == "engine.lp_calls"
        assert events[0]["delta"] == 3 and events[0]["value"] == 3
        assert events[1]["type"] == "gauge"
        assert events[1]["value"] == 5


# ----------------------------------------------------------------------
# SSE framing
# ----------------------------------------------------------------------
class TestSseFraming:
    def test_format_and_parse_roundtrip_multi_event(self):
        bus = EventBus()
        events = [bus.publish("job_start", name="a"),
                  bus.publish("set_done", set=0, pivots=12),
                  bus.publish("job_done", name="a", worst=722)]
        wire = b"".join([sse_comment("hello")]
                        + [sse_format(event) for event in events]
                        + [sse_comment()])
        parsed = list(parse_sse_stream(io.BytesIO(wire)))
        assert [event["type"] for event in parsed] == \
            ["job_start", "set_done", "job_done"]
        assert [event["seq"] for event in parsed] == \
            [event["seq"] for event in events]
        assert parsed[1]["pivots"] == 12

    def test_parse_tolerates_partial_trailing_event(self):
        wire = sse_format({"type": "a", "seq": 1}) \
            + b"id: 2\nevent: b\n"        # EOF before dispatch
        parsed = list(parse_sse_stream(io.BytesIO(wire)))
        assert [event["type"] for event in parsed] == ["a"]


# ----------------------------------------------------------------------
# Service: SSE endpoints, keep-alive
# ----------------------------------------------------------------------
class TestServiceStreaming:
    def test_watch_streams_per_set_progress_before_bound(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            job = client.submit({"benchmark": "check_data"})
            events = list(client.watch(job["id"]))
            record = client.wait(job["id"])
        kinds = [event["type"] for event in events]
        assert "set_done" in kinds
        terminal = kinds.index("job_done") if "job_done" in kinds \
            else len(kinds)
        assert any(kind == "set_done" for kind in kinds[:terminal])
        done = [event for event in events
                if event["type"] == "job_done"]
        if done:                      # else the stream ended on state
            assert done[0]["worst"] == record["worst"]

    def test_watch_replays_for_late_attacher(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])    # finish first, then attach
            events = list(client.watch(job["id"]))
        kinds = [event["type"] for event in events]
        assert "set_done" in kinds    # ring replay, not just state

    def test_watch_reconnect_resumes_from_last_event_id(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])
            replayed = list(client.watch(job["id"]))
            assert replayed
            midpoint = replayed[len(replayed) // 2]["seq"]
            resumed = list(client.watch(job["id"], since=midpoint))
        resumed_data = [event for event in resumed
                        if event["type"] != "state"]
        assert all(event["seq"] > midpoint for event in resumed_data)
        assert len(resumed_data) < len(replayed)

    def test_firehose_carries_lifecycle_of_all_jobs(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            sub_events = []
            done = threading.Event()

            def tail():
                for event in client.watch(since=0):
                    sub_events.append(event)
                    if event.get("type") == "job_done":
                        done.set()
                        return

            # The firehose tails live events only, so submit once the
            # stream has subscribed to the bus.
            bus = handle.service.bus
            before = bus.subscribers
            tailer = threading.Thread(target=tail, daemon=True)
            tailer.start()
            deadline = time.monotonic() + 10
            while bus.subscribers == before \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])
            assert done.wait(timeout=30)
            tailer.join(timeout=5)
        kinds = {event["type"] for event in sub_events}
        assert "job_done" in kinds

    def test_sse_endpoint_404_for_unknown_job(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            with pytest.raises(Exception) as caught:
                list(client.watch("nope"))
            assert "404" in str(caught.value)

    def test_keepalive_socket_reused_across_requests(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            client.healthz()
            first = client._local.connection
            assert client._local.used
            client.healthz()
            assert client._local.connection is first
            client.close()
            assert client._local.connection is None

    def test_metricz_counts_stream_drops_and_subscribers(self):
        with _thread_service() as handle:
            client = ServiceClient(port=handle.port)
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])
            snapshot = client.metricz()
        assert snapshot["stream.dropped"]["type"] == "gauge"
        assert snapshot["stream.subscribers"]["type"] == "gauge"


# ----------------------------------------------------------------------
# Live dashboard (line mode; the ANSI path needs a real terminal)
# ----------------------------------------------------------------------
class TestLiveDashboard:
    def _run(self, events):
        bus = EventBus()
        out = io.StringIO()
        with LiveDashboard(bus, stream=out, live=False, interval=0.01):
            for kind, payload in events:
                bus.publish(kind, **payload)
            time.sleep(0.1)
        return out.getvalue()

    def test_line_mode_logs_lifecycle(self):
        text = self._run([
            ("job_start", {"name": "des"}),
            ("set_done", {"job": "j1", "name": "des", "set": 0,
                          "pivots": 40, "nodes": 2}),
            ("set_done", {"job": "j1", "name": "des", "set": 1,
                          "pivots": 41, "nodes": 2}),
            ("job_done", {"name": "des", "status": "ok", "sets": 2,
                          "worst": 722}),
        ])
        assert "job des: started" in text
        assert "set 0 done" in text
        assert "job des: ok 2 sets worst=722" in text
        assert "jobs done" in text            # final summary line

    def test_line_mode_counts_cache_hits(self):
        text = self._run([
            ("counter", {"name": "engine.cache.hits.job", "delta": 1,
                         "value": 1}),
            ("counter", {"name": "engine.cache.misses.job", "delta": 1,
                         "value": 1}),
        ])
        assert "cache 50% hit" in text

    def test_live_capable_rejects_dumb_terminals(self, monkeypatch):
        from repro.obs.dashboard import live_capable

        monkeypatch.setenv("TERM", "dumb")
        assert not live_capable(io.StringIO())
        monkeypatch.setenv("TERM", "xterm-256color")
        assert not live_capable(io.StringIO())   # not a tty either


# ----------------------------------------------------------------------
# Trace diffing
# ----------------------------------------------------------------------
def _trace_file(tmp_path, name, pivots_by_set):
    events = [{"name": "solve", "cat": "pipeline", "ph": "X",
               "ts": 0, "dur": 1000, "pid": 1, "tid": 1, "args": {}}]
    for index, pivots in pivots_by_set.items():
        events.append({
            "name": "set.worst", "cat": "solver", "ph": "X",
            "ts": index * 100, "dur": 500 + pivots, "pid": 1, "tid": 1,
            "args": {"set": index, "pivots": pivots, "nodes": 2,
                     "lp_calls": 1}})
    path = tmp_path / name
    path.write_text(json.dumps({"traceEvents": events}))
    return str(path)


class TestTraceDiff:
    def test_names_the_set_whose_pivots_changed(self, tmp_path):
        before = load_trace_events(
            _trace_file(tmp_path, "a.json", {0: 100, 1: 50}))
        after = load_trace_events(
            _trace_file(tmp_path, "b.json", {0: 40, 1: 50}))
        deltas = diff_traces(before, after)
        changed = [delta for delta in deltas if delta.changed]
        assert changed
        top = changed[0]
        assert top.key == "solver:set.worst[set=0]"
        assert top.effort_delta("pivots") == -60
        # set 1 is unchanged in effort, so it must not be flagged.
        assert all(delta.key != "solver:set.worst[set=1]"
                   for delta in changed)

    def test_render_reports_total_row(self, tmp_path):
        before = load_trace_events(
            _trace_file(tmp_path, "a.json", {0: 100}))
        after = load_trace_events(
            _trace_file(tmp_path, "b.json", {0: 70}))
        text = render_trace_diff(diff_traces(before, after))
        assert "set.worst[set=0]" in text
        assert "total" in text

    def test_span_key_and_aggregate(self, tmp_path):
        events = load_trace_events(
            _trace_file(tmp_path, "a.json", {0: 10, 1: 20}))
        aggregates = aggregate_trace(events)
        assert span_key(events[1]) == "solver:set.worst[set=0]"
        assert aggregates["pipeline:solve"].count == 1

    def test_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps({"counters": {}}))
        with pytest.raises(SchemaMismatchError) as caught:
            load_trace_events(str(path))
        assert "repro obs diff" in str(caught.value)


# ----------------------------------------------------------------------
# Schema-version guard rails through the CLI
# ----------------------------------------------------------------------
class TestSchemaMismatchExits:
    def test_obs_diff_rejects_future_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"schema": 99, "counters": {}}))
        code = main(["obs", "diff", str(snap), str(snap)])
        err = capsys.readouterr().err
        assert code == 1
        assert "schema 99" in err and "schema 2" in err

    def test_obs_diff_accepts_v1_and_v2_snapshots(self, tmp_path,
                                                  capsys):
        counter = {"type": "counter", "value": 1}
        v1 = tmp_path / "v1.json"
        v1.write_text(json.dumps({"schema": 1, "engine.lp_calls": counter}))
        v2 = tmp_path / "v2.json"
        v2.write_text(json.dumps({"schema": 2, "engine.lp_calls": counter,
                                  "_ts": {"type": "meta", "wall": 1.0}}))
        assert main(["obs", "diff", str(v1), str(v2)]) == 0

    def test_obs_dump_rejects_future_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"schema": 7}))
        assert main(["obs", "dump", str(snap)]) == 1
        assert "re-export" in capsys.readouterr().err

    def test_explain_against_rejects_future_schema(self, tmp_path,
                                                   capsys):
        saved = tmp_path / "expl.json"
        saved.write_text(json.dumps({"schema": 9, "bound": 1}))
        code = main(["explain", "check_data", "--against", str(saved)])
        err = capsys.readouterr().err
        assert code == 1
        assert "version 9" in err

    def test_explain_against_rejects_wrong_shape(self, tmp_path,
                                                 capsys):
        saved = tmp_path / "expl.json"
        saved.write_text(json.dumps({"not": "an explanation"}))
        code = main(["explain", "check_data", "--against", str(saved)])
        assert code == 1
        assert "explain --json" in capsys.readouterr().err

    def test_diff_trace_rejects_metrics_snapshot(self, tmp_path,
                                                 capsys):
        snap = tmp_path / "snap.json"
        snap.write_text(json.dumps({"schema": 1, "counters": {}}))
        code = main(["obs", "diff-trace", str(snap), str(snap)])
        assert code == 1
        assert "repro obs diff" in capsys.readouterr().err

    def test_current_schema_snapshots_round_trip(self, tmp_path,
                                                 capsys):
        registry = MetricsRegistry()
        registry.counter("engine.lp_calls").inc(4)
        path = tmp_path / "snap.json"
        registry.dump(path)
        data = json.loads(path.read_text())
        assert data["schema"] == 2
        assert main(["obs", "dump", str(path)]) == 0
        assert "engine.lp_calls" in capsys.readouterr().out
