"""Telemetry streaming: event bus, SSE framing and endpoints, live
dashboard, keep-alive and trace diffing.

Backpressure is the load-bearing property: a slow (or dead) subscriber
may lose events — counted, never silently — but must not be able to
stall a publisher, because publishers sit inside the solver hot path.
"""

import collections
import io
import json
import logging
import re
import threading
import time

import pytest

from repro.cli import main
from repro.errors import SchemaMismatchError
from repro.engine import AnalysisEngine, AnalysisJob, execute_job
from repro.obs import (EventBus, LiveDashboard, MetricsRegistry, Tracer,
                       aggregate_trace, diff_traces, load_trace_events,
                       parse_sse_stream, render_console, render_trace_diff,
                       sse_comment, sse_format, span_key)
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
        first = bus.publish("job_running", name="a")
        second = bus.publish("set_done", set=3)
        assert first["type"] == "job_running" and first["name"] == "a"
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
# SSE framing
# ----------------------------------------------------------------------
class TestSseFraming:
    def test_format_and_parse_roundtrip_multi_event(self):
        bus = EventBus()
        events = [bus.publish("job_running", name="a"),
                  bus.publish("set_done", set=0, pivots=12),
                  bus.publish("job_done", name="a", worst=722)]
        wire = b"".join([sse_comment("hello")]
                        + [sse_format(event) for event in events]
                        + [sse_comment()])
        parsed = list(parse_sse_stream(io.BytesIO(wire)))
        assert [event["type"] for event in parsed] == \
            ["job_running", "set_done", "job_done"]
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
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
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
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])    # finish first, then attach
            events = list(client.watch(job["id"]))
        kinds = [event["type"] for event in events]
        assert "set_done" in kinds    # ring replay, not just state

    def test_watch_reconnect_resumes_from_last_event_id(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
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
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            sub_events = []
            done = threading.Event()

            def tail():
                for event in client.watch(since=0):
                    sub_events.append(event)
                    if event.get("type") == "job_done":
                        done.set()
                        return

            tailer = threading.Thread(target=tail, daemon=True)
            tailer.start()
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])
            assert done.wait(timeout=30)
            tailer.join(timeout=5)
        kinds = {event["type"] for event in sub_events}
        assert "job_done" in kinds

    def test_firehose_since_zero_replays_finished_jobs(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit({"benchmark": "check_data"})
            client.wait(job["id"])
            kinds = []
            done = threading.Event()

            def tail():
                for event in client.watch(since=0):
                    if event.get("job") == job["id"]:
                        kinds.append(event["type"])
                    if event.get("type") == "job_done":
                        done.set()
                        return

            # Opened after the job finished: only the ring replay can
            # carry its lifecycle.
            threading.Thread(target=tail, daemon=True).start()
            assert done.wait(timeout=10), kinds
        assert kinds[0] == "job_queued" and kinds[-1] == "job_done"

    def test_firehose_watch_without_since_tails_live_events(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            first = client.submit({"benchmark": "check_data"})["id"]
            client.wait(first)
            bus = handle.service.bus
            subscribers = bus.subscribers
            jobs = []
            done = threading.Event()

            def tail():
                for event in client.watch():
                    if "job" in event:
                        jobs.append(event["job"])
                    if event.get("type") == "job_done":
                        done.set()
                        return

            threading.Thread(target=tail, daemon=True).start()
            deadline = time.monotonic() + 10
            while bus.subscribers == subscribers \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            second = client.submit({"benchmark": "check_data"})["id"]
            assert done.wait(timeout=30), jobs
        # No Last-Event-ID: the firehose replays nothing of the job
        # that finished before the stream opened.
        assert jobs and set(jobs) == {second}

    def test_firehose_holds_one_event_per_fact(self, tmp_path):
        # A job's firehose events are its lifecycle, one set_done per
        # set and its spans; metric values live only in /metricz.
        with _thread_service(workers=1, cache_dir=tmp_path,
                             series=False) as handle, \
                ServiceClient(port=handle.port) as client:
            miss = client.wait(
                client.submit({"benchmark": "check_data"})["id"])
            hit = client.wait(
                client.submit({"benchmark": "check_data"})["id"])
            stream = client.watch(since=0)
            events = []
            for event in stream:
                events.append(event)
                if event["type"] == "job_done" \
                        and event["job"] == hit["id"]:
                    break
            stream.close()
        assert not miss["cache_hit"] and hit["cache_hit"]
        sets = len(hit["report"]["set_results"])
        split = [event["type"] for event in events].index("job_done") + 1
        lifecycle = ["job_queued", "job_running"] + ["set_done"] * sets
        for record, stream_events in ((miss, events[:split]),
                                      (hit, events[split:])):
            kinds = [event["type"] for event in stream_events]
            assert kinds[:len(lifecycle)] == lifecycle
            assert kinds[len(lifecycle)] == "span"
            envelope = stream_events[len(lifecycle)]
            assert envelope["name"] == "service.job"
            assert envelope["args"]["job"] == record["id"]
            assert kinds[-1] == "job_done"
            assert all(event.get("job") == record["id"]
                       for event in stream_events if event["type"]
                       in ("job_queued", "job_running", "set_done",
                           "job_done"))
            worker_spans = kinds[len(lifecycle) + 1:-1]
            if record["cache_hit"]:
                assert worker_spans == []
            else:
                assert worker_spans and set(worker_spans) == {"span"}
        assert not {event["type"] for event in events} \
            & {"counter", "gauge", "observe", "span_open"}

    def test_console_listens_for_every_firehose_event_type(self):
        # An EventSource hands a named SSE event only to listeners of
        # that name, so the console needs one per type it shows.
        with _thread_service(workers=1, series=False) as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit({"benchmark": "check_data"})["id"]
            client.wait(job)
            types = set()
            stream = client.watch(since=0)
            for event in stream:
                types.add(event["type"])
                if event["type"] == "job_done":
                    break
            stream.close()
        page = render_console().decode()
        listed = re.search(r"for \(const type of \[(.*?)\]\)\s*"
                           r"source\.addEventListener\(type, show\);",
                           page, re.S)
        assert listed is not None
        assert "onmessage" not in page
        assert types >= {"job_queued", "job_running", "set_done", "span",
                         "job_done"}
        assert types <= set(re.findall(r'"(\w+)"', listed.group(1)))

    def test_abandoned_firehose_streams_log_nothing(self, caplog):
        # Streams whose clients went away stop writing: asyncio logs
        # each write to a lost connection after the fifth.
        caplog.set_level(logging.WARNING, logger="asyncio")
        gate, running = threading.Event(), threading.Event()

        def held(payload):
            result = execute_job(payload)
            running.set()
            gate.wait(timeout=30)
            return result

        with _thread_service(workers=1, runner=held) as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit({"benchmark": "check_data"})["id"]
            assert running.wait(timeout=30)
            for _ in range(5):
                stream = client.watch(since=0)
                assert next(stream)["type"] == "job_queued"
                stream.close()
            time.sleep(0.2)
            gate.set()
            record = client.wait(job)
        assert record["state"] == "done"
        assert [r.getMessage() for r in caplog.records
                if "socket.send() raised" in r.getMessage()] == []

    def test_sse_endpoint_404_for_unknown_job(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            with pytest.raises(Exception) as caught:
                list(client.watch("nope"))
            assert "404" in str(caught.value)

    def test_keepalive_socket_reused_across_requests(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            client.healthz()
            ((first, used),) = client._connections.values()
            assert used
            client.healthz()
            assert client._connection()[0] is first
            client.close()
            assert client._connections == {}

    def test_close_releases_every_threads_connection(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            both_done = threading.Barrier(2)

            def probe():
                client.healthz()
                both_done.wait(timeout=10)  # two live threads, two ids

            threads = [threading.Thread(target=probe) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            client.healthz()
            connections = [connection for connection, _
                           in client._connections.values()]
            client.close()
        assert len(connections) == 3
        assert [c for c in connections if c.sock is not None] == []

    def test_metricz_counts_stream_drops_and_subscribers(self):
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
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
            ("job_running", {"name": "des"}),
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
            ("job_running", {"name": "des"}),
            ("job_done", {"name": "des", "status": "ok",
                          "cache_hit": True}),
            ("job_running", {"name": "fft"}),
            ("job_done", {"name": "fft", "status": "ok",
                          "cache_hit": False}),
        ])
        assert "job des: ok (cached)" in text
        assert "cache 50% hit" in text

    def test_pooled_jobs_keep_their_own_sets(self):
        # Two jobs on two pool workers: each set_done names its job,
        # so no job is credited with another's sets.
        bus = EventBus()
        out = io.StringIO()
        engine = AnalysisEngine(workers=2, bus=bus)
        with LiveDashboard(bus, stream=out, live=False, interval=0.01):
            results = engine.run([AnalysisJob.from_benchmark(name)
                                  for name in ("check_data", "piksrt")])
        assert all(result.ok for result in results)
        text = out.getvalue()
        sets = collections.defaultdict(list)
        for name, index in re.findall(r"job (\w+): set (\d+) done",
                                      text):
            sets[name].append(int(index))
        assert dict(sets) == {"check_data": [0, 1], "piksrt": [0]}
        assert "job check_data: ok 2 sets" in text
        assert "job piksrt: ok 1 sets" in text

    def test_pooled_engine_publishes_only_job_lifecycle(self):
        bus = EventBus()
        with bus.subscribe(maxlen=8192) as sub:
            AnalysisEngine(workers=2, bus=bus, tracer=Tracer()).run(
                [AnalysisJob.from_benchmark(name)
                 for name in ("check_data", "piksrt")])
            events = sub.pop_all()
        for name, sets in (("check_data", 2), ("piksrt", 1)):
            kinds = [event["type"] for event in events
                     if event.get("name") == name
                     and event["type"] != "span"]
            assert kinds == ["job_running"] + ["set_done"] * sets \
                + ["job_done"]
        assert {event["type"] for event in events} \
            == {"job_running", "set_done", "span", "job_done"}

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
