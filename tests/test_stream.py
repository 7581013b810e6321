"""Telemetry streaming: event bus, SSE framing, the ``/v1/events``
stream, keep-alive and trace diffing.

Backpressure is the load-bearing property: a slow (or dead) subscriber
may lose events — counted, never silently — but must not be able to
stall a publisher, because the service publishes from its event loop.
"""

import collections
import io
import json
import logging
import random
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.errors import SchemaMismatchError
from repro.engine import execute_job
from repro.obs import (EventBus, MetricsRegistry, aggregate_trace,
                       diff_traces, load_trace_events,
                       parse_sse_stream, render_trace_diff,
                       sse_comment, sse_format, span_key)
from repro.service import ServiceClient, ServiceThread


def _thread_service(**kwargs):
    kwargs.setdefault("executor", "thread")
    kwargs.setdefault("workers", 2)
    return ServiceThread(**kwargs)


def _until_done(stream, job_id):
    """A firehose stream's events up to `job_id`'s ``job_done``; the
    stream is closed after it."""
    events = []
    for event in stream:
        events.append(event)
        if event["type"] == "job_done" and event["job"] == job_id:
            break
    stream.close()
    return events


# ----------------------------------------------------------------------
# EventBus core
# ----------------------------------------------------------------------
class TestEventBus:
    def test_publish_stamps_seq_ts_type(self):
        bus = EventBus()
        first = bus.publish("job_running", name="a")
        second = bus.publish("job_done", name="a")
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
        published = [bus.publish("counter", n=n) for n in range(12)]
        replayed = bus.replay(0)
        assert len(replayed) == 8          # ring capacity
        assert replayed[-1]["n"] == 11
        newest = bus.replay(published[-1]["seq"] - 2)
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

    def test_dropped_totals_live_and_closed_consumers(self):
        bus = EventBus()
        slow = bus.subscribe(maxlen=2)
        other = bus.subscribe(maxlen=3)
        fast = bus.subscribe()
        for n in range(8):
            bus.publish("counter", n=n)
        assert (slow.dropped, other.dropped, fast.dropped) == (6, 5, 0)
        assert bus.dropped == 11
        # Closing keeps the losses on the books: a leaky consumer that
        # disconnects must not launder them.
        slow.close()
        bus.publish("counter", n=8)
        assert bus.dropped == 11 + 1
        other.close()
        fast.close()
        assert bus.dropped == 12

    def test_concurrent_publishers_never_block_on_slow_consumers(self):
        bus = EventBus()
        for _ in range(4):
            bus.subscribe(maxlen=2)     # never drained
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

    def test_concurrent_drains_lose_and_repeat_nothing(self):
        # Publishers and a draining consumer share the bus's lock:
        # every event offered is drained exactly once or counted
        # dropped, and a closed subscription's drops count once.
        bus = EventBus()
        sub = bus.subscribe(maxlen=64)
        drained, stop = [], threading.Event()

        def drain():
            while not stop.is_set():
                drained.extend(sub.pop_all())

        def hammer(worker):
            for n in range(2_000):
                bus.publish("counter", worker=worker, n=n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            drainer = threading.Thread(target=drain)
            publishers = [threading.Thread(target=hammer, args=(w,))
                          for w in range(4)]
            drainer.start()
            for thread in publishers:
                thread.start()
            for thread in publishers:
                thread.join(timeout=60)
            stop.set()
            drainer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive()
                       for thread in [drainer, *publishers])
        drained.extend(sub.pop_all())
        assert len(drained) + sub.dropped == 4 * 2_000
        assert len({event["seq"] for event in drained}) == len(drained)
        for worker in range(4):
            mine = [event["n"] for event in drained
                    if event["worker"] == worker]
            assert mine == sorted(mine)
        closers = [threading.Thread(target=sub.close) for _ in range(4)]
        for thread in closers:
            thread.start()
        for thread in closers:
            thread.join(timeout=10)
        assert sub.closed and bus.subscribers == 0
        assert bus.dropped == sub.dropped

    @pytest.mark.parametrize("seed", range(24))
    def test_drop_oldest_matches_a_bounded_queue_model(self, seed):
        """Under any interleaving of publishes, drains, subscribes and
        closes, each queue holds the newest ``maxlen`` events it was
        offered, ``dropped`` counts the rest, the bus's total keeps a
        closed consumer's losses, and the ring keeps the newest
        ``ring_size`` events."""
        rng = random.Random(seed)
        ring_size = rng.randint(1, 64)
        bus = EventBus(ring_size=ring_size)
        live = {}                       # subscription -> model queue
        dropped = collections.Counter()  # subscription -> model drops
        published = []
        for step in range(rng.randint(50, 400)):
            action = rng.random()
            if action < 0.1 and len(live) < 6:
                maxlen = rng.randint(1, 12)
                sub = bus.subscribe(maxlen=maxlen)
                live[sub] = collections.deque(maxlen=maxlen)
            elif action < 0.15 and live:
                sub = rng.choice(list(live))
                sub.close()
                del live[sub]
                assert sub.closed
            elif action < 0.3 and live:
                sub = rng.choice(list(live))
                assert sub.pop_all() == list(live[sub])
                live[sub].clear()
            else:
                published.append(bus.publish("counter", n=step))
                for sub, model in live.items():
                    if len(model) == model.maxlen:
                        dropped[sub] += 1
                    model.append(published[-1])
            assert bus.subscribers == len(live)
            assert bus.dropped == sum(dropped.values())
        for sub, model in live.items():
            assert sub.pop_all() == list(model)
            assert sub.dropped == dropped[sub]
        assert bus.dropped == sum(dropped.values())
        assert [event["seq"] for event in published] \
            == list(range(1, len(published) + 1))
        assert bus.replay(0) == published[-ring_size:]
        since = rng.randint(0, len(published))
        assert bus.replay(since) \
            == [event for event in published[-ring_size:]
                if event["seq"] > since]
        for sub in live:
            sub.close()
        assert bus.subscribers == 0
        assert bus.dropped == sum(dropped.values())

    def test_wakeup_runs_after_the_event_is_queued(self):
        # The SSE writer drains its queue when woken: the event that
        # woke it must already be there.
        bus = EventBus()
        seen = []
        sub = bus.subscribe(wakeup=lambda: seen.append(sub.pop_all()))
        bus.publish("job_queued", job="j1")
        bus.publish("job_running", job="j1")
        sub.close()
        assert [[event["type"] for event in batch] for batch in seen] \
            == [["job_queued"], ["job_running"]]


# ----------------------------------------------------------------------
# SSE framing
# ----------------------------------------------------------------------
class TestSseFraming:
    def test_format_and_parse_roundtrip_multi_event(self):
        bus = EventBus()
        events = [bus.publish("job_running", name="a"),
                  bus.publish("chaos_fault", point="worker.hang", n=12),
                  bus.publish("job_done", name="a", worst=722)]
        wire = b"".join([sse_comment("hello")]
                        + [sse_format(event) for event in events]
                        + [sse_comment()])
        parsed = list(parse_sse_stream(io.BytesIO(wire)))
        assert [event["type"] for event in parsed] == \
            ["job_running", "chaos_fault", "job_done"]
        assert [event["seq"] for event in parsed] == \
            [event["seq"] for event in events]
        assert parsed[1]["n"] == 12

    def test_parse_tolerates_partial_trailing_event(self):
        wire = sse_format({"type": "a", "seq": 1}) \
            + b"id: 2\nevent: b\n"        # EOF before dispatch
        parsed = list(parse_sse_stream(io.BytesIO(wire)))
        assert [event["type"] for event in parsed] == ["a"]

    @pytest.mark.parametrize("wire, events", [
        pytest.param(b'id: 7\nevent: job_done\ndata: {"job": "j1"}\n\n',
                     [{"job": "j1", "type": "job_done", "seq": 7}],
                     id="id-and-event-fill-the-payload"),
        pytest.param(b'id: 3\nevent: job_done\n'
                     b'data: {"type": "job_failed", "seq": 9}\n\n',
                     [{"type": "job_failed", "seq": 9}],
                     id="payload-fields-win"),
        pytest.param(b'id: x7\ndata: {"n": 1}\n\n', [{"n": 1}],
                     id="non-integer-id-is-ignored"),
        pytest.param(b"data: not json\n\n", [{"data": "not json"}],
                     id="non-json-data-is-kept-as-text"),
        pytest.param(b"data: [1, 2]\n\n", [{"data": [1, 2]}],
                     id="non-object-json-is-wrapped"),
        pytest.param(b'data: {"a":\r\ndata: 1}\r\n\r\n', [{"a": 1}],
                     id="crlf-multi-line-data-is-joined"),
        pytest.param(b'data:{"a": 1}\n\n', [{"a": 1}],
                     id="no-space-after-colon"),
        pytest.param(b": keepalive\n\nevent: ping\n\n", [],
                     id="heartbeats-and-dataless-events-yield-nothing"),
    ])
    def test_parse_frames(self, wire, events):
        assert list(parse_sse_stream(io.BytesIO(wire))) == events


# ----------------------------------------------------------------------
# Service: SSE endpoints, keep-alive
# ----------------------------------------------------------------------
class TestServiceStreaming:
    def test_firehose_watch_since_resumes_after_that_event(self):
        # A reconnecting client sends the last seq it saw: the stream
        # yields only the newer events, each once.
        with _thread_service() as handle, \
                ServiceClient(port=handle.port) as client:
            for name in ("check_data", "piksrt"):
                last = client.wait(
                    client.submit({"benchmark": name})["id"])
            replayed = _until_done(client.watch(since=0), last["id"])
            midpoint = replayed[len(replayed) // 2]["seq"]
            resumed = _until_done(client.watch(since=midpoint),
                                  last["id"])
        seqs = [event["seq"] for event in resumed]
        assert seqs == [event["seq"] for event in replayed
                        if event["seq"] > midpoint]
        assert seqs and len(set(seqs)) == len(seqs)
        assert seqs[0] == midpoint + 1

    def test_event_published_during_replay_is_written_once(
            self, monkeypatch):
        # An event published between a stream's subscribe and its ring
        # replay is in both; the stream writes it once.
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            bus = handle.service.bus
            replay = bus.replay

            def racing_replay(since):
                bus.publish("chaos_fault", point="race", n=1, seed=0)
                return replay(since)

            monkeypatch.setattr(bus, "replay", racing_replay)
            stream = client.watch(since=0)
            events = [next(stream)]
            bus.publish("service_recovered")
            for event in stream:
                events.append(event)
                if event["type"] == "service_recovered":
                    break
            stream.close()
        assert [event["type"] for event in events] \
            == ["chaos_fault", "service_recovered"]

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
        # Each job's firehose events are its lifecycle, nothing else:
        # its per-set results and spans stay in its record, and metric
        # values in /metricz.
        with _thread_service(workers=1, cache_dir=tmp_path) as handle, \
                ServiceClient(port=handle.port) as client:
            miss = client.wait(
                client.submit({"benchmark": "check_data"})["id"])
            hit = client.wait(
                client.submit({"benchmark": "check_data"})["id"])
            events = _until_done(client.watch(since=0), hit["id"])
        assert not miss["cache_hit"] and hit["cache_hit"]
        for record in (miss, hit):
            mine = [event for event in events
                    if event.get("job") == record["id"]]
            assert [event["type"] for event in mine] \
                == ["job_queued", "job_running", "job_done"]
            done = mine[-1]
            assert done["name"] == "check_data"
            assert done["status"] == "ok"
            assert done["cache_hit"] == record["cache_hit"]
            assert (done["best"], done["worst"]) \
                == (record["best"], record["worst"])
            assert done["sets"] == len(record["report"]["set_results"])
        assert {event["type"] for event in events} \
            == {"job_queued", "job_running", "job_done"}

    def test_record_holds_what_set_and_span_events_carried(self):
        # The bus no longer copies a finished job's sets and spans: GET
        # /v1/jobs/{id} holds every field a set event carried, and
        # /trace every span record.
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit({"benchmark": "dhry"})["id"]
            record = client.wait(job)
            doc = client.trace(job)
            stored = handle.service.records[job]
        sets = record["report"]["set_results"]
        assert len(sets) == len(stored.report.set_results) > 1
        for wire, solved in zip(sets, stored.report.set_results):
            removed = {"set": solved.index, "feasible": solved.feasible,
                       "pivots": solved.stats.simplex_iterations,
                       "nodes": solved.stats.nodes,
                       "wall": solved.wall_time, "worst": solved.worst,
                       "best": solved.best}
            assert removed == {
                "set": wire["index"],
                "feasible": wire["status"] == "optimal",
                "pivots": wire["stats"]["simplex_iterations"],
                "nodes": wire["stats"]["nodes"],
                "wall": wire["wall_time"], "worst": wire["worst"],
                "best": wire["best"]}
        assert {wire["status"] for wire in sets} \
            == {"optimal", "infeasible"}
        events = [event for event in doc["traceEvents"]
                  if event["ph"] == "X"]
        assert len(events) == len(stored.spans) > 1
        for span, event in zip(stored.spans, events):
            # A span event's fields; its depth is the trace's nesting.
            assert (event["name"], event["cat"], event["pid"],
                    event["args"]) \
                == (span["name"], span["cat"], span["pid"], span["args"])
            assert event["dur"] == round(span["dur"] * 1e6, 3)
            if span["depth"]:
                end = event["ts"] + event["dur"]
                assert any(
                    outer["tid"] == event["tid"]
                    and outer["ts"] <= event["ts"] + 1e-3
                    and end <= outer["ts"] + outer["dur"] + 1e-3
                    for outer, parent in zip(events, stored.spans)
                    if parent["depth"] == span["depth"] - 1)

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

    def test_per_job_event_stream_is_gone(self):
        # A job's lifecycle is in its record: there is no per-job
        # stream, for a known job or an unknown one.
        with _thread_service(workers=1) as handle, \
                ServiceClient(port=handle.port) as client:
            job = client.submit({"benchmark": "check_data"})["id"]
            client.wait(job)
            answers = [client._request("GET", f"/v1/jobs/{job_id}/events")
                       for job_id in (job, "nope")]
        for (status, _, data), job_id in zip(answers, (job, "nope")):
            assert status == 404, data
            assert data == {"error":
                            f"no route for /v1/jobs/{job_id}/events"}

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
        assert [name for name in snapshot
                if name.startswith("obs.stream.")] == []


# ----------------------------------------------------------------------
# Removed surfaces
# ----------------------------------------------------------------------
class TestNoLiveViews:
    """The live dashboard and per-job following are gone: their flags
    are usage errors, and the engine publishes nothing."""

    @pytest.mark.parametrize("argv", [
        ["engine", "run", "check_data", "--live"],
        ["submit", "check_data", "--follow"],
    ], ids=["engine-run-live", "submit-follow"])
    def test_cli_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_experiments_live_is_a_usage_error(self, capsys):
        from repro.experiments.__main__ import main as experiments

        with pytest.raises(SystemExit) as caught:
            experiments(["table1", "--live"])
        assert caught.value.code == 2
        assert "--live" in capsys.readouterr().err

    def test_engine_takes_no_bus(self):
        from repro.engine import AnalysisEngine

        with pytest.raises(TypeError):
            AnalysisEngine(workers=1, bus=EventBus())

    def test_watch_takes_no_job_id(self):
        # A job id where `since` used to follow it is refused, not
        # read as a sequence number.
        with ServiceClient(port=1) as client, pytest.raises(TypeError):
            client.watch("j000001")


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
