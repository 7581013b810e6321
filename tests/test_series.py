"""Time series, SLO burn-rate alerting and the ops console.

Unit coverage for the SeriesStore/RegistrySampler transforms, the
snapshot timestamp stamp, the alert state machine (pending → firing →
resolved with hysteresis) on synthetic series, EventBus drop-oldest
under sustained sampler load — and end-to-end: a chaos-faulted service
whose availability and degraded-mode alerts fire and resolve, visible
via /v1/alerts, the EventBus and a webhook sink, with the console and
series endpoints rendering from stdlib only.
"""

import json
import random
import threading
import time
from pathlib import Path

import pytest

from repro.chaos import inject
from repro.obs import (EventBus, MetricsRegistry, RegistrySampler,
                       SeriesStore, SLO, SLOConfigError, SLOEngine,
                       default_slos, load_slos, render_console)
from repro.obs.series import SERIES_SCHEMA
from repro.service import ClientError, ServiceClient, ServiceThread


@pytest.fixture(autouse=True)
def _pristine_injector():
    yield
    inject.reset()


def _src(name, **extra):
    return {"name": name, "source": "int f() { return 1; }",
            "entry": "f", **extra}


# ======================================================================
# SeriesStore
# ======================================================================
def _scanned_total(points, seconds, now=None):
    """``SeriesStore.window_total`` as one pass over the ring: the
    formula before the running integral."""
    if len(points) < 2:
        return 0.0
    if now is None:
        now = points[-1][0]
    cutoff = now - seconds
    total = 0.0
    for i, (ts, value) in enumerate(points):
        if ts <= cutoff:
            continue
        dt = points[i][0] - points[i - 1][0] if i else \
            points[1][0] - points[0][0]
        total += value * dt
    return total


class TestSeriesStore:
    def test_ring_respects_retention(self):
        store = SeriesStore(retention=4)
        for i in range(10):
            store.record("s", float(i), ts=float(i))
        points = store.window("s", 100.0, now=10.0)
        assert [v for _, v in points] == [6.0, 7.0, 8.0, 9.0]
        assert store.latest("s") == 9.0

    def test_window_filters_by_time(self):
        store = SeriesStore()
        for i in range(10):
            store.record("s", float(i), ts=float(i))
        assert len(store.window("s", 3.0, now=9.0)) == 3
        assert store.window_max("s", 100.0, now=9.0) == 9.0

    def test_window_total_recovers_raw_counts(self):
        store = SeriesStore()
        # 5 events/s sampled every 2s -> 10 events per point.
        for i in range(5):
            store.record("r", 5.0, ts=10.0 + 2 * i, kind="rate")
        # 4 full intervals + the first point estimated at one interval.
        assert store.window_total("r", 100.0, now=18.0) \
            == pytest.approx(50.0)

    @pytest.mark.parametrize("seed", range(24))
    def test_window_math_matches_a_scan_of_the_ring(self, seed):
        """Bisection and the running integral give what one pass over
        the ring gives, as the ring wraps; odd seeds also step the
        clock back, which a scan still handles."""
        rng = random.Random(seed)
        store = SeriesStore(retention=rng.randint(2, 40))
        ts = rng.uniform(0.0, 100.0)
        for _ in range(rng.randint(1, 4 * store.retention)):
            ts += rng.choice((0.0, rng.uniform(0.001, 3.0)))
            if seed % 2 and rng.random() < 0.1:
                ts -= rng.uniform(0.0, 5.0)
            store.record("r", rng.uniform(0.0, 50.0), ts=ts, kind="rate")
            points = list(store._series["r"].points)
            for seconds in (0.0, 0.5, 2.0, 10.0, 1e9):
                for now in (None, ts, ts + 1.0, ts - 3.0):
                    assert store.window_total("r", seconds, now=now) == \
                        pytest.approx(_scanned_total(points, seconds, now),
                                      rel=1e-9, abs=1e-9)
                    cutoff = (points[-1][0] if now is None
                              else now) - seconds
                    assert store.window("r", seconds, now=now) == \
                        [p for p in points if p[0] > cutoff]

    def test_to_dict_since_and_prefix(self):
        store = SeriesStore()
        store.record("a.x", 1.0, ts=1.0)
        store.record("a.x", 2.0, ts=2.0)
        store.record("b.y", 3.0, ts=1.0, kind="rate")
        doc = store.to_dict()
        assert doc["schema"] == SERIES_SCHEMA
        assert set(doc["series"]) == {"a.x", "b.y"}
        assert doc["series"]["b.y"]["kind"] == "rate"
        doc = store.to_dict(prefix="a.", since=1.5)
        assert list(doc["series"]) == ["a.x"]
        assert doc["series"]["a.x"]["points"] == [[2.0, 2.0]]
        json.dumps(doc)     # JSON-safe

    def test_record_many_is_record_per_point(self):
        one, many = SeriesStore(), SeriesStore()
        points = [("a", 1, "rate"), ("b", 2.5, "gauge"), ("a", 3, "rate")]
        for name, value, kind in points:
            one.record(name, value, ts=7.0, kind=kind)
        many.record_many(points, ts=7.0)
        assert many.to_dict() == one.to_dict()


# ======================================================================
# RegistrySampler
# ======================================================================
class TestRegistrySampler:
    def _fixture(self, interval=1.0, bus=None):
        clock = [100.0]
        registry = MetricsRegistry()
        store = SeriesStore()
        sampler = RegistrySampler(registry, store, interval=interval,
                                  bus=bus, clock=lambda: clock[0])
        return clock, registry, store, sampler

    def test_counters_become_rates_after_baseline(self):
        clock, registry, store, sampler = self._fixture()
        registry.counter("jobs").inc(10)
        clock[0] = 101.0
        assert sampler.maybe_sample()
        # First sight of the counter only records a baseline: a fresh
        # sampler must not report cumulative history as a rate spike.
        assert store.latest("jobs") is None
        registry.counter("jobs").inc(6)
        clock[0] = 103.0
        sampler.maybe_sample()
        assert store.latest("jobs") == 3.0          # 6 over 2s
        clock[0] = 104.0
        sampler.maybe_sample()
        assert store.latest("jobs") == 0.0          # idle tick

    def test_interval_gating(self):
        clock, registry, store, sampler = self._fixture(interval=5.0)
        clock[0] = 101.0
        assert sampler.maybe_sample()       # first tick is always due
        clock[0] = 103.0
        assert not sampler.maybe_sample()   # inside the interval
        clock[0] = 106.0
        assert sampler.maybe_sample()
        assert sampler.samples == 2

    def test_gauges_are_levels(self):
        clock, registry, store, sampler = self._fixture()
        registry.gauge("depth").set(4)
        clock[0] = 101.0
        sampler.sample()
        assert store.latest("depth") == 4.0

    def test_histograms_become_windowed_percentiles(self):
        clock, registry, store, sampler = self._fixture()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        hist.observe(0.05)
        clock[0] = 101.0
        sampler.sample()
        for _ in range(20):
            hist.observe(5.0)       # this window is all-slow
        clock[0] = 102.0
        sampler.sample()
        assert store.latest("lat.rate") == 20.0
        # Windowed percentile sees only this tick's observations — the
        # old fast one does not dilute it.
        assert store.latest("lat.p99") > 1.0
        clock[0] = 103.0
        sampler.sample()
        assert store.latest("lat.rate") == 0.0
        # No observations this tick: quantile series gain no point.
        assert store.window("lat.p99", 0.5, now=103.0) == []

    def test_bus_events_become_rates(self):
        bus = EventBus()
        clock, registry, store, sampler = self._fixture(bus=bus)
        bus.publish("job_done", job="j1")
        bus.publish("job_done", job="j2")
        clock[0] = 102.0
        # First tick has no previous timestamp, so dt falls back to
        # the configured interval (1s): 2 events -> 2.0/s.
        sampler.sample()
        assert store.latest("bus.events.job_done") == 2.0
        bus.publish("job_done", job="j3")
        clock[0] = 104.0
        sampler.sample()
        assert store.latest("bus.events.job_done") == 0.5  # 1 over 2s
        sampler.close()

    def test_snapshot_meta_is_not_sampled(self):
        clock, registry, store, sampler = self._fixture()
        registry.counter("c").inc()
        clock[0] = 101.0
        sampler.sample()
        clock[0] = 102.0
        sampler.sample()
        assert not [n for n in store.names() if n.startswith("_ts")]


# ======================================================================
# EventBus drop-oldest under sustained sampler load
# ======================================================================
class TestSamplerBusBackpressure:
    def test_drop_oldest_keeps_sampler_and_bus_alive(self):
        bus = EventBus()
        registry = MetricsRegistry()
        store = SeriesStore()
        clock = [0.0]
        sampler = RegistrySampler(registry, store, interval=1.0,
                                  bus=bus, clock=lambda: clock[0])
        stop = threading.Event()

        def hammer():
            counter = registry.counter("hot")
            while not stop.is_set():
                counter.inc()
                bus.publish("set_done", set=0)

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for tick in range(1, 6):
                time.sleep(0.05)
                clock[0] = float(tick)
                sampler.sample()
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        # The sampler's bounded subscription dropped oldest instead of
        # blocking publishers or growing without bound...
        drops = bus.drop_counts().get("series.sampler", 0)
        total = registry.value("hot")
        assert total > 0
        # ...and what it did keep was turned into rate points.
        assert store.latest("hot") is not None
        assert store.latest("bus.dropped") == sampler._sub.dropped
        assert drops == sampler._sub.dropped
        sampler.close()
        # Closed-subscription drops fold into the bus-wide accounting.
        assert bus.drop_counts().get("series.sampler", 0) == drops


# ======================================================================
# SLO configuration
# ======================================================================
class TestSLOConfig:
    def test_defaults_are_wellformed(self):
        slos = default_slos()
        names = [slo.name for slo in slos]
        assert "job-availability" in names
        assert "degraded-mode" in names
        assert len(names) == len(set(names))
        for slo in slos:
            json.dumps(slo.to_dict())

    def test_from_dict_roundtrip_and_validation(self):
        slo = SLO.from_dict({"name": "x", "kind": "level",
                             "series": "s.p99", "limit": 1.0})
        assert slo.series == ("s.p99",)
        assert SLO.from_dict(slo.to_dict()) == slo
        with pytest.raises(SLOConfigError):
            SLO.from_dict({"name": "x", "kind": "nope"})
        with pytest.raises(SLOConfigError):
            SLO.from_dict({"name": "x", "objective": 2.0})
        with pytest.raises(SLOConfigError):
            SLO.from_dict({"name": "x", "typo_key": 1})
        with pytest.raises(SLOConfigError):
            SLO.from_dict({"kind": "ratio", "bad": "b"})

    def test_load_toml_overlays_defaults(self, tmp_path):
        path = tmp_path / "slo.toml"
        path.write_text(
            '[[slo]]\n'
            'name = "job-availability"\n'
            'objective = 0.999\n'
            '\n'
            '[[slo]]\n'
            'name = "queue-latency-p99"\n'
            'disabled = true\n'
            '\n'
            '[[slo]]\n'
            'name = "custom-burn"\n'
            'kind = "zero"\n'
            'series = ["chaos.worker.kill"]\n')
        slos = {slo.name: slo for slo in load_slos(path)}
        assert slos["job-availability"].objective == 0.999
        # Non-overridden fields keep their default values.
        assert slos["job-availability"].bad \
            == ("service.jobs.done.failed", "service.jobs.rejected")
        assert "queue-latency-p99" not in slos
        assert slos["custom-burn"].series == ("chaos.worker.kill",)

    def test_load_json_and_bad_files(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps(
            {"slo": [{"name": "j", "kind": "zero", "series": ["x"]}]}))
        assert "j" in {slo.name for slo in load_slos(path)}
        bad = tmp_path / "bad.toml"
        bad.write_text("[[slo]\nname=")
        with pytest.raises(SLOConfigError):
            load_slos(bad)
        with pytest.raises(SLOConfigError):
            load_slos(tmp_path / "missing.json")

    def test_example_overlay_loads(self):
        path = Path(__file__).resolve().parents[1] / "examples" / "slo.toml"
        slos = {slo.name: slo for slo in load_slos(path)}
        assert set(slos) >= {slo.name for slo in default_slos()}
        assert slos["job-availability"].objective == 0.999
        assert slos["queue-latency-p99"].limit == 5.0
        assert slos["queue-saturation"].series == ("service.queue_depth",)

    @pytest.mark.parametrize("removed", ["peer-breaker",
                                         "tenant-429-share"])
    def test_disabling_a_removed_objective_still_loads(self, tmp_path,
                                                       removed):
        # Overlays written for earlier versions switched off the
        # per-peer breaker or the per-tenant throttle objective; such a
        # file loads unchanged.
        path = tmp_path / "slo.toml"
        path.write_text(f'[[slo]]\nname = "{removed}"\n'
                        'disabled = true\n')
        names = [slo.name for slo in load_slos(path)]
        assert names == [slo.name for slo in default_slos()]
        assert removed not in names

    @pytest.mark.parametrize("field, names", [
        pytest.param("bad", ["tenant.*.throttled_429"], id="bad"),
        pytest.param("good", ["service.jobs.submitted",
                              "tenant.*.submitted"], id="good"),
        pytest.param("series", ["service.*"], id="series"),
    ])
    def test_wildcard_series_are_rejected(self, tmp_path, capsys, field,
                                          names):
        # A '*' names no series, so the objective could never fire.
        from repro.cli import main

        entry = {"name": "starred", "kind": "zero", "series": ["x"],
                 "bad": ["y"], field: names}
        with pytest.raises(SLOConfigError, match=r"'\*'"):
            SLO.from_dict(entry)
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"slo": [entry]}))
        assert main(["serve", "--port", "0", "--no-cache",
                     "--slo", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


# ======================================================================
# Alert state machine on synthetic series
# ======================================================================
class TestAlertStateMachine:
    def _ratio_engine(self, store, pending_for=0.0, resolve_after=5.0):
        return SLOEngine(store, slos=[SLO(
            name="avail", kind="ratio", bad=("bad",), good=("good",),
            objective=0.99, fast_window=10.0, slow_window=30.0,
            fast_burn=2.0, slow_burn=1.0, pending_for=pending_for,
            resolve_after=resolve_after)], clock=lambda: 0.0)

    @staticmethod
    def _feed(store, start, seconds, bad, good):
        for i in range(int(seconds)):
            store.record("bad", bad, ts=start + i, kind="rate")
            store.record("good", good, ts=start + i, kind="rate")
        return start + seconds

    def test_burn_window_math(self):
        store = SeriesStore(retention=256)
        engine = self._ratio_engine(store)
        self._feed(store, 0.0, 40, bad=1.0, good=9.0)   # 10% errors
        engine.evaluate(now=40.0)
        alert = engine.alerts()[0]
        # error rate 0.10 against a 0.01 budget -> burn 10x both
        # windows.
        assert alert["burn_fast"] == pytest.approx(10.0, rel=0.05)
        assert alert["burn_slow"] == pytest.approx(10.0, rel=0.05)
        assert alert["state"] == "firing"
        assert alert["budget_remaining"] == 0.0

    def test_no_data_means_no_burn(self):
        store = SeriesStore()
        engine = self._ratio_engine(store)
        assert engine.evaluate(now=10.0) == []
        assert engine.alerts()[0]["state"] == "ok"

    def test_fast_blip_alone_does_not_fire(self):
        store = SeriesStore(retention=256)
        engine = self._ratio_engine(store)
        # Long healthy history, then a brief 12% error blip: the fast
        # window burns (~2.4x) but the slow window absorbs it (~0.8x).
        now = self._feed(store, 0.0, 28, bad=0.0, good=10.0)
        self._feed(store, now, 2, bad=1.2, good=8.8)
        engine.evaluate(now=30.0)
        alert = engine.alerts()[0]
        assert alert["burn_fast"] >= 2.0
        assert alert["burn_slow"] < 1.0
        assert alert["state"] == "ok"

    def test_pending_firing_resolved_lifecycle(self):
        store = SeriesStore(retention=1024)
        engine = self._ratio_engine(store, pending_for=5.0,
                                    resolve_after=10.0)
        # Sustained 50% errors: pending first, firing after 5s.
        now = self._feed(store, 0.0, 35, bad=5.0, good=5.0)
        trans = engine.evaluate(now=now)
        assert [t["state"] for t in trans] == ["pending"]
        trans = engine.evaluate(now=now + 2.0)
        assert trans == []                      # still pending
        now = self._feed(store, now, 6, bad=5.0, good=5.0)
        trans = engine.evaluate(now=now)
        assert [t["state"] for t in trans] == ["firing"]
        # Recovery: healthy traffic long enough to clear both windows.
        now = self._feed(store, now, 35, bad=0.0, good=10.0)
        trans = engine.evaluate(now=now)
        assert trans == []                      # hysteresis holds it
        now = self._feed(store, now, 11, bad=0.0, good=10.0)
        trans = engine.evaluate(now=now)
        assert [t["state"] for t in trans] == ["resolved"]
        # One visible 'resolved' tick, then quietly back to ok.
        trans = engine.evaluate(now=now + 1.0)
        assert [t["state"] for t in trans] == ["ok"]
        history = engine.alerts()[0]["history"]
        assert [h["state"] for h in history] \
            == ["pending", "firing", "resolved", "ok"]

    def test_pending_cancels_if_breach_clears(self):
        store = SeriesStore(retention=1024)
        engine = self._ratio_engine(store, pending_for=10.0)
        now = self._feed(store, 0.0, 35, bad=5.0, good=5.0)
        engine.evaluate(now=now)
        assert engine.alerts()[0]["state"] == "pending"
        now = self._feed(store, now, 40, bad=0.0, good=10.0)
        engine.evaluate(now=now)
        assert engine.alerts()[0]["state"] == "ok"
        # A cancelled pending never published firing/resolved.
        states = [h["state"] for h in engine.alerts()[0]["history"]]
        assert "firing" not in states

    def test_flapping_does_not_resolve_early(self):
        store = SeriesStore(retention=1024)
        engine = self._ratio_engine(store, resolve_after=20.0)
        now = self._feed(store, 0.0, 35, bad=5.0, good=5.0)
        engine.evaluate(now=now)
        assert engine.alerts()[0]["state"] == "firing"
        # Clears briefly, then burns again: the re-breach must reset
        # the resolve timer rather than let it carry over.
        now = self._feed(store, now, 12, bad=0.0, good=10.0)
        engine.evaluate(now=now)            # first clear at ~t=47
        now = self._feed(store, now, 12, bad=5.0, good=5.0)
        engine.evaluate(now=now)            # re-breached
        assert engine.alerts()[0]["state"] == "firing"
        now = self._feed(store, now, 12, bad=0.0, good=10.0)
        engine.evaluate(now=now)            # second clear at ~t=71
        engine.evaluate(now=now + 18)
        # 18s since the SECOND clear (< 20s resolve_after) but 42s
        # since the first: a carried-over timer would have resolved.
        assert engine.alerts()[0]["state"] == "firing"
        engine.evaluate(now=now + 25)
        assert engine.alerts()[0]["state"] == "resolved"
        states = [h["state"] for h in engine.alerts()[0]["history"]]
        assert states.count("resolved") == 1

    def test_level_kind_fires_on_fraction_above_limit(self):
        store = SeriesStore()
        engine = SLOEngine(store, slos=[SLO(
            name="lat", kind="level", series=("p99",), limit=2.0,
            objective=0.9, fast_window=10.0, slow_window=10.0,
            fast_burn=2.0, slow_burn=2.0)], clock=lambda: 0.0)
        for i in range(10):
            store.record("p99", 5.0, ts=float(i))
        engine.evaluate(now=9.5)
        # All points over limit: burn = 1.0 / 0.1 budget = 10x.
        alert = engine.alerts()[0]
        assert alert["state"] == "firing"
        assert alert["burn_fast"] == pytest.approx(10.0)

    def test_zero_kind_fires_on_any_positive_point(self):
        store = SeriesStore()
        engine = SLOEngine(store, slos=[SLO(
            name="sound", kind="zero", series=("violations",),
            fast_window=10.0, slow_window=10.0, resolve_after=5.0)],
            clock=lambda: 0.0)
        store.record("violations", 0.0, ts=1.0)
        engine.evaluate(now=2.0)
        assert engine.alerts()[0]["state"] == "ok"
        store.record("violations", 1.0, ts=3.0)
        trans = engine.evaluate(now=4.0)
        assert [t["state"] for t in trans] == ["firing"]

    def test_one_alert_per_objective_keyed_by_its_name(self):
        # Per-tenant series an earlier version sampled bind to nothing:
        # each objective drives exactly one alert, named after it.
        store = SeriesStore()
        bus = EventBus()
        sub = bus.subscribe(name="test")
        for name in ("tenant.ci.throttled_429", "tenant.ci.submitted",
                     "synth.fuzz.violations"):
            store.record(name, 1.0, ts=1.0)
        engine = SLOEngine(store, bus=bus, clock=lambda: 0.0)
        engine.evaluate(now=2.0)
        alerts = engine.alerts()
        assert [a["name"] for a in alerts] \
            == sorted(slo.name for slo in default_slos())
        assert not [a for a in alerts if "label" in a or "key" in a]
        events = [e for e in sub.pop_all()
                  if e["type"].startswith("alert_")]
        assert [(e["type"], e["alert"], e["slo"]) for e in events] \
            == [("alert_firing", "soundness", "soundness")]
        assert "label" not in events[0]

    def test_transitions_publish_bus_events_and_webhook(self):
        store = SeriesStore()
        bus = EventBus()
        registry = MetricsRegistry()
        hooks = []
        engine = SLOEngine(store, slos=[SLO(
            name="sound", kind="zero", series=("violations",),
            fast_window=10.0, slow_window=10.0, resolve_after=1.0)],
            bus=bus, registry=registry, webhook=hooks.append,
            clock=lambda: 0.0)
        sub = bus.subscribe(name="test")
        store.record("violations", 2.0, ts=1.0)
        engine.evaluate(now=2.0)
        events = [e for e in sub.pop_all()
                  if e["type"].startswith("alert_")]
        assert events and events[0]["type"] == "alert_firing"
        assert events[0]["alert"] == "sound"
        assert hooks and hooks[0]["event"] == "alert_firing"
        assert registry.value("slo.transitions.firing") == 1
        assert registry.value("slo.webhook.delivered") == 1
        # Violation ages out of the window -> resolved also lands.
        engine.evaluate(now=20.0)
        engine.evaluate(now=25.0)
        assert any(e["type"] == "alert_resolved"
                   for e in sub.pop_all())
        assert hooks[-1]["event"] == "alert_resolved"

    def test_http_webhook_sink(self):
        import http.server

        received = []

        class Sink(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received.append(json.loads(self.rfile.read(length)))
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Sink)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_port}/hook"
            store = SeriesStore()
            registry = MetricsRegistry()
            engine = SLOEngine(store, slos=[SLO(
                name="sound", kind="zero", series=("v",),
                fast_window=10.0, slow_window=10.0)],
                registry=registry, webhook=url, clock=lambda: 0.0)
            store.record("v", 1.0, ts=1.0)
            engine.evaluate(now=2.0)
            deadline = time.monotonic() + 5.0
            while not received and time.monotonic() < deadline:
                time.sleep(0.02)
            assert received and received[0]["event"] == "alert_firing"
            assert received[0]["name"] == "sound"
        finally:
            server.shutdown()
            server.server_close()
            thread.join()


# ======================================================================
# Service wiring end to end
# ======================================================================
class TestServiceSeries:
    def test_series_endpoint_and_console(self, tmp_path):
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache",
                           series_interval=0.1) as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait(client.submit(_src("a"))["id"], timeout=60)
            deadline = time.monotonic() + 10
            doc = {}
            while time.monotonic() < deadline:
                doc = client.series()
                if "service.queue_depth" in doc["series"]:
                    break
                time.sleep(0.1)
            assert doc["schema"] == SERIES_SCHEMA
            assert "service.queue_depth" in doc["series"]
            assert doc["origin"].endswith(str(handle.port))
            # prefix + since filtering
            filtered = client.series(prefix="service.queue_depth")
            assert all(n.startswith("service.queue_depth")
                       for n in filtered["series"])
            future = client.series(since=time.time() + 3600)
            assert all(not s["points"]
                       for s in future["series"].values())
            # alerts endpoint exposes the default objectives
            alerts = client.alerts()
            assert {a["name"] for a in alerts["alerts"]} \
                >= {"job-availability", "degraded-mode"}
            # the console renders with stdlib only
            import http.client

            connection = http.client.HTTPConnection("127.0.0.1",
                                                    handle.port)
            connection.request("GET", "/dashboard")
            response = connection.getresponse()
            body = response.read()
            assert response.status == 200
            assert response.getheader("Content-Type") \
                .startswith("text/html")
            assert body.startswith(b"<!DOCTYPE html>")
            connection.close()

    def test_series_and_console_are_this_replicas_own(self, tmp_path):
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache",
                           series_interval=0.1) as handle, \
                ServiceClient(port=handle.port) as client:
            client.wait(client.submit(_src("a"))["id"], timeout=60)
            deadline = time.monotonic() + 10
            names = set()
            while time.monotonic() < deadline:
                names = set(client.series()["series"])
                if "service.queue_depth" in names:
                    break
                time.sleep(0.1)
            metrics = client.metricz()
        assert "service.queue_depth" in names
        assert not [name for name in names
                    if name.startswith(("federation.", "service.peer."))]
        assert "series.samples" in metrics
        assert "series.peers_unreachable" not in metrics
        page = render_console().decode()
        assert "federation" not in page and "breakers" not in page

    def test_disabled_series_is_absent_and_zero_cost(self, tmp_path):
        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache",
                           series=False) as handle:
            assert handle.service.sampler is None
            assert handle.service.slo is None
            assert handle.service.series_store is None
            with ServiceClient(port=handle.port) as client:
                with pytest.raises(ClientError):
                    client.series()
                with pytest.raises(ClientError):
                    client.alerts()

    def test_chaos_fires_degraded_and_availability_alerts(
            self, tmp_path):
        """The acceptance scenario: journal ENOSPC trips degraded-mode
        and availability SLOs, both fire deterministically, then
        resolve once the journal heals — visible via /v1/alerts, the
        EventBus (SSE) and the webhook sink."""
        hooks = []
        slos = [
            SLO(name="degraded-mode", kind="zero",
                series=("service.degraded",
                        "service.degraded.entered"),
                fast_window=3.0, slow_window=3.0, resolve_after=1.0),
            SLO(name="job-availability", kind="ratio",
                bad=("service.jobs.done.failed",
                     "service.jobs.rejected"),
                good=("service.jobs.done.ok",
                      "service.jobs.done.partial",
                      "service.jobs.submitted"),
                objective=0.99, fast_window=3.0, slow_window=3.0,
                fast_burn=1.0, slow_burn=1.0, resolve_after=1.0),
        ]
        with ServiceThread(workers=1, executor="thread",
                           journal_dir=tmp_path / "journal",
                           cache_dir=tmp_path / "cache",
                           chaos="seed=1,journal.enospc=2",
                           series_interval=0.1, slo=slos,
                           alert_webhook=hooks.append) as handle, \
                ServiceClient(port=handle.port) as client:
            sub = handle.service.bus.subscribe(name="test-alerts")
            # Trip it: the failed journal frame rejects the submit and
            # flips degraded mode.
            ticket = client.submit_retry(_src("a"),
                                         _random=lambda a, b: 0.3)
            client.wait(ticket["id"], timeout=60)

            def states():
                return {a["name"]: a["state"]
                        for a in client.alerts()["alerts"]}

            deadline = time.monotonic() + 15
            fired = set()
            while time.monotonic() < deadline:
                fired |= {name for name, state in states().items()
                          if state == "firing"}
                if {"degraded-mode", "job-availability"} <= fired:
                    break
                time.sleep(0.05)
            assert {"degraded-mode", "job-availability"} <= fired
            # ... and both resolve once the violation ages out.
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                now_states = states()
                if all(now_states[name] in ("resolved", "ok")
                       for name in ("degraded-mode",
                                    "job-availability")):
                    break
                time.sleep(0.1)
            assert all(states()[name] in ("resolved", "ok")
                       for name in ("degraded-mode",
                                    "job-availability"))
            # Same story on the bus and the webhook.
            kinds = {(e.get("type"), e.get("slo"))
                     for e in sub.pop_all()
                     if str(e.get("type", "")).startswith("alert_")}
            assert ("alert_firing", "degraded-mode") in kinds
            assert ("alert_resolved", "degraded-mode") in kinds
            hooked = {(h["event"], h["name"]) for h in hooks}
            assert ("alert_firing", "job-availability") in hooked
            assert ("alert_resolved", "job-availability") in hooked
            sub.close()

    def test_follow_surfaces_alert_events(self, capsys, tmp_path):
        from repro.cli import _follow_job
        from repro.engine import execute_job

        release = threading.Event()

        def held(payload):
            # The job cannot finish before the alert is out: a follower
            # stops reading at the job's terminal event.
            release.wait(timeout=30)
            return execute_job(payload)

        with ServiceThread(workers=1, executor="thread", runner=held,
                           cache_dir=tmp_path / "cache",
                           series_interval=0.2) as handle, \
                ServiceClient(port=handle.port) as client:
            ticket = client.submit(_src("a"))
            # Inject a transition while the job runs; the job-filtered
            # stream must let it through.
            handle.service.bus.publish(
                "alert_firing", alert="degraded-mode",
                slo="degraded-mode", state="firing",
                description="journal sick", burn_fast=9.9,
                burn_slow=9.9)
            release.set()
            _follow_job(client, "a", ticket["id"])
            err = capsys.readouterr().err
            assert "ALERT FIRING: degraded-mode" in err
            assert "(burn 9.9x fast / 9.9x slow)" in err
            assert "a: ok" in err


# ======================================================================
# CLI rendering
# ======================================================================
class TestSeriesCLI:
    def test_obs_series_renders_saved_dump(self, tmp_path, capsys):
        from repro.cli import main

        store = SeriesStore()
        for i in range(8):
            store.record("service.queue_depth", float(i), ts=float(i))
        path = tmp_path / "series.json"
        path.write_text(json.dumps(store.to_dict()))
        assert main(["obs", "series", str(path)]) == 0
        out = capsys.readouterr().out
        assert "service.queue_depth" in out
        assert "▁" in out and "█" in out      # sparkline extremes

    def test_obs_series_and_alerts_against_service(self, tmp_path,
                                                   capsys):
        from repro.cli import main

        with ServiceThread(workers=1, executor="thread",
                           cache_dir=tmp_path / "cache",
                           series_interval=0.1) as handle, \
                ServiceClient(port=handle.port) as client:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if client.series()["series"]:
                    break
                time.sleep(0.1)
            port = str(handle.port)
            assert main(["obs", "series", "--port", port]) == 0
            assert main(["obs", "alerts", "--port", port]) == 0
            out = capsys.readouterr().out
            assert "origin 127.0.0.1:" + port in out
            assert "job-availability" in out
            assert "firing /" in out
            assert main(["obs", "alerts", "--port", port,
                         "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == 1
