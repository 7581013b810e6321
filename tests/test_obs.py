"""Tests for the observability layer (:mod:`repro.obs`): span tracer,
metrics registry, Chrome trace exporter, golden trace/explanation
files, the bound explainer's witness properties, per-direction
relaxation flags, and budget-aware cache keys."""

import json
import random
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.cache import ResultCache
from repro.engine.metrics import SET_SECONDS_BUCKETS, render
from repro.errors import AnalysisError
from repro.obs import (NULL_TRACER, Counter, Gauge, Histogram,
                       MetricsRegistry, Tracer, diff_explanations,
                       explain_bound, explanation_delta_to_dict,
                       explanation_to_dict, render_explanation,
                       render_explanation_delta, to_chrome,
                       trace_skeleton, write_chrome_trace)
from repro.obs.trace import RECORD_KEYS
from repro.programs import get_benchmark

GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_records_fields(self):
        tracer = Tracer()
        with tracer.span("work", cat="solver", set=3) as span:
            span.inc("pivots", 17)
            span.set("status", "optimal")
        (record,) = tracer.records()
        assert record["name"] == "work"
        assert record["cat"] == "solver"
        assert record["depth"] == 0
        assert record["dur"] >= 0
        assert record["args"] == {"set": 3, "pivots": 17,
                                  "status": "optimal"}

    def test_nesting_depth(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r["name"]: r for r in tracer.records()}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # Inner finishes (and is recorded) first.
        assert [r["name"] for r in tracer.records()] == ["inner", "outer"]

    def test_records_hold_only_the_record_keys(self):
        # A span at any depth is its record and nothing more: no trace
        # id or parent link is stamped on it.
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [sorted(r) for r in tracer.records()] \
            == [sorted(RECORD_KEYS)] * 2

    def test_exception_tags_span_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        (record,) = tracer.records()
        assert record["args"]["error"] == "ValueError"

    def test_empty_tracer_is_truthy(self):
        # `tracer or NULL_TRACER` must never demote a live tracer.
        tracer = Tracer()
        assert len(tracer) == 0
        assert bool(tracer)
        assert (tracer or NULL_TRACER) is tracer

    def test_absorb_merges_foreign_records(self):
        parent, child = Tracer(), Tracer()
        with child.span("remote"):
            pass
        parent.absorb(child.records())
        assert [r["name"] for r in parent.records()] == ["remote"]

    def test_records_are_picklable_plain_dicts(self):
        import pickle

        tracer = Tracer()
        with tracer.span("work", cat="solver"):
            pass
        assert pickle.loads(pickle.dumps(tracer.records())) \
            == tracer.records()

    def test_threads_keep_independent_stacks(self):
        tracer = Tracer()

        def work(name):
            with tracer.span(name):
                pass

        threads = [threading.Thread(target=work, args=(f"t{i}",))
                   for i in range(4)]
        with tracer.span("main"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        records = tracer.records()
        assert len(records) == 5
        # Spans on other threads are roots there, not children of main.
        assert all(r["depth"] == 0 for r in records)

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("ignored", cat="x", a=1) as span:
            span.inc("n")
            span.set("k", "v")
        NULL_TRACER.absorb([{"name": "x"}])
        assert NULL_TRACER.records() == []
        assert len(NULL_TRACER) == 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.inc(-2.0)
        assert gauge.value == 3.0

    def test_histogram_buckets(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 0.1):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(55.6 / 4)

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("lp_calls").inc(7)
        registry.gauge("wall").set(1.25)
        registry.histogram("secs", buckets=(0.1, 1.0)).observe(0.5)
        snapshot = registry.snapshot()
        json.dumps(snapshot)  # JSON-safe
        # Schema 2: every snapshot is stamped with capture times.
        assert snapshot["_ts"]["type"] == "meta"
        assert snapshot["_ts"]["wall"] > 0
        assert snapshot["_ts"]["monotonic"] > 0
        clone = MetricsRegistry.from_snapshot(snapshot)
        reread = clone.snapshot()
        # The stamp is capture metadata, not a metric: it is not
        # restored, and the re-read snapshot gets its own fresh one.
        assert "_ts" not in clone
        assert {k: v for k, v in reread.items() if k != "_ts"} \
            == {k: v for k, v in snapshot.items() if k != "_ts"}
        assert clone.value("lp_calls") == 7
        assert clone.value("secs") == 1  # histograms report count

    def test_diff_and_render(self):
        before = MetricsRegistry()
        before.counter("lp_calls").inc(2)
        after = MetricsRegistry.from_snapshot(before.snapshot())
        after.counter("lp_calls").inc(5)
        after.histogram("secs").observe(0.2)
        delta = MetricsRegistry.diff(before.snapshot(), after.snapshot())
        assert delta["lp_calls"]["value"] == 5
        assert delta["secs"]["count"] == 1
        rendered = MetricsRegistry.render_diff(delta)
        assert "lp_calls" in rendered and "+5" in rendered
        assert "(no differences)" in MetricsRegistry.render_diff(
            MetricsRegistry.diff(after.snapshot(), after.snapshot()))

    def test_dump_load(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("n").inc(4)
        path = tmp_path / "metrics.json"
        registry.dump(path)
        assert MetricsRegistry.load(path).value("n") == 4


def _stamp(snapshot: dict, **clocks) -> dict:
    """`snapshot` with its ``_ts`` stamp replaced by `clocks`."""
    snapshot["_ts"] = {"type": "meta", **clocks}
    return snapshot


def _diff_rows(text: str) -> dict[str, str]:
    """``{first column: rest of the row}`` of a ``render_diff`` table."""
    rows = {}
    for line in text.splitlines()[1:]:
        if line.startswith("-") or not line.strip():
            continue
        name, _, rest = line.partition(" ")
        rows[name] = rest.strip()
    return rows


def _number(text: str) -> float:
    return float(text.replace(",", ""))


class TestRatesOverAWindow:
    """Two stamped snapshots diffed by ``render_diff`` are the rates
    over a window that ``repro obs diff`` prints for two ``/metricz``
    scrapes: every counter's delta and per-second rate, every gauge's
    change, every histogram's count, sum and rate."""

    @pytest.mark.parametrize("seed", range(24))
    def test_diff_and_rates_match_a_direct_computation(self, seed):
        """Seeds cycle through the stamp's cases: both clocks (the
        monotonic one wins), a stamp with only a wall clock, a
        monotonic clock that ran backwards (snapshots from two boots:
        the wall clock wins), and a side with no stamp (no rates)."""
        rng = random.Random(seed)
        registry = MetricsRegistry()
        kinds = {f"m{i}": rng.choice(("counter", "gauge", "histogram"))
                 for i in range(rng.randint(1, 12))}

        def touch(name):
            if kinds[name] == "counter":
                registry.counter(name).inc(
                    rng.choice((0, rng.randint(1, 100_000))))
            elif kinds[name] == "gauge":
                registry.gauge(name).set(rng.choice(
                    (rng.randint(-50, 50), rng.uniform(-5.0, 5.0))))
            else:
                histogram = registry.histogram(name, buckets=(0.1, 1.0))
                for _ in range(rng.randint(0, 4)):
                    histogram.observe(rng.uniform(0.0, 2.0))

        # Some metrics exist at the first scrape; the rest are born
        # between the scrapes and diff against zero.
        for name in kinds:
            if rng.random() < 0.6:
                touch(name)
        mono, wall = rng.uniform(0.0, 1e4), rng.uniform(1e9, 2e9)
        window = rng.uniform(0.001, 600.0)
        before = _stamp(registry.snapshot(), monotonic=mono, wall=wall)
        for name in kinds:
            if rng.random() < 0.7:
                touch(name)
        case = seed % 4
        if case == 0:
            after = _stamp(registry.snapshot(), monotonic=mono + window,
                           wall=wall + 2 * window)
            elapsed = (mono + window) - mono
        elif case == 1:
            before["_ts"].pop("monotonic")
            after = _stamp(registry.snapshot(), monotonic=mono,
                           wall=wall + window)
            elapsed = (wall + window) - wall
        elif case == 2:
            after = _stamp(registry.snapshot(), monotonic=mono - window,
                           wall=wall + window)
            elapsed = (wall + window) - wall
        else:
            del before["_ts"]
            after = registry.snapshot()
            elapsed = None

        delta = MetricsRegistry.diff(before, after)
        if elapsed is None:
            assert "_ts" not in delta
        else:
            assert delta["_ts"] == {"type": "meta", "elapsed": elapsed}
        rows = _diff_rows(MetricsRegistry.render_diff(delta))
        if elapsed is None:
            assert "elapsed" not in rows
        else:
            assert _number(rows.pop("elapsed").rstrip("s")) \
                == pytest.approx(elapsed, abs=5e-4)

        shown = {}
        for name, kind in kinds.items():
            if name not in after:
                assert name not in delta
                continue
            a, b = before.get(name, {}), after[name]
            if kind == "histogram":
                count = b["count"] - a.get("count", 0)
                total = b["sum"] - a.get("sum", 0.0)
                assert delta[name] == {"type": kind, "count": count,
                                       "sum": total}
                if count or total:
                    shown[name] = (count, total)
            else:
                change = b["value"] - a.get("value", 0)
                assert delta[name] == {"type": kind, "value": change}
                if change:
                    shown[name] = change
        if not shown:
            assert rows == {"(no": "differences)"}
            return
        assert set(rows) == set(shown)
        for name, expected in shown.items():
            words = rows[name].split()
            rate = None
            if words[-1].endswith("/s)"):
                rate = _number(words.pop()[1:-3])
            if kinds[name] == "histogram":
                count, total = expected
                assert words[0] == f"{count:+,}"
                assert words[1:] == ["(sum", f"{total:+.3f})"]
                rated = count
            else:
                assert words == [words[0]]
                assert _number(words[0]) \
                    == pytest.approx(expected, abs=5e-4)
                rated = expected if kinds[name] == "counter" else None
            if elapsed and rated is not None:
                assert rate == pytest.approx(rated / elapsed, abs=6e-3)
            else:
                assert rate is None

    def test_zero_elapsed_prints_rows_without_rates(self):
        registry = MetricsRegistry()
        before = _stamp(registry.snapshot(), monotonic=5.0, wall=9.0)
        registry.counter("jobs").inc(3)
        after = _stamp(registry.snapshot(), monotonic=5.0, wall=9.0)
        delta = MetricsRegistry.diff(before, after)
        assert delta["_ts"]["elapsed"] == 0.0
        rows = _diff_rows(MetricsRegistry.render_diff(delta))
        assert rows == {"elapsed": "0.000s", "jobs": "+3"}

    def test_clocks_that_both_run_backwards_give_no_elapsed(self):
        registry = MetricsRegistry()
        before = _stamp(registry.snapshot(), monotonic=5.0, wall=9.0)
        registry.counter("jobs").inc(3)
        after = _stamp(registry.snapshot(), monotonic=4.0, wall=8.0)
        delta = MetricsRegistry.diff(before, after)
        assert "_ts" not in delta
        rows = _diff_rows(MetricsRegistry.render_diff(delta))
        assert rows == {"jobs": "+3"}

    def test_schema_marker_and_stamp_are_not_rows(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(1)
        before = {"schema": 1, **_stamp(registry.snapshot(), wall=1.0)}
        registry.counter("jobs").inc(1)
        after = {"schema": 2, **_stamp(registry.snapshot(), wall=3.0)}
        delta = MetricsRegistry.diff(before, after)
        assert set(delta) == {"_ts", "jobs"}
        rows = _diff_rows(MetricsRegistry.render_diff(delta))
        assert rows == {"elapsed": "2.000s", "jobs": "+1 (0.50/s)"}

    def test_obs_diff_reads_the_stamps_of_two_dumps(self, tmp_path,
                                                   capsys):
        registry = MetricsRegistry()
        registry.counter("service.jobs.submitted").inc(4)
        registry.gauge("service.queue_depth").set(2)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        registry.dump(paths[0])
        registry.counter("service.jobs.submitted").inc(40)
        registry.gauge("service.queue_depth").set(0)
        for seconds in (0.25, 0.5):
            registry.histogram("service.run_seconds",
                               buckets=(1.0,)).observe(seconds)
        registry.dump(paths[1])
        for path, mono in zip(paths, (100.0, 108.0)):
            data = json.loads(path.read_text())
            data["_ts"]["monotonic"] = mono
            path.write_text(json.dumps(data))
        assert main(["obs", "diff", *map(str, paths)]) == 0
        rows = _diff_rows(capsys.readouterr().out)
        assert rows == {
            "elapsed": "8.000s",
            "service.jobs.submitted": "+40 (5.00/s)",
            "service.queue_depth": "-2",
            "service.run_seconds": "+2 (sum +0.750) (0.25/s)",
        }


class TestHistogramPercentiles:
    def test_answer_is_the_upper_edge_of_the_rank_bucket(self):
        histogram = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        # Ranks 1, 2, 3 and 4 of 4 sit in buckets (, 1], (1, 2],
        # (1, 2] and (2, 4]: each answer is that bucket's edge.
        assert [histogram.percentile(q)
                for q in (0.25, 0.5, 0.75, 1.0)] == [1.0, 2.0, 2.0, 4.0]
        assert histogram.percentile(0.26) == 2.0
        assert histogram.percentile(0.01) == 1.0

    def test_rank_past_the_last_edge_is_inf(self):
        histogram = Histogram("h", buckets=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(100.0)
        assert histogram.percentile(0.5) == 1.0
        assert histogram.percentile(0.51) == float("inf")
        assert histogram.percentile(1.0) == float("inf")

    @pytest.mark.parametrize("seed", range(24))
    def test_smallest_edge_at_or_above_the_order_statistic(self, seed):
        """Over seeded samples, ``percentile(q)`` is the smallest
        bucket edge at or above the q-th order statistic (the smallest
        sample with a share of at least q of the samples at or below
        it), or inf when no edge is; so it never reads below a sample
        that the rank reaches."""
        rng = random.Random(seed)
        buckets = sorted(rng.sample([0.001 * 2 ** k for k in range(14)],
                                    rng.randint(1, 8)))
        samples = [rng.choice((rng.expovariate(200.0),
                               rng.choice(buckets),
                               rng.uniform(0, 0.02)))
                   for _ in range(rng.randint(1, 60))]
        histogram = Histogram("h", buckets=buckets)
        for value in samples:
            histogram.observe(value)
        ordered = sorted(samples)
        quantiles = [0.5, 0.9, 0.95, 0.99, 1.0, rng.uniform(0.001, 1)]
        for q in quantiles:
            rank = next(k for k in range(1, len(ordered) + 1)
                        if k / len(ordered) >= q)
            statistic = ordered[rank - 1]
            edge = min((edge for edge in buckets if edge >= statistic),
                       default=float("inf"))
            assert histogram.percentile(q) == edge, (q, statistic)
        answers = [histogram.percentile(q) for q in sorted(quantiles)]
        assert answers == sorted(answers)

    def test_empty_and_bad_quantile(self):
        histogram = Histogram("h", buckets=(1.0,))
        assert histogram.percentile(0.5) == 0.0
        histogram.observe(0.5)
        for q in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                histogram.percentile(q)

    def test_engine_report_prints_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "engine.set_wall_seconds", buckets=SET_SECONDS_BUCKETS)
        for value in (0.01, 0.02, 0.4):
            histogram.observe(value)
        text = render(registry)
        # Upper bounds read as such: the 0.02 s set is in (0.01, 0.1].
        assert "set solve seconds: p50 ≤ 0.1, p95 ≤ 1, p99 ≤ 1 " in text
        assert "over 3 sets" in text

    def test_engine_report_omits_percentiles_when_empty(self):
        assert "set solve seconds" not in render(MetricsRegistry())


class TestExplanationDelta:
    def _explanation_dict(self, name="check_data"):
        analysis = get_benchmark(name).make_analysis()
        return explanation_to_dict(explain_bound(analysis))

    def test_self_diff_is_unchanged(self):
        payload = self._explanation_dict()
        delta = diff_explanations(payload, payload)
        assert delta.unchanged
        assert delta.bound_delta == 0
        assert "(no differences)" in render_explanation_delta(delta)

    def test_detects_bound_binding_and_breakdown_changes(self):
        before = self._explanation_dict()
        after = json.loads(json.dumps(before))       # deep copy
        after["bound"] += 40
        after["set_index"] = before["set_index"] + 1
        moved = after["breakdown"][0]
        moved["count"] += 2
        moved["cycles"] += 40
        after["binding"] = [line for line in after["binding"][1:]]
        after["binding"].append({"kind": "functionality",
                                 "label": "x9 = 1", "text": "x9 = 1",
                                 "slack": 0.0, "binding": True})

        delta = diff_explanations(before, after)
        assert not delta.unchanged
        assert delta.bound_delta == 40
        assert delta.set_index_change == (before["set_index"],
                                          before["set_index"] + 1)
        assert [l["label"] for l in delta.binding_added] == ["x9 = 1"]
        assert (delta.binding_removed[0]["label"]
                == before["binding"][0]["label"])
        assert delta.rows[0].var == moved["var"]
        assert delta.rows[0].delta_cycles == pytest.approx(40)

        text = render_explanation_delta(delta)
        assert "-> " in text and "(+40)" in text
        assert "+ [functionality]" in text
        assert "per-block breakdown changes" in text

        payload = explanation_delta_to_dict(delta)
        parsed = json.loads(json.dumps(payload))
        assert parsed["bound_delta"] == 40
        assert parsed["rows"][0]["delta_cycles"] == 40
        assert parsed["unchanged"] is False

    def test_identity_mismatch_is_noted(self):
        before = self._explanation_dict("check_data")
        after = self._explanation_dict("piksrt")
        delta = diff_explanations(before, after)
        assert any("entry differs" in note for note in delta.notes)
        assert "**" in render_explanation_delta(delta)


class TestEngineSummary:
    def test_backed_by_registry(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("engine.lp_calls").inc(3)
        assert "solver: 3 LP calls" in render(registry)
        path = tmp_path / "metrics.json"
        registry.dump(path)
        clone = MetricsRegistry.load(path).snapshot()
        snapshot = registry.snapshot()
        clone.pop("_ts")                       # fresh capture stamp
        snapshot.pop("_ts")
        assert clone == snapshot


class TestMetricsFiles:
    """Every metrics file goes through one loader, and what it cannot
    read is an ``error:`` line and exit 1, never zeros or a traceback.
    """

    BAD = {
        "malformed": "{not json",
        "list": "[1, 2]",
        "flat": '{"stage_seconds": {"solve": 1.0}, "lp_calls": 3}',
        "unknown type": '{"engine.lp_calls": {"type": "summary"}}',
    }

    @staticmethod
    def _commands(path):
        return (["engine", "stats", "--metrics", path],
                ["obs", "dump", path], ["obs", "diff", path, path])

    @pytest.mark.parametrize("case", ["missing", *BAD])
    def test_unreadable_file_is_an_error(self, tmp_path, capsys, case):
        path = tmp_path / "metrics.json"
        if case != "missing":
            path.write_text(self.BAD[case])
        for argv in self._commands(str(path)):
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err

    def test_service_snapshot_renders_its_engine_counters(self, tmp_path,
                                                          capsys):
        registry = MetricsRegistry()
        registry.counter("engine.lp_calls").inc(7)
        registry.counter("engine.jobs.ok").inc(2)
        registry.counter("engine.stage_seconds.expand").inc(0.25)
        path = tmp_path / "service-metrics.json"
        registry.dump(path)
        assert main(["engine", "stats", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "7 LP calls" in out and "jobs: 2 ok" in out
        assert "expand" in out

    def test_older_engine_dump_loads_its_registry(self, tmp_path, capsys):
        # Older builds' engine run --metrics nested the snapshot under
        # "registry" beside flat copies of the same figures.
        registry = MetricsRegistry()
        registry.counter("engine.lp_calls").inc(5)
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"lp_calls": 5, "stage_seconds": {},
                                    "registry": registry.snapshot()}))
        assert MetricsRegistry.load(path).value("engine.lp_calls") == 5
        assert main(["engine", "stats", "--metrics", str(path)]) == 0
        assert "5 LP calls" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Chrome exporter
# ----------------------------------------------------------------------
class TestChromeExport:
    def make_records(self):
        tracer = Tracer()
        with tracer.span("solve", cat="pipeline", sets=2):
            with tracer.span("bnb", cat="solver") as span:
                span.inc("pivots", 5)
        return tracer.records()

    def test_to_chrome_structure(self):
        records = self.make_records()
        document = to_chrome(records)
        events = document["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        # One process_name metadata event per distinct pid.
        assert len(metadata) == len({r["pid"] for r in records}) == 1
        assert metadata[0]["args"]["name"] == "repro"
        assert {e["name"] for e in spans} == {"solve", "bnb"}
        for event, record in zip(spans, records):
            assert event["ts"] == pytest.approx(record["ts"] * 1e6)
            assert event["dur"] == pytest.approx(record["dur"] * 1e6,
                                                 abs=1e-3)
            assert event["args"] == record["args"]

    def test_worker_pids_get_their_own_track(self):
        records = self.make_records()
        shipped = [dict(r, pid=r["pid"] + 1) for r in records]
        document = to_chrome(records + shipped)
        names = [e["args"]["name"] for e in document["traceEvents"]
                 if e["ph"] == "M"]
        assert names == ["repro", "repro worker 1"]

    def test_span_events_carry_only_the_chrome_fields(self):
        spans = [e for e in to_chrome(self.make_records())["traceEvents"]
                 if e["ph"] == "X"]
        assert [sorted(e) for e in spans] == [sorted(
            ("ph", "name", "cat", "ts", "dur", "pid", "tid", "args"))] * 2

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self.make_records(), path)
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert any(e["ph"] == "X" for e in document["traceEvents"])


# ----------------------------------------------------------------------
# Golden files: trace shape and explanation text
# ----------------------------------------------------------------------
def traced_estimate(name):
    bench = get_benchmark(name)
    tracer = Tracer()
    analysis = bench.make_analysis(tracer=tracer)
    report = analysis.estimate()
    return analysis, report, tracer


@pytest.mark.parametrize("name", ["check_data", "piksrt"])
def test_trace_skeleton_matches_golden(name):
    _, _, tracer = traced_estimate(name)
    expected = (GOLDEN / f"{name}_trace_skeleton.txt").read_text()
    assert "\n".join(trace_skeleton(tracer.records())) + "\n" == expected


@pytest.mark.parametrize("name", ["check_data", "piksrt"])
def test_explanation_matches_golden(name):
    analysis, report, _ = traced_estimate(name)
    explanation = explain_bound(analysis, report)
    expected = (GOLDEN / f"{name}_explain.txt").read_text()
    assert render_explanation(explanation) + "\n" == expected


# ----------------------------------------------------------------------
# Explainer properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["check_data", "piksrt", "fft"])
def test_witness_satisfies_winning_set(name):
    """The explainer's witness must be a genuine feasible point: it
    satisfies *every* constraint (and integrality) of the winning
    set's worst-case ILP, and its objective value is the bound."""
    bench = get_benchmark(name)
    analysis = bench.make_analysis()
    report = analysis.estimate()
    explanation = explain_bound(analysis, report)
    task = analysis.set_tasks()[explanation.set_index]
    worst_problem, _ = task.problems()
    assert worst_problem.check(explanation.witness)
    value = task.worst_obj.evaluate(explanation.witness)
    assert value == pytest.approx(explanation.bound)


@pytest.mark.parametrize("name", ["check_data", "piksrt", "fft"])
def test_breakdown_sums_to_bound(name):
    bench = get_benchmark(name)
    analysis = bench.make_analysis()
    explanation = explain_bound(analysis)
    assert explanation.consistent
    assert sum(r.cycles for r in explanation.breakdown) \
        == pytest.approx(explanation.total)
    assert explanation.bound == analysis.estimate().worst


def test_explain_best_direction():
    bench = get_benchmark("check_data")
    analysis = bench.make_analysis()
    report = analysis.estimate()
    explanation = explain_bound(analysis, report, direction="best")
    assert explanation.direction == "best"
    assert explanation.bound == report.best
    assert explanation.consistent


def test_explanation_to_dict_is_json_safe():
    bench = get_benchmark("check_data")
    analysis = bench.make_analysis()
    payload = explanation_to_dict(explain_bound(analysis))
    parsed = json.loads(json.dumps(payload))
    assert parsed["bound"] == payload["bound"]
    assert parsed["consistent"] is True


def test_explain_rejects_unknown_direction():
    bench = get_benchmark("check_data")
    analysis = bench.make_analysis()
    with pytest.raises(AnalysisError):
        explain_bound(analysis, analysis.estimate(), direction="sideways")


# ----------------------------------------------------------------------
# Per-direction relaxation flags
# ----------------------------------------------------------------------
def test_expired_timeout_flags_each_direction():
    bench = get_benchmark("check_data")
    analysis = bench.make_analysis()
    tight = analysis.estimate()
    relaxed = bench.make_analysis().estimate(set_timeout=0.0)
    assert relaxed.relaxed_sets  # every set degraded
    for result in relaxed.set_results:
        assert result.worst_relaxed and result.best_relaxed
        assert result.relaxed and result.timed_out
    # Degraded bounds stay sound: relaxation max >= ILP max,
    # relaxation min <= ILP min.
    assert relaxed.worst >= tight.worst
    assert relaxed.best <= tight.best
    explanation = explain_bound(analysis, relaxed)
    assert not explanation.tight
    assert "relaxation" in render_explanation(explanation)


def test_untimed_run_has_no_relaxed_sets():
    report = get_benchmark("check_data").make_analysis().estimate()
    assert report.relaxed_sets == []
    assert all(not r.relaxed for r in report.set_results)


# ----------------------------------------------------------------------
# Budget-aware cache keys
# ----------------------------------------------------------------------
def test_cache_keys_include_budget(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.job_key("fp") != cache.job_key("fp", budget="timeout=1.0")
    # Same budget, same everything -> stable key.
    assert (cache.job_key("fp", budget="timeout=1.0")
            == cache.job_key("fp", budget="timeout=1.0"))
