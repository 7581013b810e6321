"""Batch analysis engine: cache keys, caching, pool dispatch, timeouts."""

import collections
import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import Analysis
from repro.engine import AnalysisEngine, AnalysisJob, ResultCache, execute_job
from repro.engine import pool as pool_module
from repro.engine.cache import report_from_dict, report_to_dict
from repro.engine.metrics import STAGES, render
from repro.errors import ILPTimeoutError
from repro.hw import i960kb
from repro.obs import MetricsRegistry, Tracer
from repro.obs.trace import RECORD_KEYS
from repro.programs import get_benchmark

SOURCE = """
int data[8];
int tally(int n) {
    int i; int s; s = 0;
    for (i = 0; i < 8; i++) {
        if (data[i] > 0) { s += 2; } else { s += 1; }
    }
    return s;
}
"""


def _analysis():
    analysis = Analysis(SOURCE, entry="tally")
    analysis.auto_bound_loops()
    analysis.add_constraint("(x4 = 8 & x5 = 0) | (x4 = 0 & x5 = 8)")
    return analysis


def _job(machine=None):
    return AnalysisJob(name="tally", source=SOURCE, entry="tally",
                       machine=machine, auto_bounds=True,
                       constraints=(
                           ("(x4 = 8 & x5 = 0) | (x4 = 0 & x5 = 8)",
                            None),))


#: 30 branch blocks inside a 50-iteration loop, three of them forced
#: all-or-nothing: 2**3 = 8 constraint sets of a few ms each.
_HEAVY_BLOCKS = 30
_DISJUNCTIONS = 3


def _heavy_job() -> AnalysisJob:
    lines = [f"int mode[{_HEAVY_BLOCKS}];",
             "int heavy(int n) {",
             "  int i; int j; int acc; acc = 0;",
             "  for (i = 0; i < 50; i++) {"]
    for b in range(_HEAVY_BLOCKS):
        lines.append(f"    if (mode[{b}] > 0) "
                     f"{{ acc += {b}; }} else {{ acc -= {b}; }}")
    lines += ["    for (j = 0; j < 10; j++) { acc += j; }",
              "  }",
              "  return acc;",
              "}"]
    # The k-th if's then/else blocks are x(4+3k) / x(5+3k).
    constraints = tuple(
        (f"(x{4 + 3 * k} = 50 & x{5 + 3 * k} = 0) | "
         f"(x{4 + 3 * k} = 0 & x{5 + 3 * k} = 50)", None)
        for k in range(_DISJUNCTIONS))
    return AnalysisJob(name="heavy", source="\n".join(lines),
                       entry="heavy", auto_bounds=True,
                       constraints=constraints)


#: The test process; a pool worker forked from it sees the same value
#: but a different ``os.getpid()``.
_TEST_PID = os.getpid()


@dataclasses.dataclass(frozen=True)
class _DyingJob(AnalysisJob):
    """A job whose pool worker dies: once if `marker` names a file it
    can still create, else on every try."""

    marker: str | None = None

    def build_analysis(self, tracer=None):
        if os.getpid() != _TEST_PID and self._claim():
            os._exit(1)
        return super().build_analysis(tracer=tracer)

    def _claim(self) -> bool:
        if self.marker is None:
            return True
        try:
            open(self.marker, "x").close()
        except FileExistsError:
            return False
        return True


class TestCacheKeys:
    def test_solver_version_changes_job_key(self, tmp_path, monkeypatch):
        # A cache filled by another solver version must not serve
        # results the current solver would not produce.
        from repro.engine import cache as cache_module

        cache = ResultCache(tmp_path)
        fingerprint = _job().fingerprint()
        current = cache.job_key(fingerprint)
        monkeypatch.setattr(cache_module, "SOLVER_VERSION",
                            cache_module.SOLVER_VERSION + 1)
        assert cache.job_key(fingerprint) != current

    def test_job_key_stable_and_machine_sensitive(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert (cache.job_key(_job().fingerprint())
                == cache.job_key(_job().fingerprint()))
        slower = dataclasses.replace(i960kb(), miss_penalty=99)
        assert (cache.job_key(_job().fingerprint())
                != cache.job_key(_job(machine=slower).fingerprint()))

    def test_source_change_changes_job_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        other = dataclasses.replace(_job(), source=SOURCE + "\n// v2")
        assert (cache.job_key(_job().fingerprint())
                != cache.job_key(other.fingerprint()))


class TestResultCache:
    def test_job_layer_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        key = cache.job_key(_job().fingerprint())
        assert cache.get_report(key) is None
        cache.put_report(key, report)
        loaded = cache.get_report(key)
        assert loaded.interval == report.interval
        assert len(loaded.set_results) == len(report.set_results)
        assert loaded.sets_pruned == report.sets_pruned

    def test_report_with_timings_still_loads(self, tmp_path):
        # Older builds stored stage stopwatch times with each report,
        # in cache entries and journal "complete" frames alike.
        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        key = cache.job_key(_job().fingerprint())
        older = dict(report_to_dict(report),
                     timings={"compile": 0.004, "solve": 0.002})
        assert "timings" not in report_to_dict(report)
        cache._write(key, {"kind": "job", "report": older})
        for loaded in (cache.get_report(key), report_from_dict(older)):
            assert loaded.interval == report.interval
            assert loaded.set_results == report.set_results

    def test_report_without_refuted_flags_still_loads(self, tmp_path):
        # Entries written before propagation could refute a set carry
        # no "refuted" key in a set's stats.
        cache = ResultCache(tmp_path)
        report = get_benchmark("dhry").make_analysis().estimate()
        assert report.refuted_sets == [1, 2]
        older = report_to_dict(report)
        for entry in older["set_results"]:
            del entry["stats"]["refuted"]
        key = cache.job_key("older")
        cache._write(key, {"kind": "job", "report": older})
        loaded = cache.get_report(key)
        assert loaded.interval == report.interval
        assert [r.status for r in loaded.set_results] == \
            [r.status for r in report.set_results]
        assert loaded.refuted_sets == []

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        cache.put_report(cache.job_key("a"), report)
        # A set entry an older version wrote: never read again, but
        # counted and cleared like any other entry.
        legacy = tmp_path / "ab" / f"ab{'0' * 62}.json"
        legacy.parent.mkdir()
        legacy.write_text(json.dumps({"kind": "set", "result": {}},
                                     sort_keys=True))
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.job_entries == 1
        assert stats.total_bytes > 0
        assert cache.clear() == 2
        assert cache.stats().entries == 0


class TestEviction:
    @staticmethod
    def _fill(cache, report, count, start=0):
        """Put `count` reports under distinct keys with deterministic
        mtimes (oldest first), bypassing wall-clock granularity."""
        import os

        keys = [cache.job_key(f"job-{start + i}") for i in range(count)]
        for i, key in enumerate(keys):
            cache.put_report(key, report)
            tick = (start + i + 1) * 1_000_000_000
            os.utime(cache._path(key), ns=(tick, tick))
        return keys

    def test_max_entries_evicts_oldest(self, tmp_path):
        report = _analysis().estimate()
        keys = self._fill(ResultCache(tmp_path), report, 4)
        capped = ResultCache(tmp_path, max_entries=3)
        newest = self._fill(capped, report, 1, start=4)[0]
        assert capped.evictions == 2               # 5 entries -> 3
        assert capped.stats().entries == 3
        assert capped.get_report(keys[0]) is None  # oldest two gone
        assert capped.get_report(keys[1]) is None
        assert capped.get_report(keys[3]) is not None
        assert capped.get_report(newest) is not None

    def test_read_touch_protects_entry(self, tmp_path):
        import os

        report = _analysis().estimate()
        keys = self._fill(ResultCache(tmp_path), report, 3)
        capped = ResultCache(tmp_path, max_entries=3)
        # Reading keys[0] marks it recently used...
        assert capped.get_report(keys[0]) is not None
        tick = 10 * 1_000_000_000
        os.utime(capped._path(keys[0]), ns=(tick, tick))
        self._fill(capped, report, 1, start=20)
        # ...so the LRU victim is keys[1], not the touched keys[0].
        assert capped.get_report(keys[0]) is not None
        assert capped.get_report(keys[1]) is None

    def test_max_bytes_cap(self, tmp_path):
        report = _analysis().estimate()
        probe = ResultCache(tmp_path)
        self._fill(probe, report, 1)
        entry_bytes = probe.stats().total_bytes
        capped = ResultCache(tmp_path, max_bytes=2 * entry_bytes)
        self._fill(capped, report, 3, start=1)
        stats = capped.stats()
        assert stats.total_bytes <= 2 * entry_bytes
        assert stats.entries == 2
        assert capped.evictions == 2

    def test_lifetime_evictions_persist_in_stats(self, tmp_path):
        report = _analysis().estimate()
        capped = ResultCache(tmp_path, max_entries=1)
        self._fill(capped, report, 3)
        assert capped.evictions == 2
        # A fresh cache object on the same root sees the lifetime total.
        fresh = ResultCache(tmp_path)
        stats = fresh.stats()
        assert stats.evictions == 2
        assert fresh.evictions == 0                # this object's own

    def test_uncapped_cache_never_evicts(self, tmp_path):
        report = _analysis().estimate()
        cache = ResultCache(tmp_path)
        self._fill(cache, report, 4)
        assert cache.evictions == 0
        assert cache.stats().entries == 4


class TestEngineRuns:
    def test_cached_rerun_identical(self, tmp_path):
        jobs = [AnalysisJob.from_benchmark("check_data"), _job()]
        cold = AnalysisEngine(workers=1, cache_dir=tmp_path).run(jobs)
        assert [r.status for r in cold] == ["ok", "ok"]
        warm_engine = AnalysisEngine(workers=1, cache_dir=tmp_path)
        warm = warm_engine.run(jobs)
        assert all(r.cache_hit for r in warm)
        for before, after in zip(cold, warm):
            assert after.report.interval == before.report.interval
        assert warm_engine.registry.value("engine.cache.hits.job") == 2
        assert "engine.cache.misses.job" not in warm_engine.registry

    def test_engine_matches_serial_estimate(self, tmp_path):
        jobs = [AnalysisJob.from_benchmark("check_data"), _heavy_job()]
        serial = [job.build_analysis().estimate() for job in jobs]
        assert serial[1].sets_solved == 8
        # One job runs in the caller; two go over the pool.
        for batch in ([jobs[0]], [jobs[1]], jobs):
            results = AnalysisEngine(workers=2).run(batch)
            for job, result in zip(batch, results):
                expected = serial[jobs.index(job)]
                assert result.ok
                assert result.report.interval == expected.interval
                assert ([(s.index, s.worst, s.best)
                         for s in result.report.set_results]
                        == [(s.index, s.worst, s.best)
                            for s in expected.set_results])

    def test_single_job_trace_matches_serial(self):
        tracer = Tracer()
        get_benchmark("check_data").make_analysis(tracer=tracer).estimate()
        serial = collections.Counter(r["name"] for r in tracer.records())
        engine_tracer = Tracer()
        engine = AnalysisEngine(workers=2, tracer=engine_tracer)
        assert engine.run([AnalysisJob.from_benchmark("check_data")])[0].ok
        names = collections.Counter(r["name"]
                                    for r in engine_tracer.records())
        assert names.pop("engine.run") == 1
        # The engine spans the benchmark's compile, which a serial
        # Analysis handed the compiled program does not.
        assert names.pop("compile") == 1
        assert names == serial
        assert names["solve"] == 1 and names["set.worst"] == 2

    def test_failed_job_is_timed_by_its_spans(self):
        # A failed job's time is in the spans it closed before the
        # error, and they reach the engine's tracer like any job's.
        bad = AnalysisJob(name="bad", source="int f() { return 1; }",
                          entry="missing")
        tracer = Tracer()
        result = AnalysisEngine(workers=2, tracer=tracer).run([bad])[0]
        assert result.status == "failed"
        assert [span["name"] for span in result.spans] == ["compile"]
        assert result.spans[0]["dur"] > 0
        assert result.spans[0] in tracer.records()

    def test_execute_job_traces_only_when_asked(self):
        # The payload's trace flag is a bool: spans or none, and each
        # span holds only the record keys.
        job = AnalysisJob.from_benchmark("check_data")
        assert execute_job((job, None, None, False)).spans == []
        spans = execute_job((job, None, None, True)).spans
        assert "set.worst" in {span["name"] for span in spans}
        assert [sorted(span) for span in spans] \
            == [sorted(RECORD_KEYS)] * len(spans)

    def test_failed_job_does_not_poison_batch(self):
        bad = AnalysisJob(name="bad", source="int f() { return 1; }",
                          entry="missing")
        good = AnalysisJob.from_benchmark("check_data")
        engine = AnalysisEngine(workers=1)
        results = engine.run([bad, good])
        assert results[0].status == "failed"
        assert not results[0].ok and results[0].report is None
        assert "missing" in results[0].error
        assert results[1].ok
        assert [engine.registry.value(f"engine.jobs.{status}")
                for status in ("ok", "partial", "failed")] == [1, 0, 1]

    def test_pooled_workers_never_write_the_cache(self, tmp_path):
        engine = AnalysisEngine(workers=2, cache_dir=tmp_path)
        results = engine.run([AnalysisJob.from_benchmark("check_data"),
                              _job()])
        assert all(result.ok for result in results)
        entries = sorted(tmp_path.glob("??/*.json"))
        assert len(entries) == 2
        assert [json.loads(path.read_text())["kind"]
                for path in entries] == ["job", "job"]

    def test_job_cache_keeps_every_digit(self, tmp_path):
        # Loop bounds 1000000 and 1000001 print alike with six
        # significant digits; sharing a cache entry would serve the
        # first job's (unsound) bound to the second.
        source = """
        int f() {
            int i; int s; s = 0;
            for (i = 0; i < 5; i++) s += i;
            return s;
        }
        """
        worst = {}
        for hi in (1000000, 1000001):
            job = AnalysisJob(name=f"f{hi}", source=source, entry="f",
                              bounds=((None, None, 0, hi),))
            result = AnalysisEngine(workers=1, cache_dir=tmp_path) \
                .run([job])[0]
            assert not result.cache_hit
            worst[hi] = result.report.worst
        alone = Analysis(source, entry="f")
        alone.bound_loop(0, 1000001)
        assert worst[1000001] == alone.estimate().worst > worst[1000000]


def _alive(pid: int) -> bool:
    """True while `pid` runs; a zombie awaiting its reaper is gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


class TestPoolRetry:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(pool_module, "BACKOFF", 0.0)

    def test_dead_worker_is_retried(self, tmp_path):
        dying = _DyingJob(name="dying", source=SOURCE, entry="tally",
                          auto_bounds=True,
                          marker=str(tmp_path / "died"))
        results = AnalysisEngine(workers=2).run([dying, _job()])
        assert [r.status for r in results] == ["ok", "ok"]
        assert results[0].attempts == 2
        assert (tmp_path / "died").exists()

    @pytest.mark.parametrize("retries", [0, 1, 2])
    def test_attempts_count_tries_when_retries_run_out(self, retries,
                                                       monkeypatch):
        monkeypatch.setattr(pool_module, "RETRIES", retries)
        jobs = [_DyingJob(name=f"dying{n}", source=SOURCE, entry="tally",
                          auto_bounds=True) for n in range(2)]
        results = AnalysisEngine(workers=2).run(jobs)
        assert [r.status for r in results] == ["failed", "failed"]
        assert [r.attempts for r in results] == [retries + 1] * 2
        assert "BrokenProcessPool" in results[0].error

    def test_a_broken_pool_is_replaced_once(self, tmp_path, monkeypatch):
        # Every job in flight on the pool the dying worker broke fails
        # with it, but only the first to notice replaces the pool: a
        # second replacement would tear down the pool the others were
        # already resubmitted to.
        made = []
        new_executor = pool_module.new_executor

        def counting(*args):
            made.append(new_executor(*args))
            return made[-1]

        monkeypatch.setattr(pool_module, "new_executor", counting)
        dying = _DyingJob(name="dying", source=SOURCE, entry="tally",
                          auto_bounds=True,
                          marker=str(tmp_path / "died"))
        jobs = [dying] + [_job() for _ in range(4)]
        results = AnalysisEngine(workers=2).run(jobs)
        assert [r.status for r in results] == ["ok"] * len(jobs)
        assert results[0].attempts == 2
        assert len(made) == 2

    def test_workers_exit_when_their_owner_is_killed(self):
        # A SIGKILLed owner cannot shut its pool down: the spawned
        # workers notice they were orphaned, and the resource tracker
        # ends with them.
        script = textwrap.dedent(f"""
            import asyncio, time
            from multiprocessing import resource_tracker
            from repro.engine import AnalysisJob, execute_job
            from repro.engine.pool import Pool

            pool = Pool(2, start_method="spawn")
            job = AnalysisJob(name="tally", source={SOURCE!r},
                              entry="tally", auto_bounds=True)
            result = asyncio.run(
                pool.run(execute_job, (job, None, None, False)))
            assert result.ok, result
            pids = list(pool._executor._processes)
            pids.append(resource_tracker._resource_tracker._pid)
            print(*pids, flush=True)
            time.sleep(60)
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True,
                              env=env) as owner:
            try:
                pids = [int(pid)
                        for pid in owner.stdout.readline().split()]
                assert len(pids) >= 2, pids
                assert all(_alive(pid) for pid in pids)
            finally:
                owner.kill()                  # SIGKILL: no clean-up
        deadline = time.monotonic() + 5
        while any(_alive(pid) for pid in pids) \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _alive(pid)]


class TestTimeouts:
    def test_problem_solve_raises_typed_timeout(self):
        # Without the functionality constraint the presolved LP keeps
        # the branch choice and the loop bounds, which take pivots.
        analysis = Analysis(SOURCE, entry="tally")
        analysis.auto_bound_loops()
        _worst, best = analysis.set_tasks()[0].problems()
        assert best.solve().stats.simplex_iterations >= 2
        with pytest.raises(ILPTimeoutError):
            best.solve(max_iterations=1)

    def test_fully_presolved_problem_needs_no_pivot(self):
        # (x4 = 8 & x5 = 0) fixes every count: presolve leaves an
        # empty LP, so a budget of one pivot cannot trip.
        worst, _best = _analysis().set_tasks()[0].problems()
        result = worst.solve(max_iterations=1)
        assert result.optimal
        assert result.stats.simplex_iterations == 0

    def test_deadline_timeout(self):
        worst, _best = _analysis().set_tasks()[0].problems()
        with pytest.raises(ILPTimeoutError):
            worst.solve(timeout=0.0)

    def test_set_timeout_degrades_to_sound_partial_bound(self):
        exact = _analysis().estimate()
        partial = _analysis().estimate(set_timeout=0.0)
        assert partial.partial is True
        assert any(r.timed_out for r in partial.set_results)
        # The relaxation fallback only ever widens the interval.
        assert partial.worst >= exact.worst
        assert partial.best <= exact.best

    def test_partial_results_are_not_cached(self, tmp_path):
        job = _job()
        engine = AnalysisEngine(workers=1, cache_dir=tmp_path,
                                set_timeout=0.0)
        first = engine.run([job])[0]
        assert first.status == "partial"
        retry = AnalysisEngine(workers=1, cache_dir=tmp_path).run([job])[0]
        assert not retry.cache_hit
        assert retry.status == "ok"


class TestMetrics:
    def test_json_round_trip(self, tmp_path):
        engine = AnalysisEngine(workers=1, cache_dir=tmp_path,
                                tracer=Tracer())
        engine.run([_job()])
        path = tmp_path / "metrics.json"
        engine.registry.dump(path)
        loaded = MetricsRegistry.load(path)
        redump, original = loaded.snapshot(), engine.registry.snapshot()
        redump.pop("_ts")                      # fresh capture stamp
        original.pop("_ts")
        assert redump == original
        assert loaded.value("engine.sets.solved") >= 1
        assert "engine.stage_seconds.solve" in loaded

    def test_render_mentions_stages_and_jobs(self):
        engine = AnalysisEngine(workers=1, tracer=Tracer())
        engine.run([_job()])
        rows = [line.split()[0] for line in
                render(engine.registry).splitlines()[2:7]]
        assert rows == list(STAGES)
        assert "jobs: 1 ok" in render(engine.registry)

    def test_stage_seconds_are_the_pipeline_spans(self):
        engine = AnalysisEngine(workers=1, tracer=Tracer())
        result, = engine.run([AnalysisJob.from_benchmark("check_data")])
        spans: dict = {}
        for span in result.spans:
            if span["cat"] == "pipeline":
                spans[span["name"]] = spans.get(span["name"], 0) \
                    + span["dur"]
        assert sorted(spans) == sorted(STAGES)     # compile included
        prefix = "engine.stage_seconds."
        assert {name[len(prefix):]: engine.registry.value(name)
                for name in engine.registry.names(prefix)} == spans

    def test_refuted_sets_are_counted(self):
        engine = AnalysisEngine(workers=1)
        assert engine.run([AnalysisJob.from_benchmark("dhry")])[0].ok
        assert engine.registry.value("engine.sets.solved") == 3
        assert engine.registry.value("engine.sets.refuted") == 2
        assert "over 3 sets (2 refuted)" in render(engine.registry)

    def test_untraced_engine_records_no_stage_seconds(self):
        engine = AnalysisEngine(workers=1)
        assert engine.run([_job()])[0].ok
        assert engine.registry.names("engine.stage_seconds.") == []
        assert engine.registry.value("engine.sets.solved") == 2
