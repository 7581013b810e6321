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
        assert stats.total_bytes == sum(
            path.stat().st_size for path in tmp_path.glob("??/*.json"))
        assert cache.get_report(legacy.stem) is None
        assert cache.clear() == 2
        assert not legacy.exists()
        assert cache.stats().entries == 0

    def test_stats_count_the_quarantine_files(self, tmp_path):
        # The count is the files in quarantine/, whatever object or
        # process moved them there.  A key quarantined twice leaves one
        # file (the second move replaces the first), so it counts once.
        report = _analysis().estimate()
        first = ResultCache(tmp_path)
        for key in ("k1", "k2"):
            first.put_report(key, report)
        _flip_byte(first._path("k1"), 100)
        assert first.get_report("k1") is None
        first.put_report("k1", report)
        second = ResultCache(tmp_path)
        for key in ("k1", "k2"):
            _flip_byte(second._path(key), 100)
            assert second.get_report(key) is None
        assert (first.quarantined, second.quarantined) == (1, 2)
        assert sorted(path.name for path in
                      (tmp_path / "quarantine").iterdir()) \
            == ["k1.json", "k2.json"]
        fresh = ResultCache(tmp_path)
        assert fresh.stats().quarantined == 2
        assert fresh.quarantined == 0
        assert fresh.stats().entries == 0

    def test_reads_a_store_an_earlier_version_wrote(self, tmp_path):
        # An earlier version kept lifetime counters in _meta.json and
        # may have left set entries.  Both are ignored, never rewritten,
        # and clear() removes the set entry but not the counter file.
        import hashlib

        report = _analysis().estimate()
        key = hashlib.sha256(b"an earlier version's job").hexdigest()
        payload = {"kind": "job", "report": report_to_dict(report)}
        digest = hashlib.sha256(json.dumps(
            payload, sort_keys=True).encode()).hexdigest()
        entry = tmp_path / key[:2] / f"{key}.json"
        legacy = tmp_path / "ab" / f"ab{'0' * 62}.json"
        for path, data in ((entry, dict(payload, sha256=digest)),
                           (legacy, {"kind": "set", "result": {}})):
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(data, sort_keys=True))
        meta = tmp_path / "_meta.json"
        meta.write_text(json.dumps({"evictions": 3, "quarantined": 1},
                                   sort_keys=True))
        os.utime(meta, ns=(10**9, 10**9))
        written = meta.read_bytes()

        cache = ResultCache(tmp_path)
        assert _canonical(cache.get_report(key)) == _canonical(report)
        stats = cache.stats()
        assert (stats.entries, stats.quarantined) == (2, 0)
        cache.put_report("k1", report)
        _flip_byte(cache._path("k1"), 100)
        assert ResultCache(tmp_path).get_report("k1") is None
        assert cache.stats().quarantined == 1
        assert cache.clear() == 2
        assert meta.read_bytes() == written
        assert meta.stat().st_mtime_ns == 10**9
        assert [path.name for path in tmp_path.iterdir()
                if path.is_file()] == ["_meta.json"]


def _reads(cache) -> list:
    """Count `cache`'s disk reads: the keys its ``_read`` is asked
    for, in order."""
    keys = []
    read = cache._read

    def counted(key):
        keys.append(key)
        return read(key)

    cache._read = counted
    return keys


def _canonical(report) -> str:
    return json.dumps(report_to_dict(report), sort_keys=True)


def _flip_byte(path, at: int) -> None:
    data = bytearray(path.read_bytes())
    data[at % len(data)] ^= 0xFF
    path.write_bytes(bytes(data))


class TestMemoryTier:
    @pytest.fixture(autouse=True)
    def _pristine_injector(self):
        from repro.chaos import inject

        yield
        inject.reset()

    def test_repeat_gets_read_the_file_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.job_key(_job().fingerprint())
        cache.put_report(key, _analysis().estimate())
        reads = _reads(cache)
        disk = report_from_dict(
            json.loads(cache._path(key).read_text())["report"])
        got = [cache.get_report(key) for _ in range(3)]
        assert reads == [key]
        assert [_canonical(report) for report in got] \
            == [_canonical(disk)] * 3

    def test_memory_hit_makes_no_file_system_call(self, tmp_path,
                                                   monkeypatch):
        import builtins
        import io

        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        cache.put_report("k1", report)
        assert cache.get_report("k1") == report        # verified read

        def refuse(name):
            def call(*args, **kwargs):
                # Not an OSError, which the cache would swallow.
                raise AssertionError(f"{name} on a memory hit")
            return call

        # Undone before pytest, which needs the file system, reports.
        with monkeypatch.context() as patch:
            for module, name in ((os, "utime"), (os, "stat"),
                                 (os, "open"), (builtins, "open"),
                                 (io, "open")):
                patch.setattr(module, name,
                              refuse(f"{module.__name__}.{name}"))
            got = [cache.get_report("k1") for _ in range(3)]
        assert got == [report] * 3

    def test_corrupt_entry_is_quarantined_never_held(self, tmp_path):
        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        cache.put_report("k1", report)
        _flip_byte(cache._path("k1"), 100)
        reads = _reads(cache)
        assert cache.get_report("k1") is None
        assert cache.quarantined == 1
        assert "k1" not in cache._memory
        # The recompute's write fills nothing in memory either: the
        # next get verifies the new file, and only then is it held.
        cache.put_report("k1", report)
        assert cache.get_report("k1") == report
        assert cache.get_report("k1") == report
        assert reads == ["k1", "k1"]
        # A write over a held report drops it: the next get is the file.
        rerun = dataclasses.replace(report, worst=report.worst + 1)
        cache.put_report("k1", rerun)
        assert cache.get_report("k1") == rerun
        assert reads == ["k1", "k1", "k1"]

    def test_read_fault_fires_on_disk_reads_only(self, tmp_path):
        from repro.chaos import inject

        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        cache.put_report("k1", report)
        assert cache.get_report("k1") == report        # verified read
        inject.install("seed=1,cache.read=1")
        assert cache.get_report("k1") == report        # from memory
        assert inject.active().counts() == {}
        assert cache.quarantined == 0
        # A restarted process reads the disk, so the fault fires there.
        fresh = ResultCache(tmp_path)
        assert fresh.get_report("k1") is None
        assert inject.active().counts() == {"cache.read": 1}
        assert fresh.quarantined == 1
        assert not cache._path("k1").exists()
        assert list((tmp_path / "quarantine").iterdir())

    def test_byte_bound_drops_least_recently_used(self, tmp_path,
                                                   monkeypatch):
        from repro.engine import cache as cache_module

        cache = ResultCache(tmp_path)
        report = _analysis().estimate()
        keys = [f"k{n}" for n in range(4)]
        for key in keys:
            cache.put_report(key, report)
        size = len(cache._path(keys[0]).read_text())
        assert cache_module.MEMORY_BYTES > 100 * size
        # Room for two entries: a third read drops the least recently
        # used, and a memory hit counts as a use.
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 2 * size + 1)
        for key in (keys[0], keys[1], keys[0], keys[2]):
            assert cache.get_report(key) == report
            assert cache._memory_bytes \
                == sum(held for _, held in cache._memory.values()) \
                <= cache_module.MEMORY_BYTES
        assert list(cache._memory) == [keys[0], keys[2]]
        reads = _reads(cache)
        assert cache.get_report(keys[1]) == report     # back from disk
        assert reads == [keys[1]]
        assert list(cache._memory) == [keys[2], keys[1]]
        # An entry larger than the whole tier is served but not held.
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", size - 1)
        assert cache.get_report(keys[3]) == report
        assert keys[3] not in cache._memory
        assert cache.clear() == 4
        assert not cache._memory and cache._memory_bytes == 0
        assert cache.get_report(keys[2]) is None

    def test_matches_a_dict_model(self, tmp_path):
        # 200 seeded operations on 12 keys.  The model is the stored
        # report per key plus the keys this object has verified: a
        # corrupt or dropped file loses an entry unless it is held.
        import random

        rng = random.Random(31)
        cache = ResultCache(tmp_path)
        base = _analysis().estimate()
        keys = [f"k{n:02d}" for n in range(12)]
        stored, held = {}, set()
        for step in range(200):
            op = rng.choice(["put", "put", "get", "get", "get",
                             "corrupt", "drop", "clear"]
                            if step % 50 else ["clear"])
            key = rng.choice(keys)
            path = cache._path(key)
            if op == "put":
                report = dataclasses.replace(base, worst=base.worst + step)
                cache.put_report(key, report)
                stored[key] = report
                held.discard(key)
            elif op == "get":
                got = cache.get_report(key)
                assert got == stored.get(key), (step, key)
                if got is not None:
                    held.add(key)
            elif op == "corrupt" and path.exists():
                _flip_byte(path, rng.randrange(1 << 16))
                if key not in held:
                    del stored[key]
            elif op == "drop" and path.exists():
                # Another process clears the file.
                path.unlink()
                if key not in held:
                    del stored[key]
            elif op == "clear":
                cache.clear()
                stored.clear()
                held.clear()
            assert set(cache._memory) == held, (step, op, key)
            assert cache._memory_bytes \
                == sum(size for _, size in cache._memory.values())

    def test_writer_output_is_the_sorted_sealed_payload(self, tmp_path):
        import hashlib

        cache = ResultCache(tmp_path)
        reports = [_analysis().estimate(),
                   get_benchmark("dhry").make_analysis().estimate()]
        for n, report in enumerate(reports):
            payload = {"kind": "job", "report": report_to_dict(report)}
            digest = hashlib.sha256(json.dumps(
                payload, sort_keys=True).encode()).hexdigest()
            sealed = json.dumps(dict(payload, sha256=digest),
                                sort_keys=True)
            cache.put_report(f"new{n}", report)
            assert cache._path(f"new{n}").read_text() == sealed
            # An entry written that way by an earlier version reads
            # back unchanged, through a fresh object as after a restart.
            older = cache._path(f"old{n}")
            older.parent.mkdir(exist_ok=True)
            older.write_text(sealed)
            assert _canonical(ResultCache(tmp_path).get_report(
                f"old{n}")) == _canonical(report)


class TestNoSizeCaps:
    """An entry never goes stale, so the store takes no size cap."""

    @pytest.mark.parametrize("keyword", ["max_entries", "max_bytes"])
    def test_cache_takes_no_cap(self, tmp_path, keyword):
        with pytest.raises(TypeError):
            ResultCache(tmp_path, **{keyword: 1})

    def test_engine_takes_no_cache_limits(self, tmp_path):
        with pytest.raises(TypeError):
            AnalysisEngine(workers=1, cache_dir=tmp_path,
                           cache_limits=(1, None))


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
