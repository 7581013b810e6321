"""Batch engine — warm-cache re-runs.

Headline claim: re-running the Table I suite against a warm result
cache is >= 5x faster than the cold run, with identical bounds.
"""

import time

from conftest import one_shot

from repro.engine import AnalysisEngine, AnalysisJob


def test_warm_cache_table1(benchmark, tmp_path, benchmarks):
    jobs = [AnalysisJob.from_benchmark(name) for name in benchmarks]

    cold_engine = AnalysisEngine(workers=2, cache_dir=tmp_path)
    clock = time.perf_counter()
    cold = cold_engine.run(jobs)
    cold_seconds = time.perf_counter() - clock
    assert all(result.ok and not result.cache_hit for result in cold)

    warm_engine = AnalysisEngine(workers=2, cache_dir=tmp_path)
    clock = time.perf_counter()
    warm = one_shot(benchmark, warm_engine.run, jobs)
    warm_seconds = time.perf_counter() - clock
    assert all(result.cache_hit for result in warm)
    registry = warm_engine.registry
    assert registry.value("engine.cache.hits.job") == len(jobs)
    assert "engine.cache.misses.job" not in registry

    for before, after in zip(cold, warm):
        assert after.report.interval == before.report.interval

    speedup = cold_seconds / warm_seconds
    print(f"\ncold {cold_seconds:.2f}s, warm {warm_seconds:.3f}s "
          f"-> {speedup:.1f}x")
    assert speedup >= 5.0
