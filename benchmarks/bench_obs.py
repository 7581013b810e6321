"""Observability overhead guard.

Tracing must be cheap enough to leave on in CI: a fully traced
estimate (pipeline spans + per-set solver spans + per-LP simplex
spans) may cost at most 5% wall time over the NULL_TRACER path, and
the disabled path itself must be indistinguishable from free.

The guard times the two most solver-bound routines in the suite
(``des`` and ``dhry``).  One estimate pass over them takes only about
10-20 ms, and on a shared host the speed of the machine swings by
more than the 5% being asserted from one second to the next, so a
guard neither times one pass per arm nor times the arms in separate
stretches: in each round the arms take turns, one pass at a time and
in alternating order, until each has spent at least half a second
estimating, and the round compares their mean passes.  A guard
asserts the median of those ratios over several rounds.  Every pass
estimates fresh analyses with a fresh tracer, so a traced pass
records exactly the spans one traced estimate of the two routines
records.
"""

import statistics
import threading
import time

from conftest import one_shot

from repro.obs import NULL_TRACER, Tracer, trace_skeleton
from repro.programs import get_benchmark

#: The guard threshold from the issue: traced estimate <= 1.05x plain.
MAX_OVERHEAD = 0.05
_ROUNDS = 8
_WORKLOAD = ("des", "dhry")
#: Estimating time each arm adds up to in one round, at least.
_SAMPLE_SECONDS = 0.5


def _one_pass(tracer) -> float:
    """Wall time of one estimate pass over the guard workload."""
    analyses = [get_benchmark(name).make_analysis(tracer=tracer)
                for name in _WORKLOAD]
    clock = time.perf_counter()
    for analysis in analyses:
        analysis.estimate()
    return time.perf_counter() - clock


def _plain() -> float:
    return _one_pass(NULL_TRACER)


def _one_round(base, arm) -> float:
    """`arm`'s mean pass over `base`'s in one round; each is a
    callable that runs one pass and returns its wall time."""
    spent = [0.0, 0.0]
    passes = 0
    while min(spent) < _SAMPLE_SECONDS:
        order = (0, 1) if passes % 2 == 0 else (1, 0)
        for i in order:
            spent[i] += (base, arm)[i]()
        passes += 1
    return spent[1] / spent[0]


def _overhead(benchmark, base, arm) -> float:
    """`arm`'s cost over `base`'s: the median ratio of _ROUNDS rounds,
    less one."""
    base()  # warm compile/import caches

    def rounds() -> list[float]:
        return [_one_round(base, arm) for _ in range(_ROUNDS)]

    ratios = one_shot(benchmark, rounds)
    print("\nper-round overhead: "
          + " ".join(f"{ratio - 1:+.1%}" for ratio in ratios))
    return statistics.median(ratios) - 1.0


def test_tracing_overhead_under_five_percent(benchmark):
    last = [None]

    def traced() -> float:
        last[0] = Tracer()
        return _one_pass(last[0])

    overhead = _overhead(benchmark, _plain, traced)

    # The traced runs actually traced: pipeline + solver spans present.
    skeleton = trace_skeleton(last[0].records())
    assert any(line.startswith("pipeline:solve") for line in skeleton)
    assert any("solver:set.worst" in line for line in skeleton)
    assert any("solver:simplex.phase2" in line for line in skeleton)

    print(f"tracing overhead {overhead:+.1%}")
    assert overhead < MAX_OVERHEAD


def _mission_control(interval=0.0):
    """A representative mission-control stack: a registry shaped like
    a busy service's (counters, gauges, histograms), sampled into a
    series store and judged against the default SLOs."""
    from repro.obs import (MetricsRegistry, RegistrySampler, SeriesStore,
                           SLOEngine, default_slos)

    registry = MetricsRegistry()
    for i in range(24):
        registry.counter(f"service.jobs.kind_{i}").inc(i)
    for tenant in ("acme", "beta", "gamma"):
        registry.counter(f"tenant.{tenant}.submitted").inc(5)
        registry.counter(f"tenant.{tenant}.throttled_429")
    for i in range(8):
        registry.gauge(f"service.depth_{i}").set(i)
    for name in ("service.queue_seconds", "service.run_seconds"):
        hist = registry.histogram(name)
        for value in (0.01, 0.1, 1.0, 3.0):
            hist.observe(value)
    store = SeriesStore()
    sampler = RegistrySampler(registry, store, interval=interval)
    engine = SLOEngine(store, slos=default_slos(), registry=registry)
    return registry, sampler, engine


def test_series_sampling_overhead_under_five_percent(benchmark):
    """The tentpole's overhead guard: estimates running next to a
    sampler + SLO evaluator ticking at 100x the production cadence
    (every 10 ms instead of every 1 s) may cost at most 5% over
    running alone."""
    registry, sampler, engine = _mission_control()
    stop = threading.Event()

    def tick():
        hot = registry.counter("service.jobs.submitted")
        while not stop.is_set():
            hot.inc()
            sampler.sample()
            engine.evaluate()
            time.sleep(0.01)

    def sampled() -> float:
        ticker = threading.Thread(target=tick)
        stop.clear()
        ticker.start()
        try:
            return _plain()
        finally:
            stop.set()
            ticker.join()

    overhead = _overhead(benchmark, _plain, sampled)

    # The guard arm really did the mission-control work.
    assert sampler.samples > 0
    assert engine.evaluations > 0
    assert sampler.store.latest("service.jobs.submitted") is not None

    print(f"series sampling overhead {overhead:+.1%} ({sampler.samples} "
          f"samples, {engine.evaluations} evaluations)")
    assert overhead < MAX_OVERHEAD


def test_series_disabled_is_zero_cost():
    """``--no-series`` constructs nothing: no store, no sampler, no
    SLO engine, and — because sampling is pull-based — no hook on any
    metric mutator, so a counter increment costs the same with the
    subsystem compiled in as it ever did."""
    from repro.obs import MetricsRegistry
    from repro.service.server import AnalysisService

    service = AnalysisService(series=False)
    assert service.series_store is None
    assert service.sampler is None
    assert service.slo is None

    counter = MetricsRegistry().counter("hot")
    clock = time.perf_counter()
    for _ in range(10_000):
        counter.inc()
    per_inc = (time.perf_counter() - clock) / 10_000
    assert per_inc < 5e-6


def test_null_tracer_disabled_path_is_free():
    """10k disabled spans must cost microseconds each — i.e.
    instrumentation sites are safe in inner solver loops."""
    clock = time.perf_counter()
    for _ in range(10_000):
        with NULL_TRACER.span("site", cat="solver") as span:
            span.inc("pivots")
    per_span = (time.perf_counter() - clock) / 10_000
    assert per_span < 5e-6
