"""Analysis service — concurrent Table I replay through the HTTP API.

A load generator drives the asyncio job-queue server the way a CI
fleet would: every Table I routine is submitted concurrently from
client threads, twice.  The first wave is cold; the second hits the
shared content-addressed result cache.  Asserted shape:

* every bound returned over HTTP equals the serial
  ``Analysis.estimate`` bound for the same routine (the service is a
  transport, not a different analysis);
* the second wave is answered from the job cache (hit rate 1.0);
* the /metricz snapshot carries the queue-latency histogram and the
  throughput/percentile summary printed below.

A second guard bounds the **job journal** (``--journal``, see
docs/durability.md) at 5% of submit->done throughput: the WAL sits
on the hot path (the 202 waits for the ``submit`` frame), so its
cost must stay in the noise.
"""

import statistics
import threading
import time

from conftest import one_shot

from repro.obs import MetricsRegistry
from repro.service import ServiceClient, ServiceThread


def _replay(client: ServiceClient, names, results: dict) -> None:
    """Submit every routine concurrently; wait for all records."""
    errors = []

    def drive(name: str) -> None:
        try:
            ticket = client.submit_retry({"benchmark": name})
            results[name] = client.wait(ticket["id"], timeout=300)
        except Exception as error:  # surfaced after join
            errors.append((name, error))

    threads = [threading.Thread(target=drive, args=(name,))
               for name in names]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise AssertionError(f"replay failures: {errors}")


def test_service_replay_table1(benchmark, tmp_path, benchmarks,
                               experiments):
    expected = {name: experiments.report(name).interval
                for name in benchmarks}

    with ServiceThread(workers=2, queue_depth=64,
                       cache_dir=tmp_path) as handle, \
            ServiceClient(port=handle.port) as client:
        client.wait_ready()

        cold: dict = {}
        clock = time.perf_counter()
        one_shot(benchmark, _replay, client, benchmarks, cold)
        cold_seconds = time.perf_counter() - clock

        warm: dict = {}
        clock = time.perf_counter()
        _replay(client, benchmarks, warm)
        warm_seconds = time.perf_counter() - clock

        snapshot = client.metricz()

    # Bounds over HTTP == serial Analysis.estimate, routine by routine.
    for name in benchmarks:
        assert (cold[name]["best"], cold[name]["worst"]) \
            == expected[name], name
        assert (warm[name]["best"], warm[name]["worst"]) \
            == expected[name], name
    assert not any(record["cache_hit"] for record in cold.values())
    assert all(record["cache_hit"] for record in warm.values())

    registry = MetricsRegistry.from_snapshot(snapshot)
    hits = registry.counter("engine.cache.hits.job").value
    misses = registry.counter("engine.cache.misses.job").value
    hit_rate = hits / (hits + misses)
    assert hit_rate == 0.5          # second wave fully cached

    queue = registry.histogram("service.queue_seconds")
    jobs = 2 * len(benchmarks)
    assert queue.count == jobs
    print(f"\n{len(benchmarks)} routines x 2 waves over HTTP")
    print(f"cold wave {cold_seconds:.2f}s "
          f"({len(benchmarks) / cold_seconds:.1f} jobs/s), "
          f"warm wave {warm_seconds:.2f}s "
          f"({len(benchmarks) / warm_seconds:.1f} jobs/s)")
    print(f"queue latency p50 ≤ {queue.percentile(0.5):.3f}s, "
          f"p95 ≤ {queue.percentile(0.95):.3f}s, "
          f"p99 ≤ {queue.percentile(0.99):.3f}s over {queue.count} jobs")
    print(f"job cache hit rate {hit_rate:.2f}")


# ----------------------------------------------------------------------
# Journal overhead guard
# ----------------------------------------------------------------------
#: A journal may tax submit->done throughput by at most 5%
#: (docs/durability.md).
MAX_JOURNAL_OVERHEAD = 0.05

#: Tripwire for gross hot-path regressions (a per-frame fsync costs
#: 0.5-10ms depending on the disk; pathological frame building is
#: worse): the mean framed append — including the group commit's
#: amortized flush+fsync — is ~10us cold and ~100us under full GIL
#: contention from solver threads.
MAX_SECONDS_PER_FRAME = 1e-3


def test_journal_overhead_under_five_percent(benchmark, tmp_path,
                                             benchmarks, experiments):
    """Replay Table I through a *journaled* service and bound the
    WAL's share of wall time.

    The journal instruments itself (``JobJournal.write_seconds``
    accrues the wall clock of every frame write, flush and group
    fsync — surfaced as the ``service.journal.write_seconds`` gauge),
    so the guard divides exact journal time by the replay's wall
    time instead of differencing two noisy end-to-end arms: on a
    busy machine a two-arm comparison of a ~2% effect flaps, while
    the share measurement is deterministic.
    """
    expected = {name: experiments.report(name).interval
                for name in benchmarks}

    with ServiceThread(workers=2, queue_depth=64,
                       cache_dir=tmp_path / "cache",
                       journal_dir=tmp_path / "journal") as handle, \
            ServiceClient(port=handle.port) as client:
        client.wait_ready()

        def replay_twice() -> tuple[dict, dict, float]:
            cold: dict = {}
            warm: dict = {}
            clock = time.perf_counter()
            _replay(client, benchmarks, cold)     # cold wave
            _replay(client, benchmarks, warm)     # cache-warm wave
            return cold, warm, time.perf_counter() - clock

        cold, warm, wall = one_shot(benchmark, replay_twice)
        snapshot = client.metricz()

    # Journaling must not change a single served bound.
    for name in benchmarks:
        assert (cold[name]["best"], cold[name]["worst"]) \
            == expected[name], name
        assert (warm[name]["best"], warm[name]["worst"]) \
            == expected[name], name

    registry = MetricsRegistry.from_snapshot(snapshot)
    frames = registry.value("service.journal.records")
    write_seconds = registry.value("service.journal.write_seconds")
    # Every job left at least a submit and a terminal frame.
    assert frames >= 2 * 2 * len(benchmarks)

    share = write_seconds / wall
    per_frame = write_seconds / frames
    print(f"\n{2 * len(benchmarks)} journaled jobs in {wall:.2f}s; "
          f"{frames:.0f} WAL frames took {write_seconds * 1e3:.1f}ms "
          f"({per_frame * 1e6:.0f}us/frame) -> journal share "
          f"{share:.2%} of throughput")
    assert share < MAX_JOURNAL_OVERHEAD
    assert per_frame < MAX_SECONDS_PER_FRAME


# ----------------------------------------------------------------------
# Chaos disabled-path guard
# ----------------------------------------------------------------------
#: The injection seams are production code; with no plan installed
#: (the NULL_INJECTOR default) they may tax the journal+cache hot
#: path by at most 5% — and an installed-but-idle plan (rules that
#: never match the exercised points) must stay inside the same bound.
MAX_CHAOS_OVERHEAD = 0.05

#: Pairs of rounds, one round per arm each.  A round lasts about 20 ms,
#: so one scheduling hiccup can decide a round: the guard asserts the
#: median of the per-pair ratios, which a few such rounds cannot move.
_CHAOS_PAIRS = 61
_CHAOS_OPS = 400


def test_chaos_seams_overhead_under_five_percent(benchmark, tmp_path):
    """Time the seam-dense loop (WAL appends + sealed cache reads)
    with the null injector against the same loop with an idle plan
    installed, in pairs of rounds that alternate which arm runs first,
    so CPU drift and warm-up hit both arms equally."""
    from repro.analysis.report import BoundReport, SetResult
    from repro.chaos import FaultPlan, inject
    from repro.engine.cache import ResultCache
    from repro.ilp import Status
    from repro.service import JobJournal, JobSpec

    spec = JobSpec.from_dict({"name": "guard", "benchmark": "des"}) \
        .to_dict()
    cache = ResultCache(tmp_path / "cache")
    for n in range(8):
        result = SetResult(index=0, status=Status.OPTIMAL,
                           worst=10.0, best=2.0)
        cache.put_report(f"k{n}", BoundReport(
            entry="guard", machine="m", best=2, worst=10,
            set_results=[result], sets_total=1, sets_pruned=0))
    journal = JobJournal(tmp_path / "journal", fsync_interval=3600.0)
    journal.open()

    def one_round() -> float:
        clock = time.perf_counter()
        for n in range(_CHAOS_OPS):
            journal.append("set_done", id="j000001", set=n,
                           worst=10, best=2, feasible=True)
            # The disk read: repeat get_report calls are answered
            # from memory and never visit the cache.read seam.
            cache._read(f"k{n % 8}")
        return time.perf_counter() - clock

    one_round()                       # warm file handles and imports

    # An idle plan: armed points none of the exercised seams visit,
    # so every seam pays the full "installed" lookup yet never fires.
    idle_plan = FaultPlan.parse("seed=1,solver.budget=*,worker.hang=*")

    def idle_round() -> float:
        inject.install(idle_plan)
        try:
            return one_round()
        finally:
            inject.reset()

    def paired() -> list[tuple[float, float]]:
        """(null, idle) round times, one pair per entry."""
        inject.reset()
        pairs = []
        for pair in range(_CHAOS_PAIRS):
            if pair % 2:
                idle = idle_round()
                null = one_round()
            else:
                null = one_round()
                idle = idle_round()
            pairs.append((null, idle))
        return pairs

    try:
        pairs = one_shot(benchmark, paired)
    finally:
        journal.close()

    ratios = [idle / null for null, idle in pairs]
    overhead = statistics.median(ratios) - 1.0
    low, _, high = statistics.quantiles(ratios, n=4)
    per_op = statistics.median(null for null, _ in pairs) \
        / (2 * _CHAOS_OPS)
    print(f"\nidle plan vs null injector over {_CHAOS_PAIRS} pairs of "
          f"{2 * _CHAOS_OPS} seam ops ({per_op * 1e6:.1f}us/op): "
          f"median overhead {overhead:+.2%} (quartiles {low - 1:+.2%} "
          f"to {high - 1:+.2%})")
    assert overhead <= MAX_CHAOS_OVERHEAD
