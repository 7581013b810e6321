"""The engine's metrics: one fold into a registry, one summary.

:func:`record` folds a finished :class:`~repro.engine.jobs.JobResult`
into a :class:`repro.obs.MetricsRegistry` under ``engine.*`` names.
:class:`~repro.engine.AnalysisEngine` and the service scheduler both
record through it, and :func:`render` prints the summary that
``repro engine run`` and ``repro engine stats --metrics`` show.

Stage times come from a job's ``pipeline`` spans, the same spans a
trace shows; a job that ran without a tracer records none.
"""

from __future__ import annotations

#: Stage names in pipeline order, for stable rendering.
STAGES = ("compile", "cfg", "constraints", "expand", "solve")

#: Buckets for the per-set wall-time distribution (seconds).
SET_SECONDS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

_STAGE = "engine.stage_seconds."


def _add(registry, name: str, amount) -> None:
    # Created by its first nonzero increment, so no engine.* name
    # exists that nothing ever recorded.
    if amount:
        registry.counter(name).inc(amount)


def record(registry, result, cache: bool = False) -> None:
    """Fold one finished job into `registry`.

    Counts the job's status and, when `cache` says a result cache was
    consulted, its job-cache hit or miss.  Adds the solver effort of
    every set the job solved (a cache hit solved none) and the
    duration of each of its ``pipeline`` spans to
    ``engine.stage_seconds.<name>``.
    """
    _add(registry, f"engine.jobs.{result.status}", 1)
    if cache:
        outcome = "hits" if result.cache_hit else "misses"
        _add(registry, f"engine.cache.{outcome}.job", 1)
    if result.report is not None and not result.cache_hit:
        histogram = registry.histogram("engine.set_wall_seconds",
                                       buckets=SET_SECONDS_BUCKETS)
        for solved in result.report.set_results:
            _add(registry, "engine.sets.solved", 1)
            _add(registry, "engine.sets.refuted", int(solved.stats.refuted))
            _add(registry, "engine.sets.timed_out", int(solved.timed_out))
            _add(registry, "engine.sets.relaxed", int(solved.relaxed))
            _add(registry, "engine.lp_calls", solved.stats.lp_calls)
            _add(registry, "engine.simplex_iterations",
                 solved.stats.simplex_iterations)
            _add(registry, "engine.nodes", solved.stats.nodes)
            _add(registry, "engine.nodes_pruned",
                 solved.stats.nodes_pruned)
            histogram.observe(solved.wall_time)
    for span in result.spans:
        if span["cat"] == "pipeline":
            _add(registry, _STAGE + span["name"], span["dur"])


def render(registry) -> str:
    """The summary table: wall time per stage, solver effort, per-set
    solve-time percentiles, job-cache traffic and job outcomes."""
    value = registry.value
    stages = {name[len(_STAGE):]: value(name)
              for name in registry.names(_STAGE)}
    total = value("engine.total_seconds")
    lines = [f"{'stage':<14} {'wall s':>9} {'share':>7}", "-" * 32]
    reference = total or sum(stages.values()) or 1.0
    ordered = [s for s in STAGES if s in stages]
    ordered += sorted(set(stages) - set(STAGES))
    for stage in ordered:
        seconds = stages[stage]
        lines.append(f"{stage:<14} {seconds:>9.3f} "
                     f"{seconds / reference:>6.1%}")
    if total:
        lines.append(f"{'total':<14} {total:>9.3f} {'':>7}")
    lines.append("")
    qualifiers = []
    if value("engine.sets.refuted"):
        qualifiers.append(f"{value('engine.sets.refuted')} refuted")
    if value("engine.sets.timed_out"):
        qualifiers.append(f"{value('engine.sets.timed_out')} timed out")
    if value("engine.sets.relaxed"):
        qualifiers.append(f"{value('engine.sets.relaxed')} relaxed")
    lines.append(f"solver: {value('engine.lp_calls')} LP calls, "
                 f"{value('engine.simplex_iterations'):,} simplex "
                 f"iterations, {value('engine.nodes')} nodes over "
                 f"{value('engine.sets.solved')} sets"
                 + (f" ({', '.join(qualifiers)})" if qualifiers else ""))
    if value("engine.set_wall_seconds"):
        histogram = registry.histogram("engine.set_wall_seconds")
        lines.append(
            f"set solve seconds: "
            f"p50 ≤ {histogram.percentile(0.50):.4g}, "
            f"p95 ≤ {histogram.percentile(0.95):.4g}, "
            f"p99 ≤ {histogram.percentile(0.99):.4g} "
            f"(mean {histogram.mean:.4g} over "
            f"{histogram.count} sets)")
    hits = value("engine.cache.hits.job")
    lookups = hits + value("engine.cache.misses.job")
    if lookups:
        lines.append(f"cache[job]: {hits}/{lookups} hits "
                     f"({hits / lookups:.1%})")
    lines.append(f"jobs: {value('engine.jobs.ok')} ok, "
                 f"{value('engine.jobs.partial')} partial, "
                 f"{value('engine.jobs.failed')} failed")
    return "\n".join(lines)
