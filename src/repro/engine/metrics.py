"""Per-stage instrumentation for the batch analysis engine.

:class:`EngineMetrics` accumulates, across every job an engine run
touches:

* wall time per pipeline stage — ``compile``, ``cfg``, ``constraints``
  (system assembly + DNF expansion) and ``solve`` — plus the run's
  total wall time;
* solver effort: LP calls, cumulative simplex iterations, branch &
  bound nodes explored and pruned, and how many constraint sets were
  solved vs timed out vs degraded to an LP relaxation;
* job-cache traffic: hits and misses;
* job outcomes: ``ok`` / ``partial`` / ``failed``.

Since the observability layer landed, the figures live in a
:class:`repro.obs.MetricsRegistry` (under ``engine.*`` names) and this
class is a typed facade over it: the historical attribute API
(``metrics.lp_calls``, ``metrics.jobs``, ...) keeps working, while
``repro obs dump`` / ``repro obs diff`` can address the same numbers
as registry snapshots.

The object round-trips through JSON (:meth:`to_dict` / :meth:`load`)
so ``repro engine stats`` can render a summary of a past run, and
:meth:`render` produces the human-readable table the CLI prints.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs.registry import MetricsRegistry

#: Stage names in pipeline order, for stable rendering.
STAGES = ("compile", "cfg", "constraints", "solve")

#: Registry name prefixes behind the facade attributes.
_STAGE = "engine.stage_seconds."
_HITS = "engine.cache.hits."
_MISSES = "engine.cache.misses."
_JOBS = "engine.jobs."

#: Buckets for the per-set wall-time distribution (seconds).
SET_SECONDS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 60.0)


class EngineMetrics:
    """Aggregated instrumentation for one engine run.

    Wraps a :class:`~repro.obs.MetricsRegistry` (pass one in to share
    it, or let the constructor make a private one).
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        # Pre-create the fixed-key families so the dict views always
        # carry every expected key, even at zero.
        self.registry.counter(_HITS + "job")
        self.registry.counter(_MISSES + "job")
        for status in ("ok", "partial", "failed"):
            self.registry.counter(_JOBS + status)
        self.registry.gauge("engine.total_seconds")
        self.registry.histogram("engine.set_wall_seconds",
                                buckets=SET_SECONDS_BUCKETS)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def add_stage(self, stage: str, seconds: float) -> None:
        self.registry.counter(_STAGE + stage).inc(seconds)

    def record_report(self, report) -> None:
        """Fold one :class:`~repro.analysis.BoundReport`'s evidence in."""
        for stage, seconds in (report.timings or {}).items():
            self.add_stage(stage, seconds)
        for result in report.set_results:
            self.registry.counter("engine.sets.solved").inc()
            if result.timed_out:
                self.registry.counter("engine.sets.timed_out").inc()
            if getattr(result, "relaxed", False):
                self.registry.counter("engine.sets.relaxed").inc()
            self.registry.counter("engine.lp_calls").inc(
                result.stats.lp_calls)
            self.registry.counter("engine.simplex_iterations").inc(
                result.stats.simplex_iterations)
            self.registry.counter("engine.nodes").inc(result.stats.nodes)
            self.registry.counter("engine.nodes_pruned").inc(
                getattr(result.stats, "nodes_pruned", 0))
            self.registry.histogram(
                "engine.set_wall_seconds",
                buckets=SET_SECONDS_BUCKETS).observe(result.wall_time)

    def record_cache(self, layer: str, hit: bool) -> None:
        prefix = _HITS if hit else _MISSES
        self.registry.counter(prefix + layer).inc()

    def record_job(self, status: str) -> None:
        self.registry.counter(_JOBS + status).inc()

    # ------------------------------------------------------------------
    # Facade attributes (the historical EngineMetrics API)
    # ------------------------------------------------------------------
    def _family(self, prefix: str) -> dict:
        return {name[len(prefix):]: self.registry.value(name)
                for name in self.registry.names(prefix)}

    @property
    def stage_seconds(self) -> dict:
        return self._family(_STAGE)

    @property
    def total_seconds(self) -> float:
        return self.registry.gauge("engine.total_seconds").value

    @total_seconds.setter
    def total_seconds(self, value: float) -> None:
        self.registry.gauge("engine.total_seconds").set(value)

    @property
    def lp_calls(self) -> int:
        return self.registry.value("engine.lp_calls")

    @property
    def simplex_iterations(self) -> int:
        return self.registry.value("engine.simplex_iterations")

    @property
    def nodes(self) -> int:
        return self.registry.value("engine.nodes")

    @property
    def nodes_pruned(self) -> int:
        return self.registry.value("engine.nodes_pruned")

    @property
    def sets_solved(self) -> int:
        return self.registry.value("engine.sets.solved")

    @property
    def sets_timed_out(self) -> int:
        return self.registry.value("engine.sets.timed_out")

    @property
    def sets_relaxed(self) -> int:
        return self.registry.value("engine.sets.relaxed")

    @property
    def cache_hits(self) -> dict:
        return self._family(_HITS)

    @property
    def cache_misses(self) -> dict:
        return self._family(_MISSES)

    @property
    def jobs(self) -> dict:
        return self._family(_JOBS)

    # ------------------------------------------------------------------
    # Derived figures
    # ------------------------------------------------------------------
    def hit_rate(self, layer: str) -> float | None:
        hits = self.cache_hits.get(layer, 0)
        misses = self.cache_misses.get(layer, 0)
        if hits + misses == 0:
            return None
        return hits / (hits + misses)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The historical flat schema plus the registry snapshot.

        The flat keys keep old consumers (and old dumps) working; the
        ``"registry"`` key carries the full snapshot — including
        histograms — so a round trip loses nothing.
        """
        return {
            "stage_seconds": self.stage_seconds,
            "total_seconds": self.total_seconds,
            "lp_calls": self.lp_calls,
            "simplex_iterations": self.simplex_iterations,
            "nodes": self.nodes,
            "sets_solved": self.sets_solved,
            "sets_timed_out": self.sets_timed_out,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "jobs": self.jobs,
            "registry": self.registry.snapshot(),
        }

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "EngineMetrics":
        if "registry" in data:
            return cls(MetricsRegistry.from_snapshot(data["registry"]))
        # Pre-observability dump: rebuild the registry from the flat
        # schema (histograms were not recorded back then).
        metrics = cls()
        for stage, seconds in data.get("stage_seconds", {}).items():
            metrics.add_stage(stage, seconds)
        metrics.total_seconds = data.get("total_seconds", 0.0)
        registry = metrics.registry
        registry.counter("engine.lp_calls").inc(data.get("lp_calls", 0))
        registry.counter("engine.simplex_iterations").inc(
            data.get("simplex_iterations", 0))
        registry.counter("engine.nodes").inc(data.get("nodes", 0))
        registry.counter("engine.sets.solved").inc(
            data.get("sets_solved", 0))
        registry.counter("engine.sets.timed_out").inc(
            data.get("sets_timed_out", 0))
        for layer, count in data.get("cache_hits", {}).items():
            registry.counter(_HITS + layer).inc(count)
        for layer, count in data.get("cache_misses", {}).items():
            registry.counter(_MISSES + layer).inc(count)
        for status, count in data.get("jobs", {}).items():
            registry.counter(_JOBS + status).inc(count)
        return metrics

    @classmethod
    def load(cls, path: str | Path) -> "EngineMetrics":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The per-stage summary table ``repro engine run`` prints."""
        stage_seconds = self.stage_seconds
        lines = [f"{'stage':<14} {'wall s':>9} {'share':>7}",
                 "-" * 32]
        accounted = sum(stage_seconds.values())
        reference = self.total_seconds or accounted or 1.0
        ordered = [s for s in STAGES if s in stage_seconds]
        ordered += sorted(set(stage_seconds) - set(STAGES))
        for stage in ordered:
            seconds = stage_seconds[stage]
            lines.append(f"{stage:<14} {seconds:>9.3f} "
                         f"{seconds / reference:>6.1%}")
        if self.total_seconds:
            lines.append(f"{'total':<14} {self.total_seconds:>9.3f} "
                         f"{'':>7}")
        lines.append("")
        qualifiers = []
        if self.sets_timed_out:
            qualifiers.append(f"{self.sets_timed_out} timed out")
        if self.sets_relaxed:
            qualifiers.append(f"{self.sets_relaxed} relaxed")
        lines.append(f"solver: {self.lp_calls} LP calls, "
                     f"{self.simplex_iterations:,} simplex iterations, "
                     f"{self.nodes} nodes over {self.sets_solved} sets"
                     + (f" ({', '.join(qualifiers)})" if qualifiers
                        else ""))
        histogram = self.registry.histogram("engine.set_wall_seconds",
                                            buckets=SET_SECONDS_BUCKETS)
        if histogram.count:
            lines.append(
                f"set solve seconds: "
                f"p50 {histogram.percentile(0.50):.4g}, "
                f"p95 {histogram.percentile(0.95):.4g}, "
                f"p99 {histogram.percentile(0.99):.4g} "
                f"(mean {histogram.mean:.4g} over "
                f"{histogram.count} sets)")
        rate = self.hit_rate("job")
        if rate is not None:
            hits = self.cache_hits.get("job", 0)
            total = hits + self.cache_misses.get("job", 0)
            lines.append(f"cache[job]: {hits}/{total} hits ({rate:.1%})")
        jobs = self.jobs
        lines.append(f"jobs: {jobs.get('ok', 0)} ok, "
                     f"{jobs.get('partial', 0)} partial, "
                     f"{jobs.get('failed', 0)} failed")
        return "\n".join(lines)
