"""The engine's job model: what to analyze, and what came back.

An :class:`AnalysisJob` is a pure-data description of one IPET run —
routine x machine x mode x constraint overrides — that pickles cleanly
across a process boundary and fingerprints deterministically for the
job-level cache.  Jobs come in two flavors:

* **benchmark jobs** (:meth:`AnalysisJob.from_benchmark`) name a
  routine of the paper's Table-I suite; the worker rebuilds it from
  :mod:`repro.programs`, including its loop bounds and functionality
  constraints;
* **source jobs** carry MiniC text plus explicit loop bounds /
  constraint strings, exactly mirroring the ``repro analyze`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import Analysis, BoundReport
from ..errors import AnalysisError
from ..hw import Machine, i960kb


def _none_first(row: tuple) -> tuple:
    """Sort key for bound and constraint rows: a null function or line
    sorts before any value, where plain tuple order would raise."""
    return tuple((field is not None, field) for field in row)


@dataclass(frozen=True)
class AnalysisJob:
    """One unit of batch-analysis work (picklable, hashable)."""

    name: str
    #: Table-I benchmark to rebuild, or None for a source job.
    benchmark: str | None = None
    #: MiniC source text for a source job.
    source: str | None = None
    entry: str | None = None
    machine: Machine | None = None
    backend: str = "simplex"
    context_sensitive: bool = False
    cache_split: bool = False
    #: Derive counted-loop bounds automatically before applying
    #: explicit ones (source jobs).
    auto_bounds: bool = False
    #: Explicit loop bounds: (function or None, line or None, lo, hi).
    bounds: tuple = ()
    #: Functionality constraints: (text, function or None).
    constraints: tuple = ()

    @classmethod
    def from_benchmark(cls, name: str, machine: Machine | None = None,
                       backend: str = "simplex") -> "AnalysisJob":
        from ..programs import get_benchmark

        bench = get_benchmark(name)       # fail fast on unknown names
        return cls(name=name, benchmark=name, entry=bench.entry,
                   machine=machine, backend=backend)

    # ------------------------------------------------------------------
    def resolved_machine(self) -> Machine:
        return self.machine or i960kb()

    def build_analysis(self, tracer=None) -> Analysis:
        """Construct the ready-to-estimate Analysis (worker side).

        ``tracer`` (a :class:`repro.obs.Tracer`) captures the
        compile/CFG pipeline spans and is carried by the returned
        Analysis for the solve stages.
        """
        if self.benchmark is not None:
            from ..obs.trace import NULL_TRACER
            from ..programs import get_benchmark

            bench = get_benchmark(self.benchmark)
            # Analysis only spans compilation when handed raw source;
            # a Benchmark hands it a compiled Program (cached per
            # process), so the compile span opens here instead.
            with (tracer or NULL_TRACER).span("compile",
                                              cat="pipeline") as span:
                span.set("functions", len(bench.program.functions))
            return bench.make_analysis(machine=self.machine,
                                       backend=self.backend,
                                       tracer=tracer)
        if self.source is None or self.entry is None:
            raise AnalysisError(
                f"job {self.name!r} needs either a benchmark name or "
                "source + entry")
        analysis = Analysis(self.source, entry=self.entry,
                            machine=self.machine,
                            context_sensitive=self.context_sensitive,
                            cache_split=self.cache_split,
                            backend=self.backend,
                            tracer=tracer)
        if self.auto_bounds:
            analysis.auto_bound_loops()
        for function, line, lo, hi in self.bounds:
            analysis.bound_loop(lo, hi, function=function, line=line)
        for text, function in self.constraints:
            analysis.add_constraint(text, function=function)
        return analysis

    def fingerprint(self) -> str:
        """Deterministic content description for the job cache key.

        Covers everything that can change the produced bound: the
        source text (a benchmark job pins its suite source), the entry,
        the machine's timing parameters, bounds, constraints, analysis
        mode and backend.  The cache layer adds the solver version on
        top.
        """
        if self.benchmark is not None:
            from ..programs import get_benchmark

            bench = get_benchmark(self.benchmark)
            origin = f"benchmark={self.benchmark}\n{bench.source}"
        else:
            origin = f"source\n{self.source}"
        parts = [
            origin,
            f"entry={self.entry}",
            f"machine={self.resolved_machine().fingerprint()}",
            f"backend={self.backend}",
            f"context={self.context_sensitive}",
            f"cache_split={self.cache_split}",
            f"auto_bounds={self.auto_bounds}",
            f"bounds={sorted(self.bounds, key=_none_first)!r}",
            f"constraints={sorted(self.constraints, key=_none_first)!r}",
        ]
        return "\n".join(parts)


@dataclass
class JobResult:
    """Outcome of one job, in the order the jobs were submitted.

    ``status`` is ``"ok"`` (tight bound), ``"partial"`` (at least one
    constraint set timed out and contributed a relaxation bound — the
    interval is still sound, just conservative) or ``"failed"`` (the
    job raised; see ``error``).
    """

    name: str
    status: str
    report: BoundReport | None = None
    error: str | None = None
    cache_hit: bool = False
    attempts: int = 1
    #: Span records captured in the worker when the engine ran with a
    #: tracer (picklable; merged by the parent).
    spans: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "partial")

    def __str__(self) -> str:
        if self.report is not None:
            flag = " (partial)" if self.status == "partial" else ""
            hit = " [cached]" if self.cache_hit else ""
            return (f"{self.name}: [{self.report.best:,}, "
                    f"{self.report.worst:,}]{flag}{hit}")
        return f"{self.name}: FAILED ({self.error})"
