"""Wire model of the analysis service: job specs and job records.

A :class:`JobSpec` is the JSON body of ``POST /v1/jobs`` — everything
the CLI's ``analyze`` / ``engine run`` verbs can express (benchmark or
source target, machine, backend, bounds, functionality constraints)
plus the service-level knobs: ``priority``, ``deadline_seconds``,
``set_timeout`` and ``max_iterations``.  It lowers to exactly the
:class:`repro.engine.AnalysisJob` the batch engine runs, so a bound
served over HTTP is bit-identical to one computed by
``Analysis.estimate`` or ``repro engine run``.

A :class:`JobRecord` is the server-side lifecycle object (and the JSON
body of ``GET /v1/jobs/{id}``): state machine ``queued -> running ->
done | failed``, timestamps, queue/run latencies, attempts, and — once
finished — the full serialized :class:`~repro.analysis.BoundReport`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from ..engine.cache import report_from_dict, report_to_dict
from ..engine.jobs import AnalysisJob, JobResult
from ..errors import ReproError
from ..hw import MACHINES


class BadRequest(ReproError):
    """A job submission that cannot be parsed or validated (HTTP 400)."""


#: Lifecycle states of a job record.
STATES = ("queued", "running", "done", "failed")


@dataclass(frozen=True)
class JobSpec:
    """One job submission, as posted to ``POST /v1/jobs``."""

    name: str
    #: Table-I benchmark to rebuild, or None for a source job.
    benchmark: str | None = None
    source: str | None = None
    entry: str | None = None
    machine: str = "i960kb"
    backend: str = "simplex"
    auto_bounds: bool = False
    #: Explicit loop bounds: (function or None, line or None, lo, hi).
    bounds: tuple = ()
    #: Functionality constraints: (text, function or None).
    constraints: tuple = ()
    #: Larger runs sooner; ties dispatch in submission order.
    priority: int = 0
    #: Wall budget from admission to completion; the time left when the
    #: job reaches a worker becomes its per-set solver timeout.
    deadline_seconds: float | None = None
    #: Per-constraint-set solver budget (combined with the deadline by
    #: taking the minimum at dispatch time).
    set_timeout: float | None = None
    #: Cumulative simplex-pivot budget per ILP.
    max_iterations: int | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise BadRequest("job body must be a JSON object")
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise BadRequest(f"unknown job fields: {sorted(unknown)}")
        for text in ("benchmark", "source", "entry", "name", "machine",
                     "backend"):
            if not isinstance(data.get(text, ""), (str, type(None))):
                raise BadRequest(f"{text} must be a string")
        benchmark = data.get("benchmark")
        source = data.get("source")
        if benchmark is None and source is None:
            raise BadRequest("job needs either 'benchmark' or "
                             "'source' + 'entry'")
        if benchmark is not None and source is not None:
            raise BadRequest("'benchmark' and 'source' are exclusive")
        if source is not None and not data.get("entry"):
            raise BadRequest("source jobs need an 'entry' routine")
        if benchmark is not None:
            from ..programs import all_benchmarks

            if benchmark not in all_benchmarks():
                raise BadRequest(f"unknown benchmark {benchmark!r}; known: "
                                 f"{', '.join(all_benchmarks())}")
        machine = data.get("machine", "i960kb")
        if machine not in MACHINES:
            raise BadRequest(f"unknown machine {machine!r}; known: "
                             f"{sorted(MACHINES)}")
        backend = data.get("backend", "simplex")
        if backend not in ("simplex", "exact"):
            raise BadRequest(f"unknown backend {backend!r}")
        for numeric, negatable in (("deadline_seconds", False),
                                   ("set_timeout", False),
                                   ("max_iterations", False),
                                   ("priority", True)):
            value = data.get(numeric)
            if value is None:
                continue
            if not isinstance(value, (int, float)) \
                    or not math.isfinite(value) \
                    or (not negatable and value < 0):
                raise BadRequest(f"{numeric} must be a finite "
                                 + ("number" if negatable
                                    else "non-negative number"))
        try:
            bounds = tuple(
                (b[0], b[1], int(b[2]), int(b[3]))
                for b in (data.get("bounds") or ()))
            constraints = tuple(
                (str(c[0]), c[1]) for c in (data.get("constraints")
                                            or ()))
        except (TypeError, ValueError, OverflowError, IndexError):
            raise BadRequest(
                "bounds must be [function, line, lo, hi] rows and "
                "constraints [text, function] rows")
        if not all(isinstance(function, (str, type(None)))
                   and isinstance(line, (int, type(None)))
                   for function, line, _, _ in bounds) \
                or not all(isinstance(function, (str, type(None)))
                           for _, function in constraints):
            raise BadRequest("a bound's function and a constraint's "
                             "function must be strings or null, and a "
                             "bound's line an integer or null")
        auto_bounds = bool(data.get("auto_bounds", False))
        if benchmark is not None and (bounds or constraints
                                      or auto_bounds):
            raise BadRequest("bounds, constraints and auto_bounds apply "
                             "to source jobs only; a benchmark job "
                             "runs with its own annotations")
        name = data.get("name") or benchmark \
            or f"{data.get('entry')}@source"
        max_iterations = data.get("max_iterations")
        return cls(
            name=str(name), benchmark=benchmark, source=source,
            entry=data.get("entry"), machine=machine, backend=backend,
            auto_bounds=auto_bounds, bounds=bounds, constraints=constraints,
            priority=int(data.get("priority") or 0),
            deadline_seconds=data.get("deadline_seconds"),
            set_timeout=data.get("set_timeout"),
            max_iterations=(int(max_iterations)
                            if max_iterations is not None else None))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "benchmark": self.benchmark,
            "source": self.source,
            "entry": self.entry,
            "machine": self.machine,
            "backend": self.backend,
            "auto_bounds": self.auto_bounds,
            "bounds": [list(b) for b in self.bounds],
            "constraints": [list(c) for c in self.constraints],
            "priority": self.priority,
            "deadline_seconds": self.deadline_seconds,
            "set_timeout": self.set_timeout,
            "max_iterations": self.max_iterations,
        }

    def to_analysis_job(self) -> AnalysisJob:
        """Lower to the engine's job model (validates benchmarks)."""
        if self.benchmark is not None:
            return AnalysisJob.from_benchmark(
                self.benchmark, machine=MACHINES[self.machine](),
                backend=self.backend)
        return AnalysisJob(
            name=self.name, source=self.source, entry=self.entry,
            machine=MACHINES[self.machine](), backend=self.backend,
            auto_bounds=self.auto_bounds, bounds=self.bounds,
            constraints=self.constraints)


@dataclass
class JobRecord:
    """Server-side lifecycle of one submitted job."""

    id: str
    spec: JobSpec
    state: str = "queued"
    #: Wall-clock submission time (for humans; latencies below are
    #: computed from a monotonic clock).
    submitted_at: float = field(default_factory=time.time)
    #: Monotonic admission instant — deadline and queue latency anchor.
    admitted_monotonic: float = field(
        default_factory=time.monotonic)
    attempts: int = 0
    queue_seconds: float | None = None
    run_seconds: float | None = None
    #: JobResult status once finished: "ok" | "partial" | "failed".
    status: str | None = None
    error: str | None = None
    cache_hit: bool = False
    #: The finished :class:`~repro.analysis.BoundReport`, if any.
    report: object = field(default=None, repr=False)
    #: True when this record was restored from the journal.
    recovered: bool = False
    #: Flat span records of this job's execution (scheduler + pool
    #: worker); served by ``GET /v1/jobs/{id}/trace``.
    spans: list = field(default_factory=list, repr=False)

    def deadline_remaining(self) -> float | None:
        """Seconds left of the submission deadline (None: no deadline)."""
        if self.spec.deadline_seconds is None:
            return None
        elapsed = time.monotonic() - self.admitted_monotonic
        return self.spec.deadline_seconds - elapsed

    def finish(self, result: JobResult) -> None:
        """Fold a completed engine :class:`JobResult` in."""
        self.state = "done" if result.ok else "failed"
        self.status = result.status
        self.error = result.error
        self.report = result.report
        self.cache_hit = self.cache_hit or result.cache_hit

    def fail(self, error: str, status: str = "failed") -> None:
        self.state = "failed"
        self.status = status
        self.error = error

    def to_dict(self) -> dict:
        """The ``GET /v1/jobs/{id}`` response body."""
        payload = {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "status": self.status,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "attempts": self.attempts,
            "queue_seconds": self.queue_seconds,
            "run_seconds": self.run_seconds,
            "cache_hit": self.cache_hit,
            "priority": self.spec.priority,
            "deadline_seconds": self.spec.deadline_seconds,
            "recovered": self.recovered,
        }
        if self.report is not None:
            payload["best"] = self.report.best
            payload["worst"] = self.report.worst
            payload["report"] = report_to_dict(self.report)
        return payload

    # ------------------------------------------------------------------
    # Journal round trip
    # ------------------------------------------------------------------
    def to_journal_dict(self) -> dict:
        """The compaction-snapshot form of this record."""
        data = {
            "spec": self.spec.to_dict(),
            "state": self.state,
        }
        if self.state in ("done", "failed"):
            data["status"] = self.status
            data["error"] = self.error
            data["cache_hit"] = self.cache_hit
            if self.report is not None:
                data["report"] = report_to_dict(self.report)
        return data

    @classmethod
    def from_journal(cls, job_id: str, data: dict) -> "JobRecord":
        """Rebuild a record from replayed journal state.

        Non-terminal states (queued / running) both come back
        ``queued`` — a recovered job re-enters the queue and is
        re-dispatched; idempotent engine payloads plus the
        content-addressed cache make the re-execution yield the
        bit-identical report.  Deadlines restart from recovery (the
        original monotonic admission instant did not survive).
        """
        record = cls(id=job_id, spec=JobSpec.from_dict(data["spec"]),
                     recovered=True)
        state = data.get("state", "queued")
        if state in ("done", "failed"):
            record.state = state
            record.status = data.get("status")
            record.error = data.get("error")
            record.cache_hit = bool(data.get("cache_hit", False))
            if data.get("report") is not None:
                record.report = report_from_dict(data["report"])
        return record
