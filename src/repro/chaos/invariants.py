"""Soundness self-checks over a durable journal directory.

After a chaos run (or any run), :func:`verify_journal` audits the
whole pipeline end to end from its most durable artifact — the job
journal — and proves the service lost nothing and lied about nothing:

frame audit
    Every WAL frame refers to a known job (its ``submit`` frame, or
    the snapshot for pre-compaction jobs); no job is submitted twice
    inside one WAL epoch; duplicate terminal frames agree bit for bit.
    A snapshot/WAL overlap is *allowed* — that is the crash window
    compaction is designed around, and ``apply_record`` is idempotent.

lost jobs
    Folding the journal leaves every job in a terminal state
    (``done``/``failed``).  A job stuck ``queued``/``running`` after a
    drained run was lost by the scheduler.  Pass
    ``require_terminal=False`` to audit a live (undrained) journal.

bound determinism
    Each completed job's spec is re-solved serially, in process, from
    scratch.  A status-``ok`` journal bound must be **bit-identical**
    to the serial re-solve (the canonical expansion order makes
    parallel and serial runs agree exactly).  A ``partial`` bound
    (solver budget tripped, LP-relaxation fallback) must *bracket* the
    serial optimum: relaxed worst >= true worst, relaxed best <= true
    best — sound, merely looser.

witnesses
    Every feasible set result's ``worst_counts``/``best_counts``
    vector is checked against the rebuilt ILP model: it satisfies each
    structural + functionality constraint of its set, and the
    objective evaluated at the vector reproduces the recorded bound.
    The journal's numbers are real solutions, not artifacts.

The checks only read: a live service's journal directory is safe to
verify.  ``repro chaos verify`` is the CLI face of this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: Tolerance for witness-vector arithmetic.  Counts and coefficients
#: are small integers so solutions are exact in floats; the slack only
#: absorbs representation noise from the JSON round-trip.
TOLERANCE = 1e-6


@dataclass
class Violation:
    """One broken invariant; ``kind`` is the check that caught it."""

    kind: str               # duplicate | orphan | divergent | lost
    #                       # | bound | witness | spec
    job: str | None
    detail: str

    def __str__(self) -> str:
        where = f" [{self.job}]" if self.job else ""
        return f"{self.kind}{where}: {self.detail}"


@dataclass
class InvariantReport:
    """Everything :func:`verify_journal` checked and what it found."""

    journal: str
    jobs: int = 0
    frames: int = 0
    checked_bounds: int = 0
    checked_witnesses: int = 0
    violations: list = field(default_factory=list)
    #: Non-fatal observations (skipped jobs, crash-window overlaps).
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "journal": self.journal,
            "ok": self.ok,
            "jobs": self.jobs,
            "frames": self.frames,
            "checked_bounds": self.checked_bounds,
            "checked_witnesses": self.checked_witnesses,
            "violations": [
                {"kind": v.kind, "job": v.job, "detail": v.detail}
                for v in self.violations],
            "notes": list(self.notes),
        }

    def render(self) -> str:
        lines = [f"journal {self.journal}: {self.jobs} jobs, "
                 f"{self.frames} frames"]
        lines.append(f"  bounds re-solved serially: "
                     f"{self.checked_bounds}")
        lines.append(f"  witness vectors validated: "
                     f"{self.checked_witnesses}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.ok:
            lines.append("  OK: no job lost, no bound diverged")
        else:
            lines.append(f"  {len(self.violations)} violation(s):")
            for violation in self.violations:
                lines.append(f"    {violation}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Frame-level audit
# ----------------------------------------------------------------------
def _snapshot_jobs(journal) -> dict:
    """The snapshot's job map (empty when no snapshot exists)."""
    if not journal.snapshot_path.exists():
        return {}
    data = json.loads(journal.snapshot_path.read_text())
    return data.get("jobs", {})


def _audit_frames(records, snapshot_jobs, report) -> None:
    """Submit uniqueness, orphan frames, divergent terminal reports."""
    submitted: set = set(snapshot_jobs)
    overlap = 0
    terminal: dict = {}
    for record in records:
        kind = record.get("type")
        job_id = record.get("id")
        if kind == "noop":
            continue
        if kind == "submit":
            if job_id in snapshot_jobs:
                # Compaction crash window: the snapshot already holds
                # this job and the old WAL was not yet reset.  Replay
                # is idempotent, so this is expected, not a violation.
                overlap += 1
            elif job_id in submitted:
                report.violations.append(Violation(
                    "duplicate", job_id,
                    "submitted twice within one WAL epoch"))
            submitted.add(job_id)
            continue
        if job_id not in submitted:
            report.violations.append(Violation(
                "orphan", job_id,
                f"{kind!r} frame for a job never submitted"))
            continue
        if kind in ("complete", "fail"):
            digest = (kind, record.get("status"),
                      json.dumps(record.get("report"), sort_keys=True)
                      if kind == "complete" else record.get("error"))
            previous = terminal.get(job_id)
            if previous is not None and previous != digest:
                # Two terminal frames are legal (earlier versions ran a
                # job whose peer lease expired twice) — but only when
                # they report the same outcome.
                report.violations.append(Violation(
                    "divergent", job_id,
                    f"terminal frames disagree: {previous[0]} vs "
                    f"{digest[0]} (status {previous[1]!r} vs "
                    f"{digest[1]!r})"))
            terminal[job_id] = digest
    if overlap:
        report.notes.append(
            f"{overlap} snapshot/WAL submit overlap(s) "
            f"(compaction crash window; replay is idempotent)")


# ----------------------------------------------------------------------
# Bound determinism + witness validation
# ----------------------------------------------------------------------
def _rebuild(spec_data):
    """(job, analysis) for one journaled spec dict."""
    from ..service.protocol import JobSpec

    job = JobSpec.from_dict(spec_data).to_analysis_job()
    return job, job.build_analysis()


def _check_bounds(job_id, job_data, report, cache) -> None:
    """Serially re-solve one completed job and compare bounds."""
    from ..engine.cache import report_from_dict

    spec_data = job_data.get("spec")
    recorded_raw = job_data.get("report")
    if spec_data is None or recorded_raw is None:
        report.notes.append(
            f"{job_id}: no spec/report in journal; bound unchecked")
        return
    recorded = report_from_dict(recorded_raw)
    try:
        job, analysis = _rebuild(spec_data)
    except Exception as error:       # noqa: BLE001 - report, don't die
        report.violations.append(Violation(
            "spec", job_id, f"journaled spec does not rebuild: "
            f"{error}"))
        return
    key = (job.fingerprint(), spec_data.get("set_timeout"),
           spec_data.get("max_iterations"))
    serial = cache.get(key)
    if serial is None:
        serial = analysis.estimate(
            set_timeout=spec_data.get("set_timeout"),
            max_iterations=spec_data.get("max_iterations"))
        cache[key] = serial
    report.checked_bounds += 1
    status = job_data.get("status", "ok")
    if status == "ok" and not recorded.partial:
        if (recorded.best, recorded.worst) != (serial.best,
                                               serial.worst):
            report.violations.append(Violation(
                "bound", job_id,
                f"journal [{recorded.best}, {recorded.worst}] != "
                f"serial re-solve [{serial.best}, {serial.worst}]"))
            return
        ours = {r.index: r for r in serial.set_results}
        for result in recorded.set_results:
            mine = ours.get(result.index)
            if mine is None or result.feasible != mine.feasible or (
                    result.feasible
                    and (result.worst, result.best) != (mine.worst,
                                                        mine.best)):
                report.violations.append(Violation(
                    "bound", job_id,
                    f"set {result.index} diverged from serial "
                    f"re-solve"))
    else:
        # A partial bound is an LP-relaxation fallback: sound means
        # it *encloses* the true optimum, not that it equals it.
        if recorded.worst < serial.worst \
                or recorded.best > serial.best:
            report.violations.append(Violation(
                "bound", job_id,
                f"partial bound [{recorded.best}, {recorded.worst}] "
                f"does not enclose serial optimum "
                f"[{serial.best}, {serial.worst}] — unsound"))


def _check_witnesses(job_id, job_data, report) -> None:
    """Check every feasible set's count vectors against its ILP."""
    from ..engine.cache import report_from_dict

    spec_data = job_data.get("spec")
    recorded_raw = job_data.get("report")
    if spec_data is None or recorded_raw is None:
        return
    recorded = report_from_dict(recorded_raw)
    try:
        _, analysis = _rebuild(spec_data)
        tasks = {task.index: task for task in analysis.set_tasks()}
    except Exception as error:       # noqa: BLE001
        report.violations.append(Violation(
            "spec", job_id,
            f"cannot rebuild constraint sets: {error}"))
        return
    for result in recorded.set_results:
        if not result.feasible:
            continue
        task = tasks.get(result.index)
        if task is None:
            report.violations.append(Violation(
                "witness", job_id,
                f"set {result.index} has no counterpart in the "
                f"rebuilt expansion"))
            continue
        for counts, objective, bound, label in (
                (result.worst_counts, task.worst_obj, result.worst,
                 "worst"),
                (result.best_counts, task.best_obj, result.best,
                 "best")):
            if not counts:
                report.notes.append(
                    f"{job_id}: set {result.index} carries no "
                    f"{label} witness (relaxed?); skipped")
                continue
            report.checked_witnesses += 1
            for constraint in task.base + task.resolved:
                value = constraint.expr.evaluate(counts)
                bad = (constraint.sense == "<=" and
                       value > TOLERANCE) \
                    or (constraint.sense == ">=" and
                        value < -TOLERANCE) \
                    or (constraint.sense == "==" and
                        abs(value) > TOLERANCE)
                if bad:
                    report.violations.append(Violation(
                        "witness", job_id,
                        f"set {result.index} {label} witness "
                        f"violates {constraint!r} "
                        f"(lhs-rhs = {value:g})"))
                    break
            else:
                if bound is not None and abs(
                        objective.evaluate(counts) - bound) \
                        > TOLERANCE:
                    report.violations.append(Violation(
                        "witness", job_id,
                        f"set {result.index} {label} objective at "
                        f"witness is "
                        f"{objective.evaluate(counts):g}, journal "
                        f"says {bound:g}"))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def verify_journal(root, serial: bool = True, witnesses: bool = True,
                   require_terminal: bool = True) -> InvariantReport:
    """Audit one journal directory; returns an :class:`InvariantReport`.

    Parameters
    ----------
    root:
        The journal directory (``--journal`` of the service run).
    serial:
        Re-solve every completed job serially and compare bounds
        (the expensive check; disable for a quick structural audit).
    witnesses:
        Validate count vectors against the rebuilt ILP models.
    require_terminal:
        Treat non-terminal jobs as lost (set False for a journal from
        a still-running / undrained service).
    """
    from ..service.durable.journal import JobJournal, scan_wal

    root = Path(root).expanduser()
    journal = JobJournal(root)
    report = InvariantReport(journal=str(root))
    snapshot_jobs = _snapshot_jobs(journal)
    records: list = []
    if journal.wal_path.exists():
        records, dropped, _ = scan_wal(journal.wal_path)
        if dropped:
            report.notes.append(
                "torn tail frame dropped (crash mid-append; replay "
                "stops at the last intact frame)")
    report.frames = len(records) + len(snapshot_jobs)

    _audit_frames(records, snapshot_jobs, report)

    state = journal.inspect()
    report.jobs = len(state.jobs)
    if require_terminal:
        for job_id, job in state.by_state("queued", "running"):
            report.violations.append(Violation(
                "lost", job_id,
                f"still {job['state']!r} after replay — job lost "
                f"(or journal from an undrained run; see "
                f"--allow-pending)"))

    solve_cache: dict = {}
    for job_id, job in state.by_state("done"):
        if serial:
            _check_bounds(job_id, job, report, solve_cache)
        if witnesses:
            _check_witnesses(job_id, job, report)
    return report
