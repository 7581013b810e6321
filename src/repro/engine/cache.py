"""Content-addressed on-disk result cache for the analysis engine.

One entry per completed analysis job, keyed by the SHA-256 of the
job's own fingerprint (source text, entry, machine, bounds,
constraints, flags, backend), its solver budgets and the solver
version.  A hit skips even compilation.  Only the process that
dispatches jobs touches the store: the engine parent and the service
scheduler look a job up before dispatch and store its report after,
so job workers only compute.

Entries are JSON files under ``root/<k[:2]>/<k>.json``, written
atomically (temp file + :func:`os.replace`) so concurrent processes
can share one cache directory without locking: the worst race is two
writers storing the same value and one overwrite winning, which is
harmless for a content-addressed store.  An entry never goes stale,
so the store has no size cap: deleting the directory, or ``repro
engine stats --clear``, is always safe and loses only warm results.

A store written by an older version may also hold ``"kind": "set"``
entries, one per solved constraint set, and a ``_meta.json`` counter
file.  Nothing reads either again; set entries count as entries, and
``repro engine stats --clear`` removes them.

Timed-out (``partial``) results are never cached — a re-run with a
longer budget should get the chance to do better.

Memory tier
-----------
Each cache object also holds the job reports it has read from disk
and verified, up to :data:`MEMORY_BYTES` of entry text (least
recently used out first), and answers a repeat hit from there: a dict
lookup, with no system call, read, parse, seal check or rebuild.  The
first :meth:`ResultCache.get_report_text` call for a held report
encodes it and holds that text too (counted against the same bound):
the service's journal splices it into each hit's ``complete`` frame,
so a held report is encoded once, and only where a journal asks.
Writes never fill the tier, so a corrupted entry is still quarantined
on its first read.
An entry another process clears on disk stays held here until this
object goes; it is the same content-addressed answer, never a wrong
bound.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from .. import __version__
from ..analysis.report import BoundReport, SetResult
from ..chaos import inject
from ..ilp import SolveStats, Status

#: Bump when solver semantics change in a way that invalidates cached
#: results: objective values, witnesses or solver statistics (kept
#: separate from the package version so doc-only releases don't
#: cold-start every cache).  2: lowest-index presolve order (pivot
#: counts, witnesses at ties, last-ulp objectives) and counted
#: ``nodes_pruned``.  3: phase 1 extends the base's tableau (pivot
#: counts, last-ulp objectives).  4: bound propagation refutes sets and
#: nodes before any LP (LP calls, nodes, pivots, ``stats.refuted``).
#: 5: the sparse-row simplex sums ``c_B . b`` in row order (last-ulp
#: objectives only).
SOLVER_VERSION = 5

#: Entry-text bytes a cache object's memory tier holds at most.
MEMORY_BYTES = 2 * 1024 * 1024


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/engine``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "engine"


@dataclass
class CacheStats:
    """What ``repro engine stats`` reports about a cache directory."""

    root: str
    #: Every entry file, including set entries an older version left.
    entries: int
    total_bytes: int
    #: Files in ``quarantine/``: corrupt entries moved aside on read,
    #: one per key however often that key was quarantined.
    quarantined: int


def budget_key(set_timeout: float | None,
               max_iterations: int | None) -> str:
    """A job's solver budgets as the ``budget`` of
    :meth:`ResultCache.job_key`.  ``repro engine run`` and ``repro
    serve`` both key their entries with it, so they share a cache."""
    return f"timeout={set_timeout!r}|max_iterations={max_iterations!r}"


class ResultCache:
    """A content-addressed store of finished reports."""

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries this cache object quarantined on read.
        self.quarantined = 0
        #: The memory tier: key -> ((report, its JSON text or None
        #: until asked for), bytes of entry and report text), least
        #: recently used first, and the bytes it holds.
        self._memory: OrderedDict[
            str, tuple[tuple[BoundReport, str | None], int]] = \
            OrderedDict()
        self._memory_bytes = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def _digest(material: str) -> str:
        return hashlib.sha256(material.encode()).hexdigest()

    def job_key(self, fingerprint: str, *, budget: str = "") -> str:
        """Key for a whole analysis job (see
        :meth:`repro.engine.jobs.AnalysisJob.fingerprint`).  `budget`
        carries the job's solver budgets (set timeout, pivot cap, as
        :func:`budget_key` formats them): a tighter budget can
        legitimately degrade a set to its (looser, still sound) LP
        relaxation."""
        material = "\n".join([
            "kind=job",
            f"solver_version={SOLVER_VERSION}/{__version__}",
            f"budget={budget}",
            fingerprint,
        ])
        return self._digest(material)

    # ------------------------------------------------------------------
    # Storage primitives
    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _read(self, key: str) -> tuple[dict, int] | None:
        """The verified payload of `key`'s entry file and its text
        length; None for a missing or (now quarantined) corrupt one."""
        path = self._path(key)
        try:
            text = path.read_text()
        except UnicodeDecodeError:
            # A flipped bit can break UTF-8 itself, before JSON even
            # gets a look; same treatment as unparseable content.
            self._quarantine(path)
            return None
        except OSError:
            return None
        text = inject.corrupt("cache.read", text)
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            self._quarantine(path)
            return None
        digest = payload.pop("sha256", None)
        if digest is not None and digest != self._digest(
                json.dumps(payload, sort_keys=True)):
            self._quarantine(path)
            return None
        return payload, len(text)

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry to ``root/quarantine/`` and count it.

        The caller then reports a miss, so a flipped bit costs one
        recompute instead of crashing (or silently poisoning) the job
        that hit it; the file is kept aside for forensics rather than
        deleted."""
        target = self.root / "quarantine" / path.name
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing clear
            return
        self.quarantined += 1

    def _write(self, key: str, report_text: str) -> None:
        """Write the entry whose ``"report"`` member is `report_text`
        (sorted JSON, as :func:`report_json` encodes it)."""
        # Seal the entry with its own content hash; _read verifies it
        # so on-disk corruption surfaces as a quarantined miss, never
        # as a wrong bound.  The keys ("kind", "report") sort before
        # "sha256", so splicing the seal in last writes
        # json.dumps({"kind": "job", "report": ..., "sha256": digest},
        # sort_keys=True) from one serialization of the report.
        text = f'{{"kind": "job", "report": {report_text}}}'
        text = f'{text[:-1]}, "sha256": "{self._digest(text)}"}}'
        self._forget(key)
        self._replace(self._path(key), text)

    @staticmethod
    def _replace(path: Path, text: str) -> None:
        """Write `text` to `path` atomically (temp file +
        :func:`os.replace`), making its directory only when the temp
        file cannot be opened for lack of one."""
        try:
            fd, temp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        except FileNotFoundError:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temp = tempfile.mkstemp(suffix=".tmp", dir=path.parent)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:  # pragma: no cover - cleanup path
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Memory tier
    # ------------------------------------------------------------------
    def _hold(self, key: str, report: BoundReport, text: str | None,
              size: int) -> None:
        """Keep a verified report (and its text, once encoded) as
        `size` bytes, dropping the least recently used until the tier
        fits in :data:`MEMORY_BYTES` again."""
        self._forget(key)
        if size > MEMORY_BYTES:
            return
        self._memory[key] = ((report, text), size)
        self._memory_bytes += size
        while self._memory_bytes > MEMORY_BYTES:
            _, (_, dropped) = self._memory.popitem(last=False)
            self._memory_bytes -= dropped

    def _forget(self, key: str) -> None:
        held = self._memory.pop(key, None)
        if held is not None:
            self._memory_bytes -= held[1]

    # ------------------------------------------------------------------
    # Job layer
    # ------------------------------------------------------------------
    def get_report(self, key: str) -> BoundReport | None:
        """The report stored under `key`, or None.  A report this
        object verified before comes from memory; callers share it
        and must not mutate it."""
        held = self._memory.get(key)
        if held is not None:
            self._memory.move_to_end(key)
            return held[0][0]
        read = self._read(key)
        if read is None or read[0].get("kind") != "job":
            return None
        payload, size = read
        report = report_from_dict(payload["report"])
        self._hold(key, report, None, size)
        return report

    def get_report_text(self, key: str) -> str | None:
        """The JSON text of the report held in memory under `key` (as
        :func:`report_json` encodes it), or None when none is held.
        The first call for a report encodes it and holds the text."""
        held = self._memory.get(key)
        if held is None:
            return None
        (report, text), size = held
        if text is None:
            text = report_json(report)
            self._hold(key, report, text, size + len(text))
        return text

    def put_report(self, key: str, report: BoundReport) -> str | None:
        """Store `report` and return its JSON text, the entry's
        ``"report"`` member; a partial report is not stored (None)."""
        if report.partial:
            return None
        text = report_json(report)
        self._write(key, text)
        return text

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _entry_files(self):
        # Entry shards are two hex characters; the glob deliberately
        # misses quarantine/ and an older version's _meta.json.
        return self.root.glob("??/*.json")

    def stats(self) -> CacheStats:
        sizes = [path.stat().st_size for path in self._entry_files()]
        quarantined = len(list((self.root / "quarantine").glob("*.json")))
        return CacheStats(str(self.root), len(sizes), sum(sizes),
                          quarantined)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        self._memory.clear()
        self._memory_bytes = 0
        removed = 0
        for path in self._entry_files():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing clear
                pass
        return removed


# ----------------------------------------------------------------------
# (De)serialization of result objects
# ----------------------------------------------------------------------
def set_result_to_dict(result: SetResult) -> dict:
    return {
        "index": result.index,
        "status": result.status.value,
        "worst": result.worst,
        "best": result.best,
        "worst_counts": dict(result.worst_counts),
        "best_counts": dict(result.best_counts),
        "timed_out": result.timed_out,
        "worst_relaxed": result.worst_relaxed,
        "best_relaxed": result.best_relaxed,
        "wall_time": result.wall_time,
        "stats": {
            "lp_calls": result.stats.lp_calls,
            "nodes": result.stats.nodes,
            "nodes_pruned": result.stats.nodes_pruned,
            "simplex_iterations": result.stats.simplex_iterations,
            "first_relaxation_integral":
                result.stats.first_relaxation_integral,
            "refuted": result.stats.refuted,
        },
    }


def set_result_from_dict(data: dict) -> SetResult:
    return SetResult(
        index=data["index"],
        status=Status(data["status"]),
        worst=data["worst"],
        best=data["best"],
        worst_counts=data["worst_counts"],
        best_counts=data["best_counts"],
        timed_out=data.get("timed_out", False),
        worst_relaxed=data.get("worst_relaxed", False),
        best_relaxed=data.get("best_relaxed", False),
        wall_time=data.get("wall_time", 0.0),
        stats=SolveStats(**data["stats"]),
    )


def report_to_dict(report: BoundReport) -> dict:
    return {
        "entry": report.entry,
        "machine": report.machine,
        "best": report.best,
        "worst": report.worst,
        "set_results": [set_result_to_dict(r) for r in report.set_results],
        "sets_total": report.sets_total,
        "sets_pruned": report.sets_pruned,
        "worst_counts": dict(report.worst_counts),
        "best_counts": dict(report.best_counts),
        "partial": report.partial,
    }


def report_json(report: BoundReport) -> str:
    """:func:`report_to_dict` as sorted JSON text: a cache entry's
    ``"report"`` member and a journal ``complete`` frame's."""
    return json.dumps(report_to_dict(report), sort_keys=True)


def report_from_dict(data: dict) -> BoundReport:
    """Inverse of :func:`report_to_dict`.  Keys it does not read, such
    as the ``timings`` that older cache entries and journal frames
    carry, are ignored."""
    return BoundReport(
        entry=data["entry"],
        machine=data["machine"],
        best=data["best"],
        worst=data["worst"],
        set_results=[set_result_from_dict(r) for r in data["set_results"]],
        sets_total=data["sets_total"],
        sets_pruned=data["sets_pruned"],
        worst_counts=data["worst_counts"],
        best_counts=data["best_counts"],
        partial=data.get("partial", False),
    )
