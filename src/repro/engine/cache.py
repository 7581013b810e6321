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
harmless for a content-addressed store.

A store written by an older version may also hold ``"kind": "set"``
entries, one per solved constraint set.  Nothing reads them again;
they count as entries, the LRU caps evict them first (nothing touches
them), and ``repro engine stats --clear`` removes them.

Timed-out (``partial``) results are never cached — a re-run with a
longer budget should get the chance to do better.

Size caps (LRU eviction)
------------------------
A cache constructed with ``max_entries`` and/or ``max_bytes`` evicts
least-recently-used entries after every write until it fits again.
Recency is the entry file's mtime: reads touch it, writes set it, so
the file system itself is the LRU bookkeeping and concurrent processes
need no shared state.  Lifetime eviction totals persist in
``root/_meta.json`` (best effort under races; the counter may
undercount, never overcount) and surface in ``repro engine stats``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
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


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/engine``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "engine"


def cache_limits_from_env() -> tuple[int | None, int | None]:
    """``($REPRO_CACHE_MAX_ENTRIES, $REPRO_CACHE_MAX_BYTES)``; None
    where unset or unparsable (unlimited)."""

    def read(name: str) -> int | None:
        raw = os.environ.get(name)
        try:
            return int(raw) if raw else None
        except ValueError:
            return None

    return (read("REPRO_CACHE_MAX_ENTRIES"),
            read("REPRO_CACHE_MAX_BYTES"))


@dataclass
class CacheStats:
    """What ``repro engine stats`` reports about a cache directory."""

    root: str
    #: Every entry file, including set entries an older version left.
    entries: int
    job_entries: int
    total_bytes: int
    #: Lifetime LRU evictions recorded in the cache's meta file.
    evictions: int = 0
    #: Lifetime corrupt entries moved to ``quarantine/`` on read.
    quarantined: int = 0
    max_entries: int | None = None
    max_bytes: int | None = None


class ResultCache:
    """A content-addressed store of finished reports.

    ``max_entries`` / ``max_bytes`` cap the store; ``None`` means
    unlimited.  Eviction is LRU (see the module docstring).
    """

    def __init__(self, root: str | Path,
                 max_entries: int | None = None,
                 max_bytes: int | None = None):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        #: Evictions performed by *this* cache object (the meta file
        #: keeps the lifetime total across processes).
        self.evictions = 0
        #: Corrupt entries this cache object quarantined on read
        #: (lifetime total lives in the meta file).
        self.quarantined = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    @staticmethod
    def _digest(material: str) -> str:
        return hashlib.sha256(material.encode()).hexdigest()

    def job_key(self, fingerprint: str, *, budget: str = "") -> str:
        """Key for a whole analysis job (see
        :meth:`repro.engine.jobs.AnalysisJob.fingerprint`).  `budget`
        carries the job's solver budgets (set timeout, pivot cap): a
        tighter budget can legitimately degrade a set to its (looser,
        still sound) LP relaxation."""
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

    def _read(self, key: str) -> dict | None:
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
        try:
            os.utime(path)           # mark recently used for the LRU
        except OSError:  # pragma: no cover - racing eviction
            pass
        return payload

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
        except OSError:  # pragma: no cover - racing eviction
            return
        self.quarantined += 1
        self._bump_meta("quarantined", 1)

    def _write(self, key: str, payload: dict) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Seal the entry with its own content hash; _read verifies it
        # so on-disk corruption surfaces as a quarantined miss, never
        # as a wrong bound.  "kind" still sorts first, which the
        # _is_job() head sniff relies on.
        payload = dict(payload, sha256=self._digest(
            json.dumps(payload, sort_keys=True)))
        text = json.dumps(payload, sort_keys=True)
        handle = tempfile.NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False)
        try:
            handle.write(text)
            handle.close()
            os.replace(handle.name, path)
        except BaseException:  # pragma: no cover - cleanup path
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        self._evict_if_needed()

    # ------------------------------------------------------------------
    # LRU eviction
    # ------------------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, Path]]:
        """Every entry as (mtime_ns, size, path), oldest first."""
        entries = []
        # Entry shards are two hex characters; the glob deliberately
        # misses quarantine/ so quarantined files are neither counted
        # nor evicted as live entries.
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:  # pragma: no cover - racing eviction
                continue
            entries.append((stat.st_mtime_ns, stat.st_size, path))
        entries.sort()
        return entries

    def _evict_if_needed(self) -> int:
        """Drop least-recently-used entries until under the caps."""
        if self.max_entries is None and self.max_bytes is None:
            return 0
        entries = self._entries()
        count = len(entries)
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            over_entries = (self.max_entries is not None
                            and count > self.max_entries)
            over_bytes = (self.max_bytes is not None
                          and total > self.max_bytes)
            if not over_entries and not over_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing eviction
                continue
            count -= 1
            total -= size
            evicted += 1
        if evicted:
            self.evictions += evicted
            self._bump_meta("evictions", evicted)
        return evicted

    # ------------------------------------------------------------------
    # Meta file (lifetime counters shared across processes)
    # ------------------------------------------------------------------
    def _meta_path(self) -> Path:
        return self.root / "_meta.json"

    def _load_meta(self) -> dict:
        try:
            return json.loads(self._meta_path().read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            return {}

    def _bump_meta(self, field: str, amount: int) -> None:
        # Read-modify-write without locking: a concurrent bump can be
        # lost (undercount), which is acceptable for a statistics
        # counter.  The write itself is atomic.
        meta = self._load_meta()
        meta[field] = meta.get(field, 0) + amount
        handle = tempfile.NamedTemporaryFile(
            "w", dir=self.root, suffix=".tmp", delete=False)
        try:
            handle.write(json.dumps(meta, sort_keys=True))
            handle.close()
            os.replace(handle.name, self._meta_path())
        except BaseException:  # pragma: no cover - cleanup path
            handle.close()
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    # Job layer
    # ------------------------------------------------------------------
    def get_report(self, key: str) -> BoundReport | None:
        payload = self._read(key)
        if payload is None or payload.get("kind") != "job":
            return None
        return report_from_dict(payload["report"])

    def put_report(self, key: str, report: BoundReport) -> None:
        if report.partial:
            return
        self._write(key, {"kind": "job",
                          "report": report_to_dict(report)})

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        entries = job_entries = 0
        total_bytes = 0
        for path in self.root.glob("??/*.json"):
            entries += 1
            total_bytes += path.stat().st_size
            job_entries += self._is_job(path)
        meta = self._load_meta()
        return CacheStats(str(self.root), entries, job_entries,
                          total_bytes,
                          evictions=meta.get("evictions", 0),
                          quarantined=meta.get("quarantined", 0),
                          max_entries=self.max_entries,
                          max_bytes=self.max_bytes)

    @staticmethod
    def _is_job(path: Path) -> bool:
        try:
            with open(path) as handle:
                head = handle.read(32)
        except OSError:  # pragma: no cover - racing eviction
            return False
        # Keys are sorted in the JSON, so "kind" leads the object.
        return '"kind": "job"' in head

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing eviction
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
