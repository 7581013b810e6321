"""The job journal: an append-only write-ahead log for the service.

Every admission-changing step of a job's life — ``submit``, ``start``,
then ``complete`` or ``fail`` — is appended as one framed JSON record
before the service acts on it; a ``complete`` frame carries the whole
report, every set's result included.  The only other frame written is
``noop``, the degraded-mode write probe.  On startup
the service replays the journal: terminal jobs come back queryable,
queued jobs re-enter the queue in job-id order, and jobs that were
*running* when the process died are re-dispatched — re-execution is
idempotent because the engine payload is pure and the
content-addressed ``ResultCache`` answers repeats with bit-identical
reports.

Replay also reads frames that earlier versions wrote and nothing
writes any more: per-set ``set_done`` progress frames, which fold to
nothing (the ``complete`` frame after them holds the same sets), and
the ``lease``/``release`` frames and snapshot entries in state
``leased`` of a version that lent queued jobs to a peer replica; each
of those folds to ``queued``, so such a job goes back on the queue.
An earlier version's ``submit`` frames and snapshot entries also carry
a ``trace`` object in their spec; replay drops it (:func:`_spec`).

Frame format (schema-versioned)
-------------------------------
The file opens with an 8-byte magic carrying the schema version
(``b"RPROJNL1"``); every frame is::

    <u32 payload length> <u32 crc32(payload)> <payload: UTF-8 JSON>

little-endian.  A torn tail — the crash happened mid-append — shows up
as a short read or a CRC mismatch; replay stops at the first bad frame
and reports it (``JournalState.tail_dropped``), keeping every record
before it.  Replay is idempotent: records are folded by job id with
monotonic state transitions, so duplicated frames (e.g. a re-played
WAL after a crash mid-compaction) cannot corrupt the restored state.

Durability is **tiered**, because the engine makes re-execution free
of side effects.  ``submit`` frames are flushed to the OS before the
client sees the ``202`` — a killed process cannot lose an
acknowledged admission.  ``start`` and terminal frames stay in the
writer's buffer (losing one to a crash merely re-runs an idempotent
job), and ``fsync`` is group-committed off the hot path: the
service's housekeeping loop calls :meth:`JobJournal.maybe_sync`,
which syncs at most every ``fsync_interval`` seconds, so a power
loss can drop at most the last batch — the classic WAL throughput
trade.  Set ``fsync_interval=0`` to flush *and* fsync every record
inline.

Compaction folds the journal into ``snapshot.json`` (written to a temp
file, fsynced, atomically renamed) and then truncates the WAL.  A
crash between the rename and the truncate leaves a snapshot *plus* a
WAL whose records are already folded in — harmless, because replay
applies the WAL on top of the snapshot idempotently.  The snapshot
holds every job, so a compaction waits until the WAL is at least as
large as the last snapshot: each one is paid for by as many new WAL
bytes as it writes, which keeps total compaction work linear in the
jobs served.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from ...chaos import inject
from ...errors import ReproError

#: File magic; the trailing digit is the frame-schema version.
MAGIC = b"RPROJNL1"

#: Snapshot schema version (``snapshot.json``).
SNAPSHOT_SCHEMA = 1

_FRAME_HEADER = struct.Struct("<II")

#: Refuse to trust frames claiming to be larger than this; a length
#: this big is torn-write garbage, not a record.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Record types replay understands.  ``noop`` frames are write-probes
#: appended while degraded (see :meth:`JobJournal.probe`) and fold to
#: nothing; ``set_done``, ``lease`` and ``release`` are read from
#: earlier versions' journals, never written.
RECORD_TYPES = ("submit", "start", "set_done", "complete", "fail",
                "lease", "release", "noop")

#: Job states that no later record may leave.
_TERMINAL = ("done", "failed")


class JournalError(ReproError):
    """The journal directory holds something this version cannot read."""


@dataclass
class JournalState:
    """What replay recovered: per-job folded state plus diagnostics."""

    #: job id -> plain-dict job state (spec, state, status, error,
    #: cache_hit, report).
    jobs: dict = field(default_factory=dict)
    #: Frames applied (snapshot jobs count as one each).
    records: int = 0
    #: Frames that changed nothing when folded (idempotent repeats —
    #: e.g. a WAL replayed on top of a snapshot that already holds
    #: those records after a crash mid-compaction).
    duplicates: int = 0
    #: True when replay stopped at a torn/corrupt tail frame.
    tail_dropped: bool = False

    def by_state(self, *states) -> list:
        """(id, job) pairs in the given states, in id order."""
        return sorted((i, j) for i, j in self.jobs.items()
                      if j.get("state") in states)


def scan_wal(path) -> tuple[list[dict], bool, int]:
    """Read every intact frame of a WAL file.

    Returns ``(records, tail_dropped, good_offset)`` where
    ``good_offset`` is the byte offset just past the last intact frame
    — the truncation point that makes the file appendable again after
    a torn tail.  This is the read-side primitive shared by replay and
    the chaos invariant harness (``repro chaos verify``), which audits
    the raw frame sequence rather than the folded state.
    """
    records: list[dict] = []
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if not magic:
            return records, False, 0
        if magic != MAGIC:
            raise JournalError(
                f"{path} is not a schema-{MAGIC[-1:].decode()} "
                f"job journal (magic {magic!r})")
        offset = len(MAGIC)
        while True:
            header = handle.read(_FRAME_HEADER.size)
            if len(header) < _FRAME_HEADER.size:
                return records, bool(header), offset
            length, crc = _FRAME_HEADER.unpack(header)
            if length > MAX_FRAME_BYTES:
                return records, True, offset
            payload = handle.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                return records, True, offset
            try:
                record = json.loads(payload)
            except json.JSONDecodeError:
                return records, True, offset
            records.append(record)
            offset += _FRAME_HEADER.size + length


def _spec(spec):
    """A journaled spec without the ``trace`` key earlier versions
    wrote; :class:`~repro.service.protocol.JobSpec` has no such
    field."""
    if isinstance(spec, dict) and "trace" in spec:
        spec = {k: v for k, v in spec.items() if k != "trace"}
    return spec


def apply_record(jobs: dict, record: dict) -> bool:
    """Fold one journal record into ``jobs``; True if it applied.

    Idempotent and monotonic: a ``submit`` for a known id is a no-op,
    nothing un-does a terminal state, and re-applying any record
    yields the state it already produced.
    """
    kind = record.get("type")
    job_id = record.get("id")
    if kind == "submit":
        jobs.setdefault(job_id, {
            "spec": _spec(record.get("spec")),
            "state": "queued",
        })
        return True
    job = jobs.get(job_id)
    if job is None or kind == "set_done":
        return job is not None
    if job.get("state") in _TERMINAL and kind not in ("complete",
                                                      "fail"):
        return True
    if kind == "start":
        job["state"] = "running"
    elif kind in ("lease", "release"):
        job["state"] = "queued"
    elif kind == "complete":
        job["state"] = "done"
        job["status"] = record.get("status", "ok")
        job["cache_hit"] = bool(record.get("cache_hit", False))
        if record.get("report") is not None:
            job["report"] = record["report"]
    elif kind == "fail":
        job["state"] = "failed"
        job["status"] = record.get("status", "failed")
        job["error"] = record.get("error")
    else:
        return False
    return True


class JobJournal:
    """Append-only journal + snapshot pair under one directory.

    ``open()`` replays whatever is there and readies the WAL for
    appends; ``append()`` adds one frame (group-committed fsync);
    ``compact()`` folds everything into ``snapshot.json`` and resets
    the WAL.  Single-writer: the service event loop owns it.
    """

    def __init__(self, root, fsync_interval: float = 0.05,
                 compact_records: int = 2048,
                 compact_bytes: int = 1 << 20):
        self.root = Path(root).expanduser()
        self.wal_path = self.root / "journal.wal"
        self.snapshot_path = self.root / "snapshot.json"
        self.fsync_interval = fsync_interval
        self.compact_records = compact_records
        self.compact_bytes = compact_bytes
        self._file = None
        self._last_sync = 0.0
        self._unsynced = 0
        #: Counters mirrored into /metricz by the service.
        self.appended = 0
        self.compactions = 0
        #: Size of the current snapshot file; the WAL must reach it
        #: before the next compaction.
        self._snapshot_bytes = 0
        #: Wall seconds spent writing/syncing frames, for the
        #: bench_service overhead guard (journal share of throughput).
        self.write_seconds = 0.0
        self._since_compact = 0
        #: Optional callable(seconds) invoked with each fsync's
        #: duration — the service hooks a latency histogram here
        #: (``service.journal.fsync_seconds``).
        self.fsync_observer = None
        #: The last write/fsync :class:`OSError`, or None when healthy.
        #: The service's housekeeping loop watches this to enter
        #: read-only degraded mode; :meth:`probe` clears it.
        self.last_error: OSError | None = None
        #: Lifetime count of failed writes/fsyncs (mirrored to
        #: /metricz as ``service.journal.write_errors``).
        self.write_errors = 0
        #: Byte offset just past the last intact frame — the
        #: truncation point that repairs a torn tail after a failed
        #: append.
        self._good_offset = 0
        #: The :class:`JournalState` the last :meth:`open` replayed
        #: (frames read, duplicates folded, torn-tail drops) — the
        #: replay half of the /metricz journal health gauges.
        self.last_replay: JournalState | None = None

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def open(self) -> JournalState:
        """Replay snapshot + WAL, then open the WAL for appending."""
        self.root.mkdir(parents=True, exist_ok=True)
        # A crash (or ENOSPC) between the snapshot tmp write and its
        # rename leaves a stale snapshot.json.tmp behind; replay never
        # reads it, so drop it rather than letting it accumulate.
        self.snapshot_path.with_suffix(".json.tmp").unlink(
            missing_ok=True)
        state = JournalState()
        self._load_snapshot(state)
        try:
            self._snapshot_bytes = self.snapshot_path.stat().st_size
        except FileNotFoundError:
            self._snapshot_bytes = 0
        good_offset = self._replay_wal(state)
        if state.tail_dropped:
            # Repair the torn tail now: frames appended below must
            # land at a replayable offset, not after garbage that
            # would shadow them from every future replay.
            with open(self.wal_path, "rb+") as handle:
                handle.truncate(good_offset)
        # Open for append, stamping the magic on a fresh file.
        fresh = not self.wal_path.exists() \
            or self.wal_path.stat().st_size == 0
        self._file = open(self.wal_path, "ab")
        if fresh:
            self._file.write(MAGIC)
            self._file.flush()
            os.fsync(self._file.fileno())
        self._good_offset = self.wal_path.stat().st_size
        self._last_sync = time.monotonic()
        self.last_replay = state
        return state

    def inspect(self) -> JournalState:
        """Read-only replay: recover the state without opening the WAL
        for appends (``repro engine stats --journal``).  Safe to run
        against a live service's journal directory."""
        state = JournalState()
        self._load_snapshot(state)
        self._replay_wal(state)
        return state

    def _load_snapshot(self, state: JournalState) -> None:
        if not self.snapshot_path.exists():
            return
        try:
            data = json.loads(self.snapshot_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise JournalError(
                f"unreadable snapshot {self.snapshot_path}: {error}")
        if data.get("schema") != SNAPSHOT_SCHEMA:
            raise JournalError(
                f"snapshot schema {data.get('schema')!r} is not "
                f"{SNAPSHOT_SCHEMA} (migrate or remove "
                f"{self.snapshot_path})")
        jobs = data.get("jobs", {})
        for job in jobs.values():
            if job.get("state") == "leased":
                job["state"] = "queued"
            job["spec"] = _spec(job.get("spec"))
        state.jobs.update(jobs)
        state.records += len(state.jobs)

    def _replay_wal(self, state: JournalState) -> int:
        """Fold the WAL into ``state``; returns the byte offset just
        past the last intact frame (the torn-tail repair point)."""
        if not self.wal_path.exists():
            return 0
        records, dropped, offset = scan_wal(self.wal_path)
        state.tail_dropped = dropped
        for record in records:
            state.records += 1
            if record.get("type") == "set_done":
                continue            # an earlier version's progress frame
            before = state.jobs.get(record.get("id"))
            before = dict(before) if before is not None else None
            apply_record(state.jobs, record)
            after = state.jobs.get(record.get("id"))
            if before is not None and after == before:
                state.duplicates += 1
        return offset

    # ------------------------------------------------------------------
    # Append path
    # ------------------------------------------------------------------
    def append(self, type: str, durable: bool = False,
               encoded: dict | None = None, **payload) -> dict | None:
        """Frame and append one record; ``None`` if the write failed.

        ``encoded`` maps further member names to JSON text that is
        encoded already (a ``complete`` frame's report, as the cache
        wrote it); each is spliced in after ``payload``'s members as
        it is.  The record returned holds ``payload`` only.

        ``durable=True`` (submit frames: the caller is about to
        acknowledge the admission) pushes the buffer to the OS so a
        killed process cannot lose the record; other frames stay
        buffered until the next durable append or :meth:`maybe_sync`
        — losing one to a crash only re-runs an idempotent job.

        A write failure (ENOSPC, I/O error — real or injected) never
        raises.  The tail is repaired by truncating back to the last
        good frame boundary (a half-written frame must not shadow
        later appends from replay), ``last_error``/``write_errors``
        record the failure for the service's degraded mode, and the
        caller gets ``None``.
        """
        if self._file is None or self._file.closed:
            if self.last_error is None:
                self.last_error = OSError("journal WAL is not open")
            return None
        clock = time.perf_counter()
        record = {"type": type, "t": time.time(), **payload}
        text = json.dumps(record, separators=(",", ":"))
        if encoded:
            text = text[:-1] + "".join(
                f",{json.dumps(name)}:{value}"
                for name, value in encoded.items()) + "}"
        data = text.encode()
        frame = _FRAME_HEADER.pack(len(data), zlib.crc32(data)) + data
        try:
            if inject.trip("journal.torn"):
                # Half the frame reaches the file, as if power failed
                # mid-write; the repair below truncates it back off.
                self._file.write(frame[:len(frame) // 2])
                raise inject.InjectedFault(
                    errno.EIO, "chaos: injected torn journal frame")
            inject.fire("journal.write")
            inject.fire("journal.enospc")
            self._file.write(frame)
            if durable and self.fsync_interval > 0:
                self._file.flush()
        except OSError as error:
            self._repair_tail(error)
            self.write_seconds += time.perf_counter() - clock
            return None
        self._good_offset += len(frame)
        self.appended += 1
        self._since_compact += 1
        self._unsynced += 1
        if self.fsync_interval <= 0:
            self.sync()
        self.write_seconds += time.perf_counter() - clock
        if self.fsync_interval <= 0 and self.last_error is not None:
            return None       # the inline fsync failed
        return record

    def _repair_tail(self, error: OSError) -> None:
        """A frame write failed; truncate the WAL back to the last
        good frame boundary and remember the fault.

        Reopens the file handle so no partial frame can linger in the
        writer's buffer and surface later between good frames."""
        self.last_error = error
        self.write_errors += 1
        try:
            self._file.close()
        except OSError:
            pass
        self._file = None
        try:
            handle = open(self.wal_path, "ab")
            handle.truncate(self._good_offset)
            self._file = handle
        except OSError:
            # The disk is truly gone; probe() retries the reopen.
            pass

    def probe(self) -> bool:
        """Append-and-sync a ``noop`` frame; True means healthy.

        The degraded service calls this from housekeeping: once a
        probe round-trips (write + flush + fsync all succeed) the
        journal is writable again and submits may resume.  ``noop``
        frames fold to nothing at replay.
        """
        if self._file is None or self._file.closed:
            try:
                self._file = open(self.wal_path, "ab")
                self._good_offset = self.wal_path.stat().st_size
            except OSError as error:
                self.last_error = error
                return False
        self.last_error = None
        if self.append("noop", durable=True) is None:
            return False
        self.sync()
        return self.last_error is None

    def maybe_sync(self) -> None:
        """Group commit: fsync when ``fsync_interval`` has elapsed.

        Called from the service's housekeeping loop, keeping the
        fsync stall off the submit hot path."""
        if self._unsynced and time.monotonic() - self._last_sync \
                >= self.fsync_interval:
            self.sync()

    def sync(self) -> None:
        """Force the unsynced batch to stable storage now.

        An fsync failure is captured in ``last_error`` (feeding the
        service's degraded mode) rather than raised; the batch stays
        accounted as unsynced so the next :meth:`probe` retries it.
        """
        if self._file is not None and not self._file.closed \
                and self._unsynced:
            clock = time.perf_counter()
            try:
                inject.fire("journal.fsync")
                self._file.flush()
                os.fsync(self._file.fileno())
            except OSError as error:
                self.last_error = error
                self.write_errors += 1
                self.write_seconds += time.perf_counter() - clock
                self._last_sync = time.monotonic()
                return
            elapsed = time.perf_counter() - clock
            self._unsynced = 0
            self.write_seconds += elapsed
            if self.fsync_observer is not None:
                self.fsync_observer(elapsed)
        self._last_sync = time.monotonic()

    @property
    def wal_bytes(self) -> int:
        try:
            return self.wal_path.stat().st_size
        except OSError:
            return 0

    @property
    def frames_since_compaction(self) -> int:
        """Frames appended since the last compaction (0 right after)."""
        return self._since_compact

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def should_compact(self) -> bool:
        """True once a frame or byte threshold is met and the WAL has
        grown at least as large as the last snapshot."""
        wal_bytes = self.wal_bytes
        return ((self._since_compact >= self.compact_records
                 or wal_bytes >= self.compact_bytes)
                and wal_bytes >= self._snapshot_bytes)

    def compact(self, jobs: dict) -> None:
        """Fold ``jobs`` into the snapshot and reset the WAL.

        Crash-safe: the snapshot lands via write-temp + fsync + atomic
        rename *before* the WAL is truncated, and replay tolerates the
        in-between state (snapshot plus already-folded WAL records).
        """
        self._write_snapshot(jobs)
        self._reset_wal()
        self.compactions += 1
        self._since_compact = 0

    def _write_snapshot(self, jobs: dict) -> None:
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        try:
            with open(tmp, "w") as handle:
                # The bytes of one compact json.dump of the whole
                # table, written record by record with the C encoder
                # (json.dump to a file runs the pure-Python one).
                handle.write(f'{{"schema":{SNAPSHOT_SCHEMA},"jobs":{{')
                separator = ""
                for job_id, job in jobs.items():
                    handle.write(separator + json.dumps(job_id) + ":"
                                 + json.dumps(job, separators=(",", ":")))
                    separator = ","
                handle.write("}}")
                handle.flush()
                os.fsync(handle.fileno())
                size = os.fstat(handle.fileno()).st_size
            os.replace(tmp, self.snapshot_path)
        except OSError:
            # Don't leave a stale tmp behind a failed compaction
            # (open() also sweeps one up after a hard crash).
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        self._snapshot_bytes = size

    def _reset_wal(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        self._file = open(self.wal_path, "wb")
        self._file.write(MAGIC)
        self._file.flush()
        os.fsync(self._file.fileno())
        self._good_offset = self._file.tell()
        self._unsynced = 0
        self._last_sync = time.monotonic()

    def close(self) -> None:
        if self._file is not None:
            self.sync()
            try:
                self._file.close()
            except OSError:  # pragma: no cover - dying disk
                pass
            self._file = None
