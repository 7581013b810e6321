"""Durability layer of the analysis service.

:mod:`~repro.service.durable.journal` is the append-only job journal
(WAL) behind ``repro serve --journal DIR``: crash recovery replays
queued and in-flight jobs, compaction folds history into a snapshot.

See ``docs/durability.md``.
"""

from .journal import (JobJournal, JournalError, JournalState,
                      apply_record, scan_wal)

__all__ = [
    "JobJournal",
    "JournalError",
    "JournalState",
    "apply_record",
    "scan_wal",
]
