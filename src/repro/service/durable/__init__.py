"""Durability layer of the analysis service.

Two pieces, composing with the queue/scheduler/server stack:

* :mod:`~repro.service.durable.journal` — the append-only job journal
  (WAL) behind ``repro serve --journal DIR``: crash recovery replays
  queued and in-flight jobs, compaction folds history into a snapshot.
* :mod:`~repro.service.durable.tenants` — API keys, per-tenant
  admission quotas (queue/running caps, token-bucket submit rate) and
  weighted fair scheduling (``repro serve --tenants FILE``).

See ``docs/durability.md``.
"""

from .journal import (JobJournal, JournalError, JournalState,
                      apply_record, scan_wal)
from .tenants import (Admission, Tenant, TenantConfigError,
                      TenantRegistry)

__all__ = [
    "JobJournal",
    "JournalError",
    "JournalState",
    "apply_record",
    "scan_wal",
    "Admission",
    "Tenant",
    "TenantConfigError",
    "TenantRegistry",
]
