"""The analysis service: an async job-queue server over the engine.

The paper's IPET formulation makes each WCET/BCET query an independent
batch of ILPs — a request/response workload.  This package serves it:
a dependency-free asyncio HTTP server (:mod:`~repro.service.server`)
in front of a bounded priority queue (:mod:`~repro.service.queue`) and
a scheduler (:mod:`~repro.service.scheduler`) that dispatches jobs to
:func:`repro.engine.execute_job` workers.  The scheduler answers exact
repeats from the content-addressed :class:`repro.engine.ResultCache`
before dispatch, so a repeated request skips parsing, CFG construction
and every solve.

>>> from repro.service import ServiceThread, ServiceClient
>>> with (ServiceThread(workers=2, executor="thread") as handle,
...       ServiceClient(port=handle.port) as client):
...     job = client.submit({"benchmark": "check_data"})
...     record = client.wait(job["id"])
...     record["best"] <= record["worst"]
True

CLI: ``repro serve`` / ``repro submit``.  See ``docs/service.md``.
"""

from .client import (ClientError, JobFailed, ServiceClient,
                     ServiceDegraded, ServiceSaturated,
                     ServiceTimeout, ServiceUnavailable)
from .durable import JobJournal, JournalError, JournalState
from .protocol import BadRequest, JobRecord, JobSpec, STATES
from .queue import JobQueue, QueueClosed, QueueSaturated
from .scheduler import LATENCY_BUCKETS, Scheduler
from .server import MAX_BODY_BYTES, AnalysisService, ServiceThread

__all__ = [
    "JobJournal",
    "JournalError",
    "JournalState",
    "AnalysisService",
    "ServiceThread",
    "ServiceClient",
    "JobSpec",
    "JobRecord",
    "STATES",
    "JobQueue",
    "Scheduler",
    "BadRequest",
    "QueueSaturated",
    "QueueClosed",
    "ClientError",
    "ServiceDegraded",
    "ServiceSaturated",
    "ServiceTimeout",
    "ServiceUnavailable",
    "JobFailed",
    "LATENCY_BUCKETS",
    "MAX_BODY_BYTES",
]
