"""Batch analysis engine: solver pool, result cache, instrumentation.

The engine layers on top of :mod:`repro.analysis`:

>>> from repro.engine import AnalysisEngine, AnalysisJob
>>> engine = AnalysisEngine(workers=4, cache_dir="~/.cache/repro/engine")
>>> jobs = [AnalysisJob.from_benchmark(n) for n in ("check_data", "fft")]
>>> for result in engine.run(jobs):
...     print(result)

See ``docs/engine.md`` for the job model, cache layout, failure
semantics and metrics schema.
"""

from .cache import (CacheStats, ResultCache, SOLVER_VERSION,
                    default_cache_dir)
from .core import AnalysisEngine, execute_job
from .jobs import AnalysisJob, JobResult
from .metrics import STAGES

__all__ = [
    "AnalysisEngine",
    "AnalysisJob",
    "JobResult",
    "ResultCache",
    "CacheStats",
    "default_cache_dir",
    "execute_job",
    "SOLVER_VERSION",
    "STAGES",
]
