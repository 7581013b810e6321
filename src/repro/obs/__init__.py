"""Observability for the IPET pipeline: tracing, metrics, explanation.

Three cooperating layers, all dependency-free:

* :mod:`repro.obs.trace` — hierarchical span tracer.  Thread-safe in
  process; process-safe by shipping picklable records back from pool
  workers for the engine to merge.  :data:`NULL_TRACER` makes the
  disabled path effectively free.
* :mod:`repro.obs.registry` — counter/gauge/histogram metrics with
  snapshot and diff; the engine and the service record into
  one, and :func:`load_snapshot` reads every metrics file.
* :mod:`repro.obs.explain` — turns a solved
  :class:`~repro.analysis.BoundReport` into provenance: winning
  constraint set, execution-count witness, binding constraints and a
  per-block cycle breakdown summing to the bound.

The exporter in :mod:`repro.obs.export` renders traces as Chrome
``trace_event`` JSON (``chrome://tracing`` / Perfetto).
:mod:`repro.obs.stream` is the event bus the service publishes job
lifecycle into, and :mod:`repro.obs.tracediff` localizes regressions
span by span.
See ``docs/observability.md``.
"""

from .explain import (EXPLANATION_SCHEMA, BreakdownRow, ConstraintLine,
                      DeltaRow, Explanation, ExplanationDelta,
                      check_explanation_schema, diff_explanations,
                      explain_bound, explain_set,
                      explanation_delta_to_dict, explanation_to_dict,
                      render_explanation, render_explanation_delta)
from .export import to_chrome, trace_skeleton, write_chrome_trace
from .registry import (DEFAULT_BUCKETS, SNAPSHOT_SCHEMA, SNAPSHOT_SCHEMAS,
                       Counter, Gauge, Histogram, MetricsRegistry,
                       load_snapshot)
from .stream import (EventBus, Subscription, parse_sse_stream,
                     sse_comment, sse_format)
from .trace import (NULL_TRACER, NullTracer, Tracer, counters_from_stats)
from .tracediff import (SpanAggregate, TraceDelta, aggregate_trace,
                        diff_traces, load_trace_events,
                        render_trace_diff, span_key)

__all__ = [
    "Tracer", "NullTracer", "NULL_TRACER", "counters_from_stats",
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "load_snapshot",
    "DEFAULT_BUCKETS", "SNAPSHOT_SCHEMA", "SNAPSHOT_SCHEMAS",
    "EventBus", "Subscription", "sse_format", "sse_comment",
    "parse_sse_stream",
    "to_chrome", "trace_skeleton", "write_chrome_trace",
    "SpanAggregate", "TraceDelta", "span_key", "aggregate_trace",
    "diff_traces", "load_trace_events", "render_trace_diff",
    "Explanation", "ConstraintLine", "BreakdownRow",
    "explain_bound", "explain_set", "render_explanation",
    "explanation_to_dict",
    "ExplanationDelta", "DeltaRow", "diff_explanations",
    "render_explanation_delta", "explanation_delta_to_dict",
    "EXPLANATION_SCHEMA", "check_explanation_schema",
]
