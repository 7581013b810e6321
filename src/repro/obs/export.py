"""Trace exporter: Chrome ``trace_event`` JSON.

The Chrome format is the interchange point with real tooling: the file
written by :func:`write_chrome_trace` loads directly into
``chrome://tracing`` or https://ui.perfetto.dev and renders one track
per process/thread with spans nested by time.  See
``docs/observability.md`` for a walkthrough.

Format notes (the subset we emit):

* one ``"X"`` (complete) event per span, with microsecond ``ts`` and
  ``dur``;
* ``"M"`` (metadata) events naming each process track;
* attributes and counters travel in ``args`` and show in the event
  detail pane.

:func:`trace_skeleton` produces a timing-free projection of a trace —
span names, categories, nesting and argument keys — which is what the
golden-file tests pin down (wall times and OS ids change run to run;
the *shape* of the trace must not).
"""

from __future__ import annotations

import json
from pathlib import Path


def to_chrome(records: list[dict]) -> dict:
    """Render span records as a Chrome ``trace_event`` document."""
    events = []
    seen_pids: dict[int, int] = {}
    for record in records:
        pid = record["pid"]
        if pid not in seen_pids:
            seen_pids[pid] = len(seen_pids)
            label = "repro" if len(seen_pids) == 1 \
                else f"repro worker {len(seen_pids) - 1}"
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "tid": 0, "args": {"name": label}})
        events.append({
            "ph": "X",
            "name": record["name"],
            "cat": record["cat"],
            "ts": round(record["ts"] * 1e6, 3),
            "dur": round(record["dur"] * 1e6, 3),
            "pid": pid,
            "tid": record["tid"],
            "args": record["args"],
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: list[dict], path) -> None:
    """Write a Perfetto/chrome://tracing loadable JSON file."""
    Path(path).write_text(json.dumps(to_chrome(records)) + "\n")


def trace_skeleton(records: list[dict]) -> list[str]:
    """Deterministic, timing-free projection of a trace.

    One line per span, in start order: indentation shows nesting,
    followed by ``cat:name`` and the sorted argument keys.  Numeric
    argument *values* are dropped (wall times, pids and iteration
    counts vary run to run) but the set of keys — which counters a
    span carries — is part of the contract and is kept.
    """
    ordered = sorted(records, key=lambda r: (r["pid"], r["tid"], r["ts"]))
    lines = []
    for record in ordered:
        keys = ",".join(sorted(record["args"]))
        indent = "  " * record["depth"]
        lines.append(f"{indent}{record['cat']}:{record['name']}"
                     + (f" [{keys}]" if keys else ""))
    return lines
