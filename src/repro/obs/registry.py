"""Metrics primitives: counters, gauges, histograms, snapshots.

The :class:`MetricsRegistry` is the numeric side of the observability
layer (spans in :mod:`repro.obs.trace` are the temporal side).  It
holds named metrics of three kinds:

* **counter** — monotonically increasing total (LP calls, cache hits);
* **gauge** — a level that can move both ways (run wall time);
* **histogram** — a distribution over fixed buckets (per-set solve
  seconds, simplex pivots per set).

A registry serializes to a *snapshot* (plain dict, JSON-safe) and two
snapshots diff into the per-metric deltas, which is what the
``repro obs diff`` CLI prints to compare runs.  Every metrics file
(``serve``, ``engine run`` and ``synth fuzz --metrics``) is a
:meth:`MetricsRegistry.dump`, and :func:`load_snapshot` is the one
reader of them.

>>> registry = MetricsRegistry()
>>> registry.counter("lp_calls").inc(3)
>>> registry.gauge("wall_seconds").set(1.5)
>>> registry.histogram("set_seconds", buckets=(0.1, 1.0)).observe(0.4)
>>> registry.snapshot()["lp_calls"]["value"]
3
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from ..errors import ReproError, SchemaMismatchError

#: Default histogram buckets: log-ish spread that covers both per-set
#: wall seconds and iteration counts.
DEFAULT_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

#: Snapshot schema version stamped into dumps; absent means 1.
#: Schema 2 adds the ``_ts`` meta entry (wall + monotonic capture
#: times) so two snapshots diff into rates, not just deltas.
SNAPSHOT_SCHEMA = 2

#: Schemas :meth:`MetricsRegistry.from_snapshot` understands.  Old
#: dumps simply lack ``_ts``; everything else is unchanged.
SNAPSHOT_SCHEMAS = (1, 2)

#: Reserved snapshot key carrying capture timestamps, not a metric.
TS_KEY = "_ts"

#: Entry types a snapshot may hold; ``meta`` is the ``_ts`` stamp.
_ENTRY_TYPES = ("counter", "gauge", "histogram", "meta")


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Gauge:
    """A value that can be set or moved in either direction."""

    kind = "gauge"
    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def to_dict(self) -> dict:
        return {"type": self.kind, "value": self.value}


class Histogram:
    """Counts of observations falling into fixed upper-bound buckets.

    ``counts[i]`` counts observations ``<= buckets[i]``; the final
    implicit bucket is ``+inf``.  ``sum`` and ``count`` give the mean.
    """

    kind = "histogram"
    __slots__ = ("name", "buckets", "counts", "sum", "count")

    def __init__(self, name: str, buckets=DEFAULT_BUCKETS):
        self.name = name
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated value at quantile ``q`` (0 < q <= 1).

        Linear interpolation inside the bucket holding the target rank
        (Prometheus ``histogram_quantile`` style), so the answer is an
        estimate bounded by the bucket edges, not an exact order
        statistic.  Ranks landing in the final ``+inf`` bucket clamp to
        the largest finite bucket edge.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile {q!r} not in (0, 1]")
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        lower = 0.0
        for i, upper in enumerate(self.buckets):
            count = self.counts[i]
            if count and cumulative + count >= target:
                fraction = (target - cumulative) / count
                return lower + (upper - lower) * fraction
            cumulative += count
            lower = upper
        return self.buckets[-1] if self.buckets else self.mean

    def to_dict(self) -> dict:
        return {"type": self.kind, "buckets": list(self.buckets),
                "counts": list(self.counts), "sum": self.sum,
                "count": self.count}


class MetricsRegistry:
    """A named collection of metrics with snapshot/diff/merge support."""

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -- creation / lookup --------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._typed(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._typed(name, Gauge)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, buckets)
        elif not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}, "
                            "not a histogram")
        return metric

    def _typed(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} is a {metric.kind}, "
                            f"not a {cls.kind}")
        return metric

    def names(self, prefix: str = "") -> list[str]:
        return sorted(n for n in self._metrics if n.startswith(prefix))

    def value(self, name: str, default=0):
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> dict:
        """All metrics as a JSON-safe dict, sorted by name.

        The reserved ``_ts`` entry records *when* the snapshot was
        taken (wall clock for humans, monotonic clock for elapsed-time
        math that survives NTP steps); it is skipped by
        :meth:`from_snapshot` and turned into an ``elapsed`` figure by
        :meth:`diff`.
        """
        out = {name: self._metrics[name].to_dict()
               for name in sorted(self._metrics)}
        out[TS_KEY] = {"type": "meta", "wall": time.time(),
                       "monotonic": time.monotonic()}
        return out

    @classmethod
    def from_snapshot(cls, data: dict) -> "MetricsRegistry":
        registry = cls()
        for name, payload in data.items():
            # Skips the top-level "schema" marker and the _ts stamp.
            kind = payload.get("type") if isinstance(payload, dict) \
                else None
            if kind == "histogram":
                metric = Histogram(name, payload.get("buckets",
                                                     DEFAULT_BUCKETS))
                metric.counts = list(payload.get("counts", metric.counts))
                metric.sum = payload.get("sum", 0.0)
                metric.count = payload.get("count", 0)
                registry._metrics[name] = metric
            elif kind == "gauge":
                registry.gauge(name).set(payload.get("value", 0))
            elif kind == "counter":
                registry.counter(name).value = payload.get("value", 0)
        return registry

    def dump(self, path) -> None:
        payload = {"schema": SNAPSHOT_SCHEMA, **self.snapshot()}
        Path(path).write_text(json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def load(cls, path) -> "MetricsRegistry":
        return cls.from_snapshot(load_snapshot(path))

    # -- diff ----------------------------------------------------------
    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """Per-metric change between two snapshots.

        Counters and gauges diff to ``after - before``; histograms diff
        on their ``count`` and ``sum``.  Metrics present on only one
        side appear with the other side treated as zero.  When both
        snapshots carry a ``_ts`` stamp (schema 2+) the result gains a
        ``_ts`` entry with the ``elapsed`` seconds between captures,
        which :meth:`render_diff` turns into per-counter rates.
        """
        out: dict[str, dict] = {}
        for name in sorted(set(before) | set(after)):
            a = before.get(name, {})
            b = after.get(name, {})
            if not isinstance(a, dict) or not isinstance(b, dict):
                continue            # top-level "schema" marker etc.
            kind = b.get("type", a.get("type", "counter"))
            if kind == "meta":
                elapsed = MetricsRegistry._elapsed(a, b)
                if elapsed is not None:
                    out[TS_KEY] = {"type": "meta", "elapsed": elapsed}
                continue
            if kind == "histogram":
                delta = {
                    "type": kind,
                    "count": b.get("count", 0) - a.get("count", 0),
                    "sum": b.get("sum", 0.0) - a.get("sum", 0.0),
                }
            else:
                delta = {"type": kind,
                         "value": b.get("value", 0) - a.get("value", 0)}
            out[name] = delta
        return out

    @staticmethod
    def _elapsed(a: dict, b: dict):
        """Seconds between two ``_ts`` stamps, or None if unknowable.

        Prefers the monotonic clock; falls back to wall time when the
        snapshots come from different processes (monotonic clocks are
        only comparable within one boot of one process).
        """
        for key in ("monotonic", "wall"):
            if key in a and key in b:
                elapsed = b[key] - a[key]
                if elapsed >= 0:
                    return elapsed
        return None

    @staticmethod
    def render_diff(delta: dict) -> str:
        """Human-readable table of :meth:`diff` output (nonzero rows).

        With an ``elapsed`` stamp in the delta, counter and histogram
        rows gain a per-second rate column.
        """
        elapsed = delta.get(TS_KEY, {}).get("elapsed")
        lines = [f"{'metric':<38} {'delta':>14}", "-" * 53]
        if elapsed is not None:
            lines.insert(1, f"{'elapsed':<38} {elapsed:>13.3f}s")

        def rate(count) -> str:
            if not elapsed:
                return ""
            return f" ({count / elapsed:,.2f}/s)"

        shown = 0
        for name, payload in delta.items():
            kind = payload.get("type")
            if kind == "meta":
                continue
            if kind == "histogram":
                value = payload.get("count", 0)
                extra = payload.get("sum", 0.0)
                if not value and not extra:
                    continue
                lines.append(f"{name:<38} {value:>+14,} "
                             f"(sum {extra:+.3f}){rate(value)}")
            else:
                value = payload.get("value", 0)
                if not value:
                    continue
                text = f"{value:+,.3f}" if isinstance(value, float) \
                    and not float(value).is_integer() else f"{value:+,.0f}"
                suffix = rate(value) if kind == "counter" else ""
                lines.append(f"{name:<38} {text:>14}{suffix}")
            shown += 1
        if not shown:
            lines.append("(no differences)")
        return "\n".join(lines)

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        """One-line-per-metric summary table."""
        lines = [f"{'metric':<38} {'value':>14}", "-" * 53]
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                lines.append(f"{name:<38} {metric.count:>14,} "
                             f"(mean {metric.mean:.4g})")
            else:
                value = metric.value
                text = f"{value:,.3f}" if isinstance(value, float) \
                    and not float(value).is_integer() else f"{value:,.0f}"
                lines.append(f"{name:<38} {text:>14}")
        return "\n".join(lines)

    # -- merge ---------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's totals into this one (for per-worker
        registries merged by the engine)."""
        for name, metric in other._metrics.items():
            if isinstance(metric, Histogram):
                mine = self.histogram(name, metric.buckets)
                if mine.buckets != metric.buckets:
                    raise ValueError(
                        f"histogram {name!r} bucket mismatch")
                for i, count in enumerate(metric.counts):
                    mine.counts[i] += count
                mine.sum += metric.sum
                mine.count += metric.count
            elif isinstance(metric, Gauge):
                self.gauge(name).inc(metric.value)
            else:
                self.counter(name).inc(metric.value)


def load_snapshot(path) -> dict:
    """The registry snapshot a metrics file holds, checked.

    A metrics file is a :meth:`MetricsRegistry.dump`; the dump older
    builds' ``engine run --metrics`` wrote nests one under
    ``"registry"`` and loads too.  A missing or unreadable file or
    text that is not JSON raises :class:`~repro.errors.ReproError`;
    a JSON value that is not an object, an unknown schema, or an
    entry that is not a typed metric raises
    :class:`~repro.errors.SchemaMismatchError`.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as error:
        raise ReproError(f"cannot read metrics file: {error}")
    except ValueError as error:
        raise ReproError(f"{path} is not JSON: {error}")
    if not isinstance(data, dict):
        raise SchemaMismatchError(
            f"{path} is not a metrics snapshot (expected a JSON object)")
    schema = data.get("schema", SNAPSHOT_SCHEMA)
    if schema not in SNAPSHOT_SCHEMAS:
        raise SchemaMismatchError(
            f"{path} has snapshot schema {schema!r}; this build reads "
            f"schema {SNAPSHOT_SCHEMA} — re-export it with a matching "
            "build")
    snapshot = data.get("registry", data)
    if not isinstance(snapshot, dict):
        raise SchemaMismatchError(
            f"{path}: \"registry\" is not a metrics snapshot")
    for name, payload in snapshot.items():
        kind = payload.get("type") if isinstance(payload, dict) else None
        if name != "schema" and kind not in _ENTRY_TYPES:
            raise SchemaMismatchError(
                f"{path}: entry {name!r} is not a metric (type "
                f"{kind!r}); expected a registry snapshot as written "
                "by --metrics")
    return snapshot
