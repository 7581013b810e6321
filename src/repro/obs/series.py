"""Bounded in-process time series over the metrics registry.

Snapshots (:mod:`repro.obs.registry`) answer *what are the totals now*;
this module answers *what has been happening* — the third observability
pillar next to traces and point-in-time metrics.  Two pieces:

* :class:`SeriesStore` — named ring buffers of ``(ts, value)`` points
  with configurable retention, windowed aggregation (avg, max,
  rate-integral) and JSON export.  Thread-safe; readers (HTTP handlers,
  the SLO engine) and the writer (the sampler) share one lock.
* :class:`RegistrySampler` — a fixed-interval *pull* sampler that turns
  registry metrics into series: counters become per-second **rates**
  (delta over the tick), gauges become **levels**, histograms become
  windowed **p50/p95/p99** over the observations of the tick plus an
  observation rate.  EventBus traffic is folded in as per-event-type
  rates.

Pull-based sampling is what makes the disabled path *exactly* zero
cost: no sampler object, no hooks on the hot metric mutators, nothing
to skip.  The service drives :meth:`RegistrySampler.maybe_sample` from
its housekeeping loop; embedders and tests can call :meth:`sample`
directly with a synthetic clock.

>>> store = SeriesStore()
>>> store.record("queue_depth", 3.0, ts=10.0)
>>> store.record("queue_depth", 5.0, ts=11.0)
>>> store.latest("queue_depth")
5.0
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time
from collections import deque

from .registry import Histogram

#: Version stamped into ``/v1/series`` documents.
SERIES_SCHEMA = 1

#: Default points kept per series ring (~8.5 min at 1 Hz).
DEFAULT_RETENTION = 512

#: Default seconds between samples.
DEFAULT_INTERVAL = 1.0

#: Histogram quantiles materialized as ``<name>.pNN`` series.
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


class Series:
    """One named ring of ``(ts, value)`` points.

    ``kind`` is advisory metadata for consumers (the console labels
    rates differently from levels): ``rate``, ``gauge`` or ``quantile``.

    Beside the ring run its timestamps and ``integral``: at each
    point, the sum of ``value * dt`` over every point recorded so far,
    ``dt`` being the spacing to the previous point.  While the ring's
    timestamps never decrease, a window's cutoff is found by bisection
    and its :meth:`total` is a difference of two integrals, so neither
    costs a pass over the ring.
    """

    __slots__ = ("name", "kind", "points", "times", "integral",
                 "_descents")

    def __init__(self, name: str, kind: str = "gauge",
                 retention: int = DEFAULT_RETENTION):
        self.name = name
        self.kind = kind
        self.points: deque[tuple[float, float]] = deque(maxlen=retention)
        self.times: deque[float] = deque(maxlen=retention)
        self.integral: deque[float] = deque(maxlen=retention)
        # Adjacent points in the ring whose timestamps decrease.
        self._descents = 0

    def add(self, ts: float, value: float) -> None:
        times = self.times
        area = 0.0
        if times:
            if len(times) == times.maxlen > 1 and times[1] < times[0]:
                self._descents -= 1     # that pair leaves the ring
            last = times[-1]
            self._descents += ts < last
            area = self.integral[-1] + value * (ts - last)
        self.points.append((ts, value))
        times.append(ts)
        self.integral.append(area)

    def latest(self):
        return self.points[-1][1] if self.points else None

    def _first(self, cutoff: float) -> int:
        """Index of the first point with ``ts > cutoff`` (sorted ring)."""
        return bisect.bisect_right(self.times, cutoff)

    def window(self, seconds: float, now=None) -> list[tuple[float, float]]:
        """Points with ``ts > now - seconds``, oldest first."""
        if now is None:
            now = self.points[-1][0] if self.points else 0.0
        cutoff = now - seconds
        if self._descents:
            return [p for p in self.points if p[0] > cutoff]
        return list(itertools.islice(self.points, self._first(cutoff),
                                     None))

    def total(self, seconds: float, now=None) -> float:
        """``value * dt`` summed over the points with ``ts > now -
        seconds`` (see :meth:`SeriesStore.window_total`)."""
        points = self.points
        if len(points) < 2:
            return 0.0
        if now is None:
            now = points[-1][0]
        cutoff = now - seconds
        if self._descents:
            return _scanned_total(list(points), cutoff)
        first = self._first(cutoff)
        if first == len(points):
            return 0.0
        ts, value = points[first]
        # The first point has no predecessor in the ring: the following
        # interval stands in for its own.
        dt = (ts - points[first - 1][0] if first
              else points[1][0] - ts)
        return value * dt + (self.integral[-1] - self.integral[first])

    def to_dict(self, since: float = 0.0) -> dict:
        return {"kind": self.kind,
                "points": [[ts, value] for ts, value in self.points
                           if ts > since]}


class SeriesStore:
    """Thread-safe collection of bounded series plus window math.  A
    series, once recorded, is never removed, so the store's size
    changes only when it gains one (:class:`~repro.obs.slo.SLOEngine`
    rebinds its SLOs' series names then)."""

    def __init__(self, retention: int = DEFAULT_RETENTION):
        if retention < 2:
            raise ValueError(f"retention {retention} < 2")
        self.retention = retention
        self._lock = threading.Lock()
        self._series: dict[str, Series] = {}

    # -- writing -------------------------------------------------------
    def record(self, name: str, value: float, ts=None,
               kind: str = "gauge") -> None:
        self.record_many([(name, value, kind)], ts)

    def record_many(self, points, ts=None) -> None:
        """Record ``(name, value, kind)`` points at one timestamp, as
        one sampler tick does, taking the lock once."""
        if ts is None:
            ts = time.time()
        with self._lock:
            for name, value, kind in points:
                series = self._series.get(name)
                if series is None:
                    series = self._series[name] = Series(
                        name, kind=kind, retention=self.retention)
                series.add(ts, float(value))

    # -- reading -------------------------------------------------------
    def names(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(n for n in self._series if n.startswith(prefix))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._series

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def point_count(self) -> int:
        with self._lock:
            return sum(len(s.points) for s in self._series.values())

    def latest(self, name: str, default=None):
        with self._lock:
            series = self._series.get(name)
            value = series.latest() if series is not None else None
        return default if value is None else value

    def window(self, name: str, seconds: float,
               now=None) -> list[tuple[float, float]]:
        with self._lock:
            series = self._series.get(name)
            if series is None:
                return []
            return series.window(seconds, now=now)

    def window_max(self, name: str, seconds: float, now=None,
                   default=0.0) -> float:
        points = self.window(name, seconds, now=now)
        if not points:
            return default
        return max(v for _, v in points)

    def window_total(self, name: str, seconds: float, now=None) -> float:
        """Integral of a *rate* series over the window.

        Each point is a per-second rate over the tick that produced it,
        so ``rate * dt`` recovers the raw delta and the sum over the
        window recovers the raw count — which is what error-budget
        ratios need.  ``dt`` is the spacing to the previous point; the
        very first point has no predecessor, so the following interval
        stands in for it (exact under fixed-interval sampling).
        """
        with self._lock:
            series = self._series.get(name)
            return 0.0 if series is None else series.total(seconds, now)

    # -- export --------------------------------------------------------
    def to_dict(self, prefix: str = "", since: float = 0.0) -> dict:
        """JSON document for ``/v1/series`` (and file dumps)."""
        with self._lock:
            names = sorted(n for n in self._series if n.startswith(prefix))
            series = {name: self._series[name].to_dict(since=since)
                      for name in names}
        return {"schema": SERIES_SCHEMA, "retention": self.retention,
                "series": series}


def _scanned_total(points: list, cutoff: float) -> float:
    """:meth:`Series.total` by one pass over `points`, for a ring whose
    timestamps are out of order."""
    total = 0.0
    for i, (ts, value) in enumerate(points):
        if ts <= cutoff:
            continue
        dt = points[i][0] - points[i - 1][0] if i else \
            points[1][0] - points[0][0]
        total += value * dt
    return total


class RegistrySampler:
    """Fixed-interval sampler: registry + EventBus -> :class:`SeriesStore`.

    Counter state from the previous tick lives in ``_prev``, so the
    first tick only establishes baselines — a freshly attached sampler
    never reports a process's whole cumulative history as one rate
    spike.
    """

    def __init__(self, registry, store: SeriesStore,
                 interval: float = DEFAULT_INTERVAL, bus=None,
                 clock=time.time):
        if interval < 0:
            raise ValueError(f"interval {interval} < 0")
        self.registry = registry
        self.store = store
        self.interval = interval
        self.clock = clock
        self.samples = 0
        self._last_ts = None
        self._prev: dict[str, object] = {}
        self._sub = None
        if bus is not None:
            self._sub = bus.subscribe(maxlen=8192, name="series.sampler")
        # Baseline so the first real tick yields deltas, not totals.
        self._ingest(registry.snapshot(), None)

    def close(self) -> None:
        if self._sub is not None:
            self._sub.close()
            self._sub = None

    # -- cadence -------------------------------------------------------
    def due(self, now=None) -> bool:
        if now is None:
            now = self.clock()
        return self._last_ts is None or now - self._last_ts >= self.interval

    def maybe_sample(self, now=None) -> bool:
        """Sample iff an interval has elapsed; returns whether it did."""
        if now is None:
            now = self.clock()
        if not self.due(now):
            return False
        self.sample(now)
        return True

    # -- sampling ------------------------------------------------------
    def sample(self, now=None) -> int:
        """Take one sample; returns the number of points recorded."""
        if now is None:
            now = self.clock()
        dt = now - self._last_ts if self._last_ts is not None \
            else self.interval or 1.0
        if dt <= 0:
            dt = self.interval or 1.0
        self._last_ts = now
        points = self._ingest(self.registry.snapshot(), dt)
        if self._sub is not None:
            counts: dict[str, int] = {}
            for event in self._sub.pop_all():
                kind = event.get("type", "?")
                counts[kind] = counts.get(kind, 0) + 1
            points += [(f"bus.events.{kind}", count / dt, "rate")
                       for kind, count in counts.items()]
            points.append(("bus.dropped", self._sub.dropped, "gauge"))
        self.store.record_many(points, now)
        self.samples += 1
        return len(points)

    # -- transforms ----------------------------------------------------
    def _ingest(self, snapshot: dict, dt: float | None) -> list:
        """Apply counter->rate / gauge->level / histogram->quantile;
        returns the ``(name, value, kind)`` points of one tick.

        With ``dt=None`` only baselines are stored (construction).
        """
        prev = self._prev
        points = []
        for name, payload in snapshot.items():
            if not isinstance(payload, dict):
                continue
            kind = payload.get("type", "counter")
            if kind == "meta":
                continue
            if kind == "gauge":
                if dt is not None:
                    points.append((name, payload.get("value", 0), "gauge"))
            elif kind == "histogram":
                self._ingest_histogram(name, payload, dt, points)
            else:                   # counter
                value = payload.get("value", 0)
                last = prev.get(name)
                prev[name] = value
                if dt is None or last is None:
                    continue
                points.append((name, max(0.0, value - last) / dt, "rate"))
        return points

    def _ingest_histogram(self, name: str, payload: dict,
                          dt: float | None, points: list) -> None:
        counts = list(payload.get("counts", ()))
        last = self._prev.get(name)
        self._prev[name] = counts
        if dt is None or last is None or len(last) != len(counts):
            return
        delta = [max(0, b - a) for a, b in zip(last, counts)]
        observed = sum(delta)
        points.append((name + ".rate", observed / dt, "rate"))
        if not observed:
            return                  # no observations: no quantile point
        window = Histogram(name, payload.get("buckets", ()))
        window.counts = delta
        window.count = observed
        for label, q in QUANTILES:
            points.append((f"{name}.{label}", window.percentile(q),
                           "quantile"))
