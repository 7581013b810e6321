"""Service-level objectives, error budgets and burn-rate alerting.

An :class:`SLO` declares what "good" means over the time series in a
:class:`~repro.obs.series.SeriesStore`; the :class:`SLOEngine` walks
every declared objective each evaluation tick, computes fast- and
slow-window **burn rates**, and drives a per-objective alert state
machine (``ok -> pending -> firing -> resolved -> ok``) whose
transitions are published on the EventBus, counted in the registry and
optionally POSTed to a webhook.

Burn rate is the multi-window idiom from the SRE literature: with an
objective of 99% the error budget is 1%, and a burn of ``B`` means
errors are arriving ``B`` times faster than the budget allows.  An
alert fires only when *both* a fast window (catches cliffs quickly)
and a slow window (rejects blips) are burning past their thresholds —
and it resolves only after the condition has stayed clear for
``resolve_after`` seconds, so a flapping signal cannot spam
fire/resolve pairs.

Three objective kinds:

* ``ratio`` — bad events over total events, from *rate* series
  (``window_total`` recovers raw counts).  Availability-style.
* ``level`` — fraction of window points above ``limit``.  Latency-
  percentile and saturation style.
* ``zero`` — any positive point in the window is a violation
  (burn jumps to infinity).  Degraded-mode and soundness style.

Each SLO names its series literally and drives one alert, keyed by
the SLO's name.  ``load_slos`` reads TOML or JSON files whose entries
override same-named defaults (``disabled = true`` removes one).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path

from ..errors import ReproError
from .series import SeriesStore

#: Version stamped into ``/v1/alerts`` documents.
ALERTS_SCHEMA = 1

#: Alert states, in lifecycle order.
STATES = ("ok", "pending", "firing", "resolved")

#: Transitions kept per alert for the ``/v1/alerts`` history tail.
HISTORY = 32


class SLOConfigError(ReproError):
    """An SLO file or spec dict is malformed."""


@dataclass(frozen=True)
class SLO:
    """One declared objective over series in a :class:`SeriesStore`."""

    name: str
    kind: str = "ratio"                 # ratio | level | zero
    description: str = ""
    #: ratio: rate series counting bad / good events (summed).
    bad: tuple = ()
    good: tuple = ()
    #: level / zero: series whose points are tested.
    series: tuple = ()
    limit: float = 0.0                  # level: points above this are bad
    objective: float = 0.99             # good fraction target
    fast_window: float = 60.0
    slow_window: float = 300.0
    fast_burn: float = 6.0              # burn thresholds per window
    slow_burn: float = 1.0
    pending_for: float = 0.0            # breach must persist this long
    resolve_after: float = 30.0         # clear must persist this long

    def __post_init__(self):
        if self.kind not in ("ratio", "level", "zero"):
            raise SLOConfigError(
                f"slo {self.name!r}: unknown kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise SLOConfigError(
                f"slo {self.name!r}: objective {self.objective} "
                "not in (0, 1)")
        if self.kind == "ratio" and not self.bad:
            raise SLOConfigError(
                f"slo {self.name!r}: ratio kind needs 'bad' series")
        if self.kind in ("level", "zero") and not self.series:
            raise SLOConfigError(
                f"slo {self.name!r}: {self.kind} kind needs 'series'")
        for name in (*self.bad, *self.good, *self.series):
            if "*" in name:
                raise SLOConfigError(
                    f"slo {self.name!r}: series {name!r} has a '*'; "
                    "series names are literal")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective

    @classmethod
    def from_dict(cls, data: dict) -> "SLO":
        if not isinstance(data, dict) or "name" not in data:
            raise SLOConfigError(f"slo entry missing 'name': {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known - {"disabled"}
        if unknown:
            raise SLOConfigError(
                f"slo {data['name']!r}: unknown keys {sorted(unknown)}")
        kwargs = {k: v for k, v in data.items() if k in known}
        for key in ("bad", "good", "series"):
            if key in kwargs:
                value = kwargs[key]
                kwargs[key] = (value,) if isinstance(value, str) \
                    else tuple(value)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "description": self.description,
                "bad": list(self.bad), "good": list(self.good),
                "series": list(self.series), "limit": self.limit,
                "objective": self.objective,
                "fast_window": self.fast_window,
                "slow_window": self.slow_window,
                "fast_burn": self.fast_burn,
                "slow_burn": self.slow_burn,
                "pending_for": self.pending_for,
                "resolve_after": self.resolve_after}


def default_slos() -> list[SLO]:
    """The built-in objectives every ``repro serve`` gets for free.

    Tuned to the serving stack's own metric names; ``serve --slo FILE``
    entries override same-named defaults.
    """
    return [
        SLO(name="job-availability", kind="ratio",
            description="jobs complete and submissions are admitted",
            bad=("service.jobs.done.failed", "service.jobs.rejected"),
            good=("service.jobs.done.ok", "service.jobs.done.partial",
                  "service.jobs.submitted"),
            objective=0.99, fast_window=30.0, slow_window=120.0,
            fast_burn=2.0, slow_burn=1.0, resolve_after=30.0),
        SLO(name="queue-latency-p99", kind="level",
            description="p99 queue wait stays under 2s",
            series=("service.queue_seconds.p99",), limit=2.0,
            objective=0.95, fast_window=60.0, slow_window=300.0,
            fast_burn=2.0, slow_burn=1.0, resolve_after=60.0),
        SLO(name="degraded-mode", kind="zero",
            description="journal healthy: no read-only degraded mode",
            # Gauge catches long degradations, entered-counter rate
            # catches ones shorter than a sample tick.
            series=("service.degraded", "service.degraded.entered"),
            fast_window=15.0, slow_window=15.0, resolve_after=20.0),
        SLO(name="soundness", kind="zero",
            description="zero invariant/fuzz soundness violations",
            series=("synth.fuzz.violations",
                    "chaos.invariant.violations"),
            fast_window=300.0, slow_window=300.0, resolve_after=300.0),
    ]


def load_slos(path, defaults=None) -> list[SLO]:
    """Read SLOs from TOML (``.toml``) or JSON and overlay defaults.

    The file holds ``[[slo]]`` tables (TOML) / an ``{"slo": [...]}``
    object or bare list (JSON).  File entries replace same-named
    defaults; ``disabled = true`` drops one entirely.
    """
    path = Path(path)
    try:
        if path.suffix == ".toml":
            import tomllib
            data = tomllib.loads(path.read_text())
        else:
            data = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise SLOConfigError(f"cannot read SLO file {path}: {exc}") \
            from exc
    if isinstance(data, dict):
        entries = data.get("slo", [])
    else:
        entries = data
    if not isinstance(entries, list):
        raise SLOConfigError(
            f"{path}: expected a list of SLO entries under 'slo'")
    merged = {slo.name: slo for slo in
              (default_slos() if defaults is None else defaults)}
    for entry in entries:
        if isinstance(entry, dict) and entry.get("disabled"):
            merged.pop(entry.get("name", ""), None)
            continue
        base = merged.get(entry.get("name", "")) if isinstance(entry, dict) \
            else None
        if base is not None:
            payload = {**base.to_dict(), **entry}
            payload.pop("disabled", None)
            merged[base.name] = SLO.from_dict(payload)
        else:
            slo = SLO.from_dict(entry)
            merged[slo.name] = slo
    return list(merged.values())


class Alert:
    """Runtime alert state for one SLO."""

    __slots__ = ("slo", "state", "since", "breached_at", "cleared_at",
                 "burn_fast", "burn_slow", "history")

    def __init__(self, slo: SLO):
        self.slo = slo
        self.state = "ok"
        self.since = None           # ts of the last state change
        self.breached_at = None     # breach onset (pending timer)
        self.cleared_at = None      # clear onset (resolve timer)
        self.burn_fast = 0.0
        self.burn_slow = 0.0
        self.history: deque = deque(maxlen=HISTORY)

    def budget_remaining(self) -> float:
        """Slow-window error budget left, 1.0 = untouched, 0 = spent."""
        return max(0.0, 1.0 - min(self.burn_slow, 1.0))

    def to_dict(self) -> dict:
        return {"name": self.slo.name, "state": self.state,
                "kind": self.slo.kind,
                "description": self.slo.description,
                "since": self.since,
                "burn_fast": round(self.burn_fast, 4),
                "burn_slow": round(self.burn_slow, 4),
                "fast_burn": self.slo.fast_burn,
                "slow_burn": self.slo.slow_burn,
                "objective": self.slo.objective,
                "budget_remaining": round(self.budget_remaining(), 4),
                "history": list(self.history)}


#: Burn value used for ``zero``-kind violations: always past any
#: threshold, JSON-safe (float('inf') is not).
ZERO_VIOLATION_BURN = 1e9


class SLOEngine:
    """Evaluates every SLO against a series store and raises alerts.

    ``webhook`` is either a callable (invoked synchronously with the
    transition payload — the embedding/test hook) or an ``http://``
    URL POSTed to from a daemon thread so evaluation never blocks on a
    slow sink.
    """

    def __init__(self, store: SeriesStore, slos=None, bus=None,
                 registry=None, webhook=None, clock=time.time):
        self.store = store
        self.bus = bus
        self.registry = registry
        self.webhook = webhook
        self.clock = clock
        self.evaluations = 0
        if slos is None:
            slos = default_slos()
        self.slos = [slo if isinstance(slo, SLO) else SLO.from_dict(slo)
                     for slo in slos]
        self._alerts = {slo.name: Alert(slo) for slo in self.slos}

    # -- burn math -----------------------------------------------------
    def _burn(self, slo: SLO, window: float, now: float) -> float:
        if slo.kind == "ratio":
            bad = sum(self.store.window_total(n, window, now=now)
                      for n in slo.bad)
            good = sum(self.store.window_total(n, window, now=now)
                       for n in slo.good)
            total = bad + good
            if total <= 0:
                return 0.0
            return (bad / total) / slo.budget
        if slo.kind == "level":
            worst = 0.0
            for name in slo.series:
                points = self.store.window(name, window, now=now)
                if not points:
                    continue
                over = sum(1 for _, v in points if v > slo.limit)
                worst = max(worst, over / len(points))
            return worst / slo.budget
        # zero: any positive point in the window is a violation.
        for name in slo.series:
            if self.store.window_max(name, window, now=now) > 0:
                return ZERO_VIOLATION_BURN
        return 0.0

    # -- evaluation ----------------------------------------------------
    def evaluate(self, now=None) -> list[dict]:
        """One evaluation tick; returns the transitions that happened."""
        if now is None:
            now = self.clock()
        self.evaluations += 1
        transitions = []
        for alert in self._alerts.values():
            transition = self._step(alert, now)
            if transition is not None:
                transitions.append(transition)
        if self.registry is not None:
            firing = sum(1 for a in self._alerts.values()
                         if a.state == "firing")
            self.registry.gauge("slo.alerts.firing").set(firing)
        return transitions

    def _step(self, alert: Alert, now: float):
        slo = alert.slo
        alert.burn_fast = self._burn(slo, slo.fast_window, now)
        alert.burn_slow = self._burn(slo, slo.slow_window, now)
        breach = (alert.burn_fast >= slo.fast_burn
                  and alert.burn_slow >= slo.slow_burn)
        state = alert.state
        if state in ("ok", "resolved"):
            if breach:
                alert.breached_at = now
                if slo.pending_for > 0:
                    return self._transition(alert, "pending", now)
                return self._transition(alert, "firing", now)
            if state == "resolved":
                # One tick of visibility, then back to quiet.
                return self._transition(alert, "ok", now, publish=False)
        elif state == "pending":
            if not breach:
                alert.breached_at = None
                return self._transition(alert, "ok", now, publish=False)
            if now - alert.breached_at >= slo.pending_for:
                return self._transition(alert, "firing", now)
        elif state == "firing":
            if breach:
                alert.cleared_at = None
            else:
                if alert.cleared_at is None:
                    alert.cleared_at = now
                if now - alert.cleared_at >= slo.resolve_after:
                    alert.cleared_at = None
                    return self._transition(alert, "resolved", now)
        return None

    def _transition(self, alert: Alert, state: str, now: float,
                    publish: bool = True):
        alert.state = state
        alert.since = now
        alert.history.append({"ts": now, "state": state,
                              "burn_fast": round(alert.burn_fast, 4),
                              "burn_slow": round(alert.burn_slow, 4)})
        payload = alert.to_dict()
        payload.pop("history", None)
        if not publish:
            return payload
        event = f"alert_{state}"
        if self.registry is not None:
            self.registry.counter(f"slo.transitions.{state}").inc()
        if self.bus is not None:
            self.bus.publish(event, alert=alert.slo.name,
                             slo=alert.slo.name, state=state,
                             description=alert.slo.description,
                             burn_fast=payload["burn_fast"],
                             burn_slow=payload["burn_slow"],
                             budget_remaining=payload["budget_remaining"])
        self._notify_webhook({"event": event, "ts": now, **payload})
        return payload

    # -- webhook -------------------------------------------------------
    def _notify_webhook(self, payload: dict) -> None:
        sink = self.webhook
        if sink is None:
            return
        if callable(sink):
            try:
                sink(payload)
                self._count("slo.webhook.delivered")
            except Exception:
                self._count("slo.webhook.failed")
            return
        thread = threading.Thread(target=self._post, args=(sink, payload),
                                  name="slo-webhook", daemon=True)
        thread.start()

    def _post(self, url: str, payload: dict) -> None:
        import urllib.request
        body = json.dumps(payload).encode()
        request = urllib.request.Request(
            url, data=body, method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=2.0):
                pass
            self._count("slo.webhook.delivered")
        except Exception:
            self._count("slo.webhook.failed")

    def _count(self, name: str) -> None:
        if self.registry is not None:
            self.registry.counter(name).inc()

    # -- reporting -----------------------------------------------------
    def alerts(self) -> list[dict]:
        return [self._alerts[key].to_dict()
                for key in sorted(self._alerts)]

    def firing(self) -> list[dict]:
        return [a for a in self.alerts() if a["state"] == "firing"]

    def to_dict(self) -> dict:
        """JSON document for ``/v1/alerts``."""
        return {"schema": ALERTS_SCHEMA,
                "evaluations": self.evaluations,
                "slos": [slo.to_dict() for slo in self.slos],
                "alerts": self.alerts()}
