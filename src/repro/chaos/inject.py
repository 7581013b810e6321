"""Deterministic, seeded fault injection for the serving stack.

The serving stack (journal, cache, scheduler) earns its
robustness claims only if failures can be *manufactured on demand and
replayed exactly*.  This module is the single switchboard: named
injection points are threaded through the production seams, and a
:class:`FaultPlan` — a seed plus per-point trigger budgets — decides
which arrivals actually fault.  Two runs with the same plan see the
same fault sequence (per-point PRNGs are seeded from ``(seed,
point)``), so a failing chaos run is a reproducible artifact, not an
anecdote.

Zero-cost when off
------------------
Mirroring ``NULL_TRACER``: the module-level default is a
:class:`NullInjector` whose hooks are constant no-ops behind an
``enabled`` flag, so production code can call :func:`fire` /
:func:`delay` / :func:`corrupt` unconditionally.  The free functions
read the module global at call time, so :func:`install` /
:func:`reset` take effect everywhere at once.

Injection points
----------------
======================  =======  ==========================================
point                   kind     effect at the seam
======================  =======  ==========================================
``journal.write``       error    ``EIO`` from the WAL frame write
``journal.enospc``      error    ``ENOSPC`` from the WAL frame write
``journal.fsync``       error    ``EIO`` from the group-commit fsync
``journal.torn``        flag     half a frame hits the file, then ``EIO``
``cache.read``          corrupt  one byte of the entry flips before parse
``worker.kill``         error    dispatch raises (exercises retry/reset)
``worker.hang``         delay    job stalls before dispatch (eats deadline)
``solver.budget``       budget   set timeout collapses (forces relaxation)
======================  =======  ==========================================

Injection is deliberately **parent-process only**: spawned pool
workers never inherit an installed injector, so the fault sequence is
a function of the plan and the arrival order at the service layer —
not of pool scheduling.  ``worker.kill``/``worker.hang`` therefore
fault the dispatch seam rather than code inside the worker, which
exercises the exact same recovery paths.
"""

from __future__ import annotations

import errno
import random
import threading
from dataclasses import dataclass

#: Known points and their default delay magnitudes (seconds) where the
#: schedule omits ``~SECONDS``.
POINTS = {
    "journal.write": 0.0,
    "journal.enospc": 0.0,
    "journal.fsync": 0.0,
    "journal.torn": 0.0,
    "cache.read": 0.0,
    "worker.kill": 0.0,
    "worker.hang": 1.0,
    "solver.budget": 0.001,
}

#: One-line effect of each point (``repro chaos points``).
POINT_HELP = {
    "journal.write": "EIO from the WAL frame write",
    "journal.enospc": "ENOSPC from the WAL frame write",
    "journal.fsync": "EIO from the group-commit fsync",
    "journal.torn": "half a frame hits the file, then EIO",
    "cache.read": "one byte of a cache entry read from disk flips "
                  "before parse",
    "worker.kill": "dispatch raises (exercises retry + pool reset)",
    "worker.hang": "job stalls before dispatch (eats its deadline)",
    "solver.budget": "set timeout collapses (forces LP relaxation)",
}

_ERRNOS = {
    "journal.write": errno.EIO,
    "journal.enospc": errno.ENOSPC,
    "journal.fsync": errno.EIO,
    "journal.torn": errno.EIO,
    "worker.kill": errno.EIO,
}


class FaultScheduleError(ValueError):
    """The ``--chaos`` schedule text does not parse."""


class InjectedFault(OSError):
    """A fault manufactured by the injector.

    Subclasses :class:`OSError` (with a real ``errno``) so it flows
    through exactly the handlers a genuine I/O failure would — the
    production code cannot tell the difference, which is the point.
    """


@dataclass(frozen=True)
class FaultRule:
    """One point's budget in a :class:`FaultPlan`.

    ``count`` is how many arrivals may fault (``None`` = unlimited);
    ``probability`` gates each arrival through the point's seeded
    PRNG; ``seconds`` is the magnitude for delay/budget points.
    """

    point: str
    count: int | None = 1
    probability: float = 1.0
    seconds: float | None = None

    def to_text(self) -> str:
        text = f"{self.point}={'*' if self.count is None else self.count}"
        if self.probability != 1.0:
            text += f"@{self.probability:g}"
        if self.seconds is not None:
            text += f"~{self.seconds:g}"
        return text


@dataclass(frozen=True)
class FaultPlan:
    """A replayable fault schedule: seed + per-point rules.

    Schedule grammar (comma-separated tokens)::

        seed=SEED, POINT=COUNT[@PROB][~SECONDS], ...

    ``COUNT`` is an integer trigger budget or ``*`` for unlimited;
    ``@PROB`` (default 1.0) makes each arrival fault with that
    probability, decided by a PRNG seeded from ``(seed, point)``;
    ``~SECONDS`` sets the delay magnitude for ``worker.hang`` or the
    collapsed timeout for ``solver.budget``.
    Example: ``seed=7,journal.enospc=3,worker.kill=1,cache.read=2@0.5``.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        seed = 0
        rules = []
        seen = set()
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition("=")
            name = name.strip()
            value = value.strip()
            if not sep or not value:
                raise FaultScheduleError(
                    f"chaos token {token!r} is not NAME=VALUE")
            if name == "seed":
                try:
                    seed = int(value)
                except ValueError:
                    raise FaultScheduleError(
                        f"chaos seed {value!r} is not an integer") from None
                continue
            if name not in POINTS:
                known = ", ".join(sorted(POINTS))
                raise FaultScheduleError(
                    f"unknown chaos point {name!r} (known: {known})")
            if name in seen:
                raise FaultScheduleError(
                    f"chaos point {name!r} appears twice")
            seen.add(name)
            seconds = None
            if "~" in value:
                value, _, seconds_text = value.partition("~")
                try:
                    seconds = float(seconds_text)
                except ValueError:
                    raise FaultScheduleError(
                        f"chaos seconds {seconds_text!r} is not a "
                        f"number") from None
            probability = 1.0
            if "@" in value:
                value, _, prob_text = value.partition("@")
                try:
                    probability = float(prob_text)
                except ValueError:
                    raise FaultScheduleError(
                        f"chaos probability {prob_text!r} is not a "
                        f"number") from None
                if not 0.0 <= probability <= 1.0:
                    raise FaultScheduleError(
                        f"chaos probability {probability} is outside "
                        f"[0, 1]")
            if value == "*":
                count = None
            else:
                try:
                    count = int(value)
                except ValueError:
                    raise FaultScheduleError(
                        f"chaos count {value!r} is not an integer "
                        f"or '*'") from None
                if count < 0:
                    raise FaultScheduleError(
                        f"chaos count {count} is negative")
            rules.append(FaultRule(name, count, probability, seconds))
        return cls(seed=seed, rules=tuple(rules))

    def to_text(self) -> str:
        """Canonical schedule text; ``parse`` round-trips it."""
        tokens = [f"seed={self.seed}"]
        tokens.extend(rule.to_text() for rule in self.rules)
        return ",".join(tokens)

    def describe(self) -> str:
        lines = [f"seed: {self.seed}"]
        for rule in self.rules:
            count = "unlimited" if rule.count is None else str(rule.count)
            line = f"{rule.point}: count={count}"
            if rule.probability != 1.0:
                line += f" probability={rule.probability:g}"
            seconds = rule.seconds
            if seconds is None:
                seconds = POINTS[rule.point]
            if seconds:
                line += f" seconds={seconds:g}"
            lines.append(line)
        return "\n".join(lines)


class NullInjector:
    """The disabled path: every hook is a constant no-op.

    Shared module-wide as :data:`NULL_INJECTOR` (the ``NULL_TRACER``
    pattern) so the seams cost one attribute check when chaos is off.
    """

    enabled = False

    def attach(self, bus=None, registry=None) -> None:
        pass

    def trip(self, point: str) -> bool:
        return False

    def fire(self, point: str) -> None:
        pass

    def delay(self, point: str) -> float:
        return 0.0

    def corrupt(self, point: str, text: str) -> str:
        return text

    def budget(self, point: str, timeout):
        return timeout

    def counts(self) -> dict:
        return {}


NULL_INJECTOR = NullInjector()


class Injector(NullInjector):
    """A live injector executing one :class:`FaultPlan`.

    Thread-safe: seams fire from the event loop and from threads the
    loop hands work to.  Each point draws from its own
    ``random.Random(f"{seed}:{point}")``, so the decision sequence at
    one point is independent of traffic at every other — the property
    that makes a multi-point schedule replayable.
    """

    enabled = True

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._state = {}
        for rule in plan.rules:
            rng = random.Random(f"{plan.seed}:{rule.point}")
            self._state[rule.point] = [rule, rule.count, rng]
        self._fired: dict[str, int] = {}
        self._bus = None
        self._registry = None

    def attach(self, bus=None, registry=None) -> None:
        """Publish each triggered fault as a ``chaos_fault`` event and
        a ``chaos.<point>`` counter."""
        if bus is not None:
            self._bus = bus
        if registry is not None:
            self._registry = registry

    # ------------------------------------------------------------------
    def _arm(self, point: str) -> FaultRule | None:
        """Consume one charge at ``point`` if the plan says so."""
        # Lock-free miss: _state's keys are fixed at construction, so
        # a point outside the plan never touches the lock — seams at
        # unarmed points stay as close to free as the NullInjector.
        if point not in self._state:
            return None
        with self._lock:
            state = self._state.get(point)
            if state is None:
                return None
            rule, remaining, rng = state
            if remaining is not None and remaining <= 0:
                return None
            if rule.probability < 1.0 \
                    and rng.random() >= rule.probability:
                return None
            if remaining is not None:
                state[1] = remaining - 1
            self._fired[point] = self._fired.get(point, 0) + 1
            fired = self._fired[point]
        if self._registry is not None:
            self._registry.counter(f"chaos.{point}").inc()
        if self._bus is not None:
            self._bus.publish("chaos_fault", point=point, n=fired,
                              seed=self.plan.seed)
        return rule

    # ------------------------------------------------------------------
    def trip(self, point: str) -> bool:
        """Consume a charge and report whether the point fired (for
        seams that implement the fault themselves, e.g. torn
        frames)."""
        return self._arm(point) is not None

    def fire(self, point: str) -> None:
        """Raise an :class:`InjectedFault` if the point fires."""
        rule = self._arm(point)
        if rule is not None:
            code = _ERRNOS.get(point, errno.EIO)
            raise InjectedFault(
                code, f"chaos: injected fault at {point} "
                      f"(seed {self.plan.seed})")

    def delay(self, point: str) -> float:
        """Seconds to stall at ``point`` (0.0 when it does not fire)."""
        rule = self._arm(point)
        if rule is None:
            return 0.0
        if rule.seconds is not None:
            return rule.seconds
        return POINTS.get(point, 0.0)

    def corrupt(self, point: str, text: str) -> str:
        """Flip one character of ``text`` if the point fires.

        The flip position and replacement are functions of the text
        alone, so the corruption a given entry suffers is itself
        reproducible."""
        if self._arm(point) is None or not text:
            return text
        index = len(text) // 2
        original = text[index]
        replacement = "#" if original != "#" else "%"
        return text[:index] + replacement + text[index + 1:]

    def budget(self, point: str, timeout):
        """Collapse a solver timeout if the point fires."""
        rule = self._arm(point)
        if rule is None:
            return timeout
        injected = rule.seconds
        if injected is None:
            injected = POINTS.get(point, 0.001)
        if timeout is None:
            return injected
        return min(timeout, injected)

    def counts(self) -> dict:
        """point -> times fired so far (a copy)."""
        with self._lock:
            return dict(self._fired)


#: The process-wide active injector; seams read it through the free
#: functions below at call time, so ``install``/``reset`` apply
#: immediately everywhere.
_ACTIVE: NullInjector = NULL_INJECTOR


def active() -> NullInjector:
    return _ACTIVE


def install(plan: FaultPlan | str, bus=None,
            registry=None) -> Injector:
    """Activate a plan (or schedule text) process-wide."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    injector = Injector(plan)
    injector.attach(bus=bus, registry=registry)
    _ACTIVE = injector
    return injector


def reset() -> None:
    """Return to the zero-cost :data:`NULL_INJECTOR`."""
    global _ACTIVE
    _ACTIVE = NULL_INJECTOR


def trip(point: str) -> bool:
    injector = _ACTIVE
    return injector.trip(point) if injector.enabled else False


def fire(point: str) -> None:
    injector = _ACTIVE
    if injector.enabled:
        injector.fire(point)


def delay(point: str) -> float:
    injector = _ACTIVE
    return injector.delay(point) if injector.enabled else 0.0


def corrupt(point: str, text: str) -> str:
    injector = _ACTIVE
    return injector.corrupt(point, text) if injector.enabled else text


def budget(point: str, timeout):
    injector = _ACTIVE
    return injector.budget(point, timeout) if injector.enabled \
        else timeout
