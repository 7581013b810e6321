"""Live terminal dashboard over the telemetry event bus.

``repro engine run --live`` and ``repro experiments --live`` wrap
their batch in a :class:`LiveDashboard`: a background thread drains a
bus subscription and keeps a per-job progress table on the terminal —
constraint sets solved, running simplex pivot / branch-and-bound node
counts, cache hit rate — updating in place with ANSI cursor moves.

On a dumb terminal (``TERM=dumb``) or when output is not a TTY the
dashboard falls back to **line mode**: one plain log line per job
lifecycle event, no cursor control, so CI logs stay readable and the
exit status is unchanged.

Keybindings (live mode, stdin a TTY): ``q`` hides the dashboard and
lets the run finish quietly; the run itself is never interrupted.
"""

from __future__ import annotations

import os
import sys
import threading
import time


def live_capable(stream) -> bool:
    """True when `stream` can host the in-place (ANSI) dashboard."""
    if os.environ.get("TERM", "").lower() in ("", "dumb"):
        return False
    try:
        return bool(stream.isatty())
    except (AttributeError, ValueError):
        return False


class _JobState:
    __slots__ = ("name", "sets_done", "sets_total", "pivots", "nodes",
                 "status", "bound")

    def __init__(self, name: str):
        self.name = name
        self.sets_done = 0
        self.sets_total = 0
        self.pivots = 0
        self.nodes = 0
        self.status = "running"
        self.bound = None


class LiveDashboard:
    """Renders bus events as a terminal progress view.

    Use as a context manager around an engine/experiments run::

        bus = EventBus()
        with LiveDashboard(bus):
            AnalysisEngine(bus=bus).run(jobs)

    Every event it reads (``job_running``, ``set_done``, ``job_done``
    / ``job_failed``) names its job, so concurrent jobs never mix.

    Parameters
    ----------
    bus:
        The :class:`~repro.obs.stream.EventBus` the run publishes into.
    stream:
        Output text stream (default ``sys.stderr`` so piped stdout
        stays clean).
    live:
        Force live (True) or line (False) mode; default auto-detects
        via :func:`live_capable`.
    interval:
        Redraw period in seconds (live mode).
    """

    def __init__(self, bus, stream=None, live: bool | None = None,
                 interval: float = 0.2):
        self.bus = bus
        self.stream = stream if stream is not None else sys.stderr
        self.live = live_capable(self.stream) if live is None else live
        self.interval = interval
        self._jobs: dict[str, _JobState] = {}
        self._order: list[str] = []
        self._quit = False
        self._stop = threading.Event()
        self._sub = None
        self._thread = None
        self._key_thread = None
        self._drawn_lines = 0
        self._started = time.perf_counter()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "LiveDashboard":
        self._sub = self.bus.subscribe(maxlen=8192, name="dashboard")
        self._thread = threading.Thread(target=self._loop,
                                        name="repro-dashboard",
                                        daemon=True)
        self._thread.start()
        if self.live and sys.stdin.isatty():
            self._key_thread = threading.Thread(target=self._keys,
                                                daemon=True)
            self._key_thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._drain()
        if self.live and not self._quit:
            self._redraw(final=True)
        elif not self.live:
            self._line(self._summary())
            self._line(self._drops_footer())
        if self._sub is not None:
            self._sub.close()

    # -- event handling ------------------------------------------------
    def _loop(self) -> None:
        while not self._stop.is_set():
            event = self._sub.get(timeout=self.interval)
            if event is not None:
                self._apply(event)
                for extra in self._sub.pop_all():
                    self._apply(extra)
            if self.live and not self._quit:
                self._redraw()

    def _drain(self) -> None:
        for event in self._sub.pop_all():
            self._apply(event)

    def _job(self, name: str) -> _JobState:
        state = self._jobs.get(name)
        if state is None:
            state = self._jobs[name] = _JobState(name)
            self._order.append(name)
        return state

    def _apply(self, event: dict) -> None:
        kind = event.get("type")
        if kind not in ("job_running", "set_done", "job_done",
                        "job_failed"):
            return
        name = event.get("name") or event.get("job") or "?"
        state = self._job(name)
        if kind == "job_running":
            if not self.live:
                self._line(f"job {name}: started")
        elif kind == "set_done":
            state.sets_done += 1
            state.pivots += event.get("pivots", 0)
            state.nodes += event.get("nodes", 0)
            if not self.live:
                self._line(f"job {name}: set {event.get('set')} done")
        else:
            state.status = event.get("status",
                                     "failed" if kind == "job_failed"
                                     else "ok")
            if event.get("sets"):
                state.sets_total = event["sets"]
                state.sets_done = event["sets"]
            if event.get("worst") is not None:
                state.bound = event["worst"]
            if event.get("cache_hit"):
                state.status += " (cached)"
            if not self.live:
                bound = f" worst={state.bound}" \
                    if state.bound is not None else ""
                self._line(f"job {name}: {state.status}"
                           f" {state.sets_done} sets{bound}")

    # -- rendering -----------------------------------------------------
    def _line(self, text: str) -> None:
        try:
            self.stream.write(f"[live] {text}\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass

    def _bar(self, done: int, total: int, width: int = 22) -> str:
        if total <= 0:
            return "." * width if not done else "#" * width
        filled = min(width, int(width * done / total))
        return "#" * filled + "-" * (width - filled)

    def _summary(self) -> str:
        done = sum(1 for j in self._jobs.values()
                   if j.status != "running")
        cached = sum(1 for j in self._jobs.values()
                     if j.status.endswith("(cached)"))
        pivots = sum(j.pivots for j in self._jobs.values())
        rate = 100.0 * cached / done if done else 0.0
        return (f"{done}/{len(self._jobs)} jobs done, "
                f"{pivots:,} pivots, cache {rate:.0f}% hit, "
                f"{time.perf_counter() - self._started:.1f}s")

    def _render_lines(self) -> list[str]:
        lines = [f"repro live — {self._summary()} "
                 f"(drops {self._sub.dropped if self._sub else 0})"]
        for name in self._order:
            j = self._jobs[name]
            total = j.sets_total or max(j.sets_done, 1)
            mark = {"running": ">"}.get(j.status.split()[0], " ")
            bound = f" worst={j.bound}" if j.bound is not None else ""
            lines.append(
                f"{mark} {name:<10} [{self._bar(j.sets_done, total)}] "
                f"{j.sets_done:>3}/{j.sets_total or '?':<3} sets  "
                f"pivots {j.pivots:>8,}  nodes {j.nodes:>6,}  "
                f"{j.status}{bound}")
        lines.append(self._drops_footer())
        return lines

    def _drops_footer(self) -> str:
        """Per-subscriber drop counts — the bus-wide health line.

        ``drops: none`` is the healthy reading; otherwise each lossy
        subscriber is named so a slow consumer is attributable.
        """
        counts = self.bus.drop_counts() if hasattr(self.bus,
                                                   "drop_counts") else {}
        if not counts:
            return "drops: none"
        detail = "  ".join(f"{name}={count}"
                           for name, count in sorted(counts.items()))
        return f"drops: {sum(counts.values())} ({detail})"

    def _redraw(self, final: bool = False) -> None:
        lines = self._render_lines()
        out = []
        if self._drawn_lines:
            out.append(f"\x1b[{self._drawn_lines}F\x1b[J")
        out.extend(line + "\n" for line in lines)
        try:
            self.stream.write("".join(out))
            self.stream.flush()
        except (OSError, ValueError):
            return
        self._drawn_lines = 0 if final else len(lines)

    # -- keys ----------------------------------------------------------
    def _keys(self) -> None:
        try:
            import termios
            import tty
        except ImportError:        # non-POSIX: no keybindings
            return
        fd = sys.stdin.fileno()
        try:
            old = termios.tcgetattr(fd)
        except termios.error:
            return
        try:
            tty.setcbreak(fd)
            while not self._stop.is_set():
                import select
                ready, _, _ = select.select([fd], [], [], 0.2)
                if ready and os.read(fd, 1) in (b"q", b"Q"):
                    self._quit = True
                    self._line("dashboard hidden; run continues")
                    return
        except (OSError, ValueError):
            pass
        finally:
            try:
                termios.tcsetattr(fd, termios.TCSADRAIN, old)
            except termios.error:
                pass
