"""The cluster flight recorder: trace reassembly.

Span records stamped with a :class:`~repro.obs.context.TraceContext`
(``record["trace"]``) may come from the submitting client, the owning
replica's scheduler, a peer replica that stole the job, and that
peer's pool workers — four processes on up to two hosts.
:func:`assemble_trees` groups any mix of raw tracer records and Chrome
``"X"`` events by trace id and nests each (pid, tid) lane's spans by
interval containment, yielding **one tree per job** no matter where
its pieces ran.  :func:`orphan_spans` is the test hook for the
invariant that stealing must not break: every span of a job carries
the submitter's trace id.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SpanNode:
    """One span in a reassembled tree."""

    name: str
    cat: str
    ts: float                     # seconds (epoch)
    dur: float                    # seconds
    pid: int
    tid: int
    args: dict
    trace: str | None = None
    parent_span: str | None = None
    children: list = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.ts + self.dur


def _normalize(event: dict) -> SpanNode | None:
    """A :class:`SpanNode` from a raw tracer record *or* a Chrome
    ``"X"`` event (µs timestamps); None for non-span events."""
    if event.get("ph") == "X":
        return SpanNode(
            name=event.get("name", "?"), cat=event.get("cat", "?"),
            ts=float(event.get("ts", 0.0)) / 1e6,
            dur=float(event.get("dur", 0.0)) / 1e6,
            pid=event.get("pid", 0), tid=event.get("tid", 0),
            args=event.get("args") or {},
            trace=event.get("trace"), parent_span=event.get("parent"))
    if event.get("ph"):                      # metadata / other phases
        return None
    if "name" not in event or "ts" not in event:
        return None
    return SpanNode(
        name=event["name"], cat=event.get("cat", "?"),
        ts=float(event["ts"]), dur=float(event.get("dur", 0.0)),
        pid=event.get("pid", 0), tid=event.get("tid", 0),
        args=event.get("args") or {},
        trace=event.get("trace"), parent_span=event.get("parent"))


def group_by_trace(events) -> dict:
    """``{trace_id or None: [SpanNode, ...]}`` for a mixed event list."""
    groups: dict = {}
    for event in events:
        node = _normalize(event)
        if node is None:
            continue
        groups.setdefault(node.trace, []).append(node)
    return groups


def build_tree(nodes: list[SpanNode]) -> list[SpanNode]:
    """Nest one group's spans by interval containment per (pid, tid).

    Returns the roots in start order.  Containment — not recorded
    depth — is the nesting rule, because spans of one job arrive from
    several tracers whose depth counters are independent.
    """
    lanes: dict = {}
    for node in nodes:
        lanes.setdefault((node.pid, node.tid), []).append(node)
    roots: list[SpanNode] = []
    for lane in lanes.values():
        # Parents start no later and end no earlier than children;
        # sorting by (start, -duration) visits parents first.
        lane.sort(key=lambda n: (n.ts, -n.dur))
        stack: list[SpanNode] = []
        for node in lane:
            while stack and node.ts >= stack[-1].end:
                stack.pop()
            if stack:
                stack[-1].children.append(node)
            else:
                roots.append(node)
            stack.append(node)
    roots.sort(key=lambda n: n.ts)
    return roots


def assemble_trees(events) -> dict:
    """One tree per trace id from a mixed pile of span events.

    Returns ``{trace_id or None: {"roots": [...], "spans": N}}`` —
    the flight recorder's answer to "show me job X", regardless of
    which replica or process ran which piece.
    """
    return {trace: {"roots": build_tree(nodes), "spans": len(nodes)}
            for trace, nodes in group_by_trace(events).items()}


def orphan_spans(events, trace_id: str) -> list[SpanNode]:
    """Spans that should belong to `trace_id` but don't carry it.

    The stolen-job invariant: after a peer completes, *zero* of the
    job's spans are orphans — they all journal home under the
    submitter's trace id.
    """
    return [node for nodes in group_by_trace(events).values()
            for node in nodes if node.trace != trace_id]


def render_tree(roots: list[SpanNode], indent: int = 0) -> list[str]:
    """Human-readable lines for one reassembled tree."""
    lines = []
    for node in roots:
        lines.append(f"{'  ' * indent}{node.cat}:{node.name} "
                     f"{node.dur * 1e3:.2f}ms "
                     f"(pid {node.pid})")
        lines.extend(render_tree(node.children, indent + 1))
    return lines
