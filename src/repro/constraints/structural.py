"""The base system of an analysis, read off the CFGs (paper §III-B).

Each block's count is its flow in and its flow out, ``x_i = sum(d_in) =
sum(d_out)``; a callee's entry edge count is the sum of its call
sites' f-edge counts (eq. 12), the entry routine's is one (eq. 13).  A
loop whose body runs ``lo..hi`` times per entry takes its back edges
that often: ``sum(back) >= lo * sum(entry)`` and ``sum(back) <= hi *
sum(entry)``, eqs. 14-15 for any loop shape.

:func:`base_system` emits these as named sparse rows ``{variable:
coefficient} (sense) rhs``, which :class:`~repro.ilp.model.Polyhedron`
presolves with no :class:`~repro.ilp.LinExpr` or
:class:`~repro.ilp.Problem`.  The presolve and branch & bound's
tie-breaks follow the row order.  Merged mode: the flow rows of each
function in :meth:`~repro.cfg.CallGraph.reachable_from` order, then
``entry f`` and one ``link g`` per callee.  Context-sensitive mode:
per :func:`~repro.cfg.expand_contexts` instance, its flow rows, then
its unnamed link to its call site.  Then ``loop f:12 lo`` and ``hi``
per loop in ``(function, line)`` order, per scope.  A flow row lists
the block count, then its edges in CFG order; a loop row its back
edges, then its entry edges (none for a bound of 0).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cfg import CFG, CallGraph, Loop
from ..errors import AnalysisError
from ..ilp import Constraint, LinExpr
from .names import prefix, qualified


@dataclass(frozen=True)
class LoopBound:
    """User-supplied iteration bound for one loop."""

    lo: int
    hi: int

    def __post_init__(self):
        if self.lo < 0 or self.hi < self.lo:
            raise AnalysisError(
                f"bad loop bound [{self.lo}, {self.hi}]")


class BaseSystem:
    """Named sparse rows ``sum coef * var (sense) rhs`` in emission
    order; plain lists, so it pickles with the tasks that share it."""

    __slots__ = ("names", "rows", "senses", "rhs", "_constraints")

    def __init__(self):
        self.names: list[str] = []
        self.rows: list[dict[str, float]] = []
        self.senses: list[str] = []
        self.rhs: list[float] = []
        self._constraints: list[Constraint] | None = None

    def add(self, name: str, row: dict[str, float], sense: str,
            rhs: float) -> None:
        self.names.append(name)
        self.rows.append(row)
        self.senses.append(sense)
        self.rhs.append(rhs)

    def __len__(self) -> int:
        return len(self.rows)

    def constraints(self) -> list[Constraint]:
        """The rows as constraints, built the first time one asks."""
        if self._constraints is None:
            self._constraints = [
                Constraint(LinExpr(row, -rhs), sense, name)
                for name, row, sense, rhs in zip(
                    self.names, self.rows, self.senses, self.rhs)]
        return self._constraints

    def _flow(self, scope: str, cfg: CFG) -> None:
        """``x_i = sum(in)`` and ``x_i = sum(out)`` of every block."""
        start = prefix(scope)
        for block_id in sorted(cfg.blocks):
            x = f"{start}x{block_id}"
            for side, edges in (("in", cfg.in_edges(block_id)),
                                ("out", cfg.out_edges(block_id))):
                row = {x: 1.0}
                for edge in edges:
                    row[start + edge.name] = -1.0
                self.add(f"flow {scope}:x{block_id} {side}", row, "==", 0.0)


def base_system(callgraph: CallGraph, entry: str, instances=None,
                loops: list[tuple[Loop, LoopBound]] = ()) -> BaseSystem:
    """The base system of the routine `entry`: flow rows, call links,
    ``d1 = 1`` and the rows of `loops`, ``(loop, bound)`` pairs in
    ``(function, line)`` order.  Merged mode, or context-sensitive over
    `instances` (:func:`~repro.cfg.expand_contexts`) when given."""
    system = BaseSystem()
    cfgs = callgraph.cfgs
    scopes: dict[str, list[str]] = {}
    if instances is None:
        reachable = callgraph.reachable_from(entry)
        for name in reachable:
            system._flow(name, cfgs[name])
            scopes[name] = [name]
        for name in reachable:
            row = {qualified(name, cfgs[name].entry_edge.name): 1.0}
            if name == entry:
                system.add(f"entry {name}", row, "==", 1.0)
                continue
            for caller, edge in callgraph.callers_of(name):
                if caller in scopes:
                    row[qualified(caller, edge.name)] = -1.0
            system.add(f"link {name}", row, "==", 0.0)
    else:
        for instance in instances.values():
            cfg = cfgs[instance.function]
            system._flow(instance.id, cfg)
            row = {qualified(instance.id, cfg.entry_edge.name): 1.0}
            if instance.parent is None:
                system.add("", row, "==", 1.0)
            else:
                row[qualified(instance.parent, instance.via.name)] = -1.0
                system.add("", row, "==", 0.0)
            scopes.setdefault(instance.function, []).append(instance.id)
        for ids in scopes.values():
            ids.sort()
    for loop, bound in loops:
        where = f"{loop.function}:{loop.header_line}"
        for scope in scopes[loop.function]:
            start = prefix(scope)
            for side, sense, factor in (("lo", ">=", bound.lo),
                                        ("hi", "<=", bound.hi)):
                row = {start + edge.name: 1.0 for edge in loop.back_edges}
                if factor:
                    for edge in loop.entry_edges:
                        row[start + edge.name] = -float(factor)
                system.add(f"loop {where} {side}", row, sense, 0.0)
    return system
