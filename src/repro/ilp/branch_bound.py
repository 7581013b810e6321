"""Branch & bound integer solver over the two-phase simplex.

The paper observes (§III-D, §VI-A) that IPET constraint systems behave
like network-flow problems: the first LP relaxation is already integer
valued, so branch & bound terminates at the root.  This solver records
exactly that statistic (:class:`~repro.ilp.solution.SolveStats`) while
still handling the general case correctly by branching on fractional
variables.
"""

from __future__ import annotations

import math
import time

from ..errors import ILPTimeoutError
from .expr import Constraint, LinExpr
from .model import Objective, Polyhedron, Problem
from .solution import ILPResult, LPResult, SolveStats, Status

#: A value within this distance of an integer is treated as integral.
INT_TOL = 1e-6


def _fractional_var(integers: list[str], values) -> str | None:
    """Most fractional of the `integers` variables, or None if all are
    integral; ties go to the first in `integers`."""
    worst_name = None
    worst_frac = INT_TOL
    for name in integers:
        value = values.get(name, 0.0)
        frac = abs(value - round(value))
        if frac > worst_frac:
            worst_frac = frac
            worst_name = name
    return worst_name


def _rounded(integers: set[str], values) -> dict[str, float]:
    return {name: float(round(value)) if name in integers else float(value)
            for name, value in values.items()}


def solve_ilp(problem: Problem | Objective, max_nodes: int = 100_000,
              engine: str = "float",
              max_iterations: int | None = None,
              deadline: float | None = None,
              tracer=None, root: Polyhedron | None = None) -> ILPResult:
    """Solve `problem` to integer optimality by branch & bound (DFS).

    ``engine`` selects the LP core ("float" or "exact").
    ``max_iterations`` caps the *cumulative* simplex pivots across all
    nodes and ``deadline`` is an absolute :func:`time.monotonic`
    cutoff; exceeding either raises
    :class:`~repro.errors.ILPTimeoutError` instead of running on
    indefinitely.  ``tracer`` (a :class:`repro.obs.Tracer`) wraps the
    search in a span carrying node/pivot counters; the root relaxation
    additionally gets its own phase-level simplex spans.

    ``root``, a :class:`~repro.ilp.model.Polyhedron` over `problem`'s
    variables, is the root node; it defaults to ``Polyhedron(problem,
    engine)`` and its engine is the one used.  Pass one shared with
    another objective over the same constraints to run their phase 1
    once.  Every other node extends the root by its branching rows
    (:meth:`~repro.ilp.model.Polyhedron.extend`), so its presolve goes
    on from the root's and its phase 1 from the root's feasible
    tableau, and ties between equally fractional variables go to the
    first of ``root.integers``.  With a root, `problem` may be just an
    :class:`~repro.ilp.model.Objective` over its columns.

    A node whose relaxation is unbounded makes the ILP UNBOUNDED only
    if it holds an integer point, and counts as infeasible otherwise.
    An equality row whose gcd does not divide its right-hand side rules
    one out at once; else a search for one runs under the same limits,
    and on an unbounded node with no integer point it runs until one
    of them trips."""
    from ..obs.trace import NULL_TRACER

    tracer = NULL_TRACER if tracer is None else tracer
    if root is None:
        root = Polyhedron(problem, engine)
    objective = (Objective.of(problem, root) if isinstance(problem, Problem)
                 else problem)
    stats = SolveStats()
    budget = _Budget(max_nodes, max_iterations, deadline, stats)
    with tracer.span("bnb", cat="solver", problem=objective.name,
                     engine=root.engine) as span:
        try:
            result = _branch_and_bound(root, objective, budget, tracer)
        finally:
            span.set("status", "done")
            span.inc("nodes", stats.nodes)
            span.inc("nodes_pruned", stats.nodes_pruned)
            span.inc("lp_calls", stats.lp_calls)
            span.inc("pivots", stats.simplex_iterations)
    return result


class _Budget:
    """The node, pivot and wall-clock limits of one solve, shared by
    every search it runs, and the statistics they add up to."""

    def __init__(self, max_nodes: int, max_iterations: int | None,
                 deadline: float | None, stats: SolveStats):
        self.max_nodes, self.max_iterations = max_nodes, max_iterations
        self.deadline, self.stats = deadline, stats
        # Pivots charged against max_iterations: each LP's own pivots
        # plus the phase 1 runs it reused, the root's included.
        self.spent = 0

    def relax(self, node: Polyhedron, objective: Objective, tracer):
        """`node`'s LP relaxation, counted against the limits."""
        stats = self.stats
        stats.nodes += 1
        budget = (None if self.max_iterations is None
                  else self.max_iterations - self.spent)
        limit = None
        if stats.nodes > self.max_nodes:
            limit = f"{self.max_nodes} nodes"
        elif self.deadline is not None and time.monotonic() > self.deadline:
            limit = "its wall-clock deadline"
        elif budget is not None and budget <= 0:
            limit = f"{self.max_iterations} simplex iterations"
        if limit is not None:
            raise ILPTimeoutError(f"branch & bound exceeded {limit}",
                                  iterations=stats.simplex_iterations,
                                  nodes=stats.nodes)
        relax = node.relaxation(objective, max_iter=budget,
                                deadline=self.deadline, tracer=tracer)
        # A node propagation refutes reports INFEASIBLE without an LP.
        stats.lp_calls += not node.refuted
        stats.simplex_iterations += relax.iterations
        self.spent += relax.iterations + relax.reused
        return relax


def _branch_and_bound(root: Polyhedron, objective: Objective,
                      budget: _Budget, tracer, top: bool = True
                      ) -> ILPResult:
    """DFS branch & bound from `root`.  `top` is False for the search
    for an integer point in an unbounded node, which records no
    first-relaxation statistic."""
    stats = budget.stats
    maximize = objective.sense == "max"
    integers = set(root.integers)

    incumbent_obj: float | None = None
    incumbent_values: dict[str, float] | None = None

    def better(candidate: float) -> bool:
        if incumbent_obj is None:
            return True
        return candidate > incumbent_obj + INT_TOL if maximize \
            else candidate < incumbent_obj - INT_TOL

    def can_beat(bound: float) -> bool:
        if incumbent_obj is None:
            return True
        return bound > incumbent_obj + INT_TOL if maximize \
            else bound < incumbent_obj - INT_TOL

    # Each stack entry is a list of extra bound constraints.
    stack: list[list[Constraint]] = [[]]
    first = True
    while stack:
        extra = stack.pop()
        node = root if first else root.extend(extra)
        relax = budget.relax(node, objective,
                             tracer if first and top else None)
        if relax.status is Status.UNBOUNDED:
            # For rational data an unbounded relaxation makes the ILP
            # unbounded exactly when the node holds an integer point
            # (the recession directions of its integer hull are its
            # own); IPET hits this when a loop bound is missing.  Look
            # for one under a zero objective, within the same limits.
            zero = Objective(LinExpr(), "max", root.index, root.shift,
                             "integer point")
            if not node.gcd_refutes() and _branch_and_bound(
                    node, zero, budget, None, top=False
                    ).status is Status.OPTIMAL:
                return ILPResult(Status.UNBOUNDED, stats=stats)
            relax = LPResult(Status.INFEASIBLE)
        if relax.status is Status.INFEASIBLE:
            if first:
                return ILPResult(Status.INFEASIBLE, stats=stats)
            continue

        branch_var = _fractional_var(root.integers, relax.values)
        if first:
            if top:
                stats.first_relaxation_integral = branch_var is None
            first = False
        if not can_beat(relax.objective):
            stats.nodes_pruned += 1
            continue
        if branch_var is None:
            if better(relax.objective):
                incumbent_obj = relax.objective
                incumbent_values = _rounded(integers, relax.values)
                if not top:
                    break       # any integer point will do
            continue

        value = relax.values[branch_var]
        floor = math.floor(value + INT_TOL)
        expr = LinExpr({branch_var: 1.0})
        down = Constraint(expr - floor, "<=")
        up = Constraint(expr - (floor + 1), ">=")
        # DFS; explore the side closer to the fractional value first
        # (pushed last so it pops first).
        if value - floor > 0.5:
            stack.append(extra + [down])
            stack.append(extra + [up])
        else:
            stack.append(extra + [up])
            stack.append(extra + [down])

    if incumbent_obj is None:
        return ILPResult(Status.INFEASIBLE, stats=stats)
    return ILPResult(Status.OPTIMAL, incumbent_obj, incumbent_values, stats)
