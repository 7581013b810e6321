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
from .solution import ILPResult, SolveStats, Status

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
    :class:`~repro.ilp.model.Objective` over its columns."""
    from ..obs.trace import NULL_TRACER

    tracer = NULL_TRACER if tracer is None else tracer
    if root is None:
        root = Polyhedron(problem, engine)
    objective = (Objective.of(problem, root) if isinstance(problem, Problem)
                 else problem)
    stats = SolveStats()
    with tracer.span("bnb", cat="solver", problem=objective.name,
                     engine=root.engine) as span:
        try:
            result = _branch_and_bound(root, objective, max_nodes,
                                       max_iterations, deadline, stats,
                                       tracer)
        finally:
            span.set("status", "done")
            span.inc("nodes", stats.nodes)
            span.inc("nodes_pruned", stats.nodes_pruned)
            span.inc("lp_calls", stats.lp_calls)
            span.inc("pivots", stats.simplex_iterations)
    return result


def _branch_and_bound(root: Polyhedron, objective: Objective,
                      max_nodes: int, max_iterations: int | None,
                      deadline: float | None, stats: SolveStats,
                      tracer) -> ILPResult:
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
    # Pivots charged against max_iterations: each LP's own pivots
    # plus the phase 1 runs it reused, the root's included.
    spent = 0
    while stack:
        extra = stack.pop()
        stats.nodes += 1
        if stats.nodes > max_nodes:
            raise ILPTimeoutError(
                f"branch & bound exceeded {max_nodes} nodes",
                iterations=stats.simplex_iterations, nodes=stats.nodes)
        if deadline is not None and time.monotonic() > deadline:
            raise ILPTimeoutError(
                "branch & bound exceeded its wall-clock deadline",
                iterations=stats.simplex_iterations, nodes=stats.nodes)
        budget = None
        if max_iterations is not None:
            budget = max_iterations - spent
            if budget <= 0:
                raise ILPTimeoutError(
                    f"branch & bound exceeded {max_iterations} simplex "
                    "iterations",
                    iterations=stats.simplex_iterations, nodes=stats.nodes)
        node = root if first else root.extend(extra)
        relax = node.relaxation(objective, max_iter=budget,
                                deadline=deadline,
                                tracer=tracer if first else None)
        # A node propagation refutes reports INFEASIBLE without an LP.
        stats.lp_calls += not node.refuted
        stats.simplex_iterations += relax.iterations
        spent += relax.iterations + relax.reused
        if relax.status is Status.INFEASIBLE:
            if first:
                first = False
                return ILPResult(Status.INFEASIBLE, stats=stats)
            continue
        if relax.status is Status.UNBOUNDED:
            # With a feasible integer point inside an unbounded
            # polyhedron of integral recession directions, the ILP is
            # unbounded too; IPET hits this when a loop bound is missing.
            return ILPResult(Status.UNBOUNDED, stats=stats)

        branch_var = _fractional_var(root.integers, relax.values)
        if first:
            stats.first_relaxation_integral = branch_var is None
            first = False
        if not can_beat(relax.objective):
            stats.nodes_pruned += 1
            continue
        if branch_var is None:
            if better(relax.objective):
                incumbent_obj = relax.objective
                incumbent_values = _rounded(integers, relax.values)
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
