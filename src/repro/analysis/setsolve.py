"""Solving one DNF constraint set as a self-contained, picklable task.

The IPET procedure solves two ILPs (worst-case maximize, best-case
minimize) per functionality constraint set and takes the max/min over
sets — an embarrassingly parallel workload.  This module packages one
set's worth of work as a :class:`SetTask` that can cross a process
boundary, so the serial path in :meth:`repro.Analysis.estimate`, its
``parallel=`` fan-out, and the batch engine in :mod:`repro.engine` all
run the exact same function and produce bit-identical
:class:`~repro.analysis.report.SetResult` objects.

Both ILPs range over one polyhedron, so a set is lowered to arrays
once and runs simplex phase 1 once (:class:`~repro.ilp.model.Polyhedron`);
the worst and best root relaxations each run phase 2 from a copy of
the feasible tableau, and branch & bound goes on from there.  The
``scipy`` backend, an independent oracle, solves each direction whole.

Timeout semantics (engine "graceful degradation"): a task with a
``timeout`` gets a wall-clock deadline for its two ILPs together.  If
an ILP trips the deadline, the task falls back to the LP relaxation,
which is fast and still *sound* — the relaxation maximum is an upper
bound on the integer maximum and the relaxation minimum a lower bound
on the integer minimum — and the result is marked ``timed_out`` so
reports can flag the bound as conservative rather than tight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..errors import ILPTimeoutError, UnboundedError
from ..ilp import Constraint, LinExpr, Problem, Status
from ..ilp.branch_bound import solve_ilp
from ..ilp.lpformat import write_lp
from ..ilp.model import Polyhedron
from .report import SetResult

#: LP engine behind each branch & bound backend.
_ENGINES = {"simplex": "float", "exact": "exact"}

_UNBOUNDED_MESSAGE = (
    "the worst-case objective is unbounded; a loop bound or "
    "functionality constraint fails to limit some count")


@dataclass
class SetTask:
    """One constraint set's ILP work, ready to ship to a worker."""

    index: int
    base: list[Constraint]
    resolved: list[Constraint]
    worst_obj: LinExpr
    best_obj: LinExpr
    backend: str = "simplex"
    #: Wall-clock budget in seconds for the whole set (both ILPs), or
    #: None for no limit.
    timeout: float | None = None
    #: Cumulative simplex-pivot budget per ILP, or None for no limit.
    max_iterations: int | None = None
    #: Capture solver spans while solving; they come back in
    #: :attr:`SetResult.spans` (picklable, so this survives the trip
    #: through a process-pool worker).  Polymorphic like the engine
    #: payload: falsy disables tracing, ``True`` traces anonymously,
    #: and a :class:`~repro.obs.context.TraceContext` dict stamps
    #: every span with the job's distributed trace id.
    trace: object = False

    def problems(self) -> tuple[Problem, Problem]:
        """(worst maximize, best minimize) over the same constraints
        and variables: each also knows the other objective's variables,
        so both lower to one polyhedron."""
        worst = Problem(f"set{self.index}:worst")
        worst.add_all(self.base)
        worst.add_all(self.resolved)
        worst.maximize(self.worst_obj)
        best = Problem(f"set{self.index}:best")
        best.add_all(self.base)
        best.add_all(self.resolved)
        best.minimize(self.best_obj)
        for name in self.best_obj.variables():
            worst.add_var(name)
        for name in self.worst_obj.variables():
            best.add_var(name)
        return worst, best

    def signature(self) -> str:
        """Canonical LP text of both problems — the content-addressed
        part of the engine's cache key.  Variables and bounds are
        emitted in sorted order by :func:`~repro.ilp.lpformat.write_lp`
        and constraint order is deterministic, so two tasks denoting
        the same mathematical problem share a signature."""
        worst, best = self.problems()
        return write_lp(worst) + "\n" + write_lp(best)

    def budget_key(self) -> str:
        """The solver-budget part of the cache key.

        Two runs of the same mathematical problem under different
        timeout / pivot budgets can produce different (still sound)
        bounds — a timed-out run degrades to its LP relaxation — so
        budgets must participate in content addressing alongside the
        LP text."""
        return (f"timeout={self.timeout!r}|"
                f"max_iterations={self.max_iterations!r}")


def solve_set(task: SetTask) -> SetResult:
    """Solve one constraint set to a :class:`SetResult`.

    Runs in the calling process or a pool worker; everything it needs
    travels inside `task`.
    """
    from ..obs.trace import NULL_TRACER, Tracer, counters_from_stats

    tracer = NULL_TRACER
    if task.trace:
        context = None
        if isinstance(task.trace, dict):
            from ..obs.context import TraceContext

            context = TraceContext.from_dict(task.trace)
        tracer = Tracer(context=context)
    started = time.monotonic()
    deadline = None if task.timeout is None else started + task.timeout
    result = SetResult(task.index, Status.OPTIMAL)
    worst_problem, best_problem = task.problems()
    engine = _ENGINES.get(task.backend)
    polyhedron = (None if engine is None
                  else Polyhedron(worst_problem, engine))

    with tracer.span("set.worst", cat="solver", set=task.index,
                     backend=task.backend) as span:
        worst = _solve_direction(worst_problem, polyhedron, task, deadline,
                                 result, "worst", tracer)
        counters_from_stats(span, worst.stats)
        span.set("status", worst.status.value)
    if worst.status is Status.UNBOUNDED:
        raise UnboundedError(_UNBOUNDED_MESSAGE)
    if worst.status is Status.INFEASIBLE:
        result.status = Status.INFEASIBLE
        result.wall_time = time.monotonic() - started
        result.spans = tracer.records()
        return result
    result.worst = worst.objective
    result.worst_counts = worst.values
    result.stats.first_relaxation_integral = \
        worst.stats.first_relaxation_integral

    with tracer.span("set.best", cat="solver", set=task.index,
                     backend=task.backend) as span:
        best = _solve_direction(best_problem, polyhedron, task, deadline,
                                result, "best", tracer)
        counters_from_stats(span, best.stats)
        span.set("status", best.status.value)
    if best.status is Status.UNBOUNDED:  # pragma: no cover - defensive
        raise UnboundedError(_UNBOUNDED_MESSAGE)
    # Minimizing over the same nonempty polyhedron, bounded below by
    # x >= 0, cannot be infeasible or unbounded when maximizing was
    # feasible — unless the timed-out relaxation path got here.
    assert best.status is Status.OPTIMAL
    result.best = best.objective
    result.best_counts = best.values
    result.stats.first_relaxation_integral = (
        result.stats.first_relaxation_integral
        and best.stats.first_relaxation_integral)
    result.wall_time = time.monotonic() - started
    result.spans = tracer.records()
    return result


class _DirectionOutcome:
    """Status + objective + values + stats of one ILP direction."""

    __slots__ = ("status", "objective", "values", "stats")

    def __init__(self, status, objective=None, values=None, stats=None):
        self.status = status
        self.objective = objective
        self.values = values or {}
        self.stats = stats or _zero_stats()


def _zero_stats():
    from ..ilp import SolveStats

    return SolveStats()


def _solve_direction(problem: Problem, polyhedron: Polyhedron | None,
                     task: SetTask, deadline: float | None,
                     result: SetResult, direction: str,
                     tracer=None) -> _DirectionOutcome:
    """Solve one ILP, falling back to its LP relaxation on timeout.

    `polyhedron` holds the set's lowered constraints and shared
    phase 1 (None for the scipy oracle, which solves `problem` whole).
    ``direction`` ("worst" | "best") labels which bound this is so the
    degradation flag lands on the right :class:`SetResult` field.
    """
    if polyhedron is None:
        ilp = problem.solve(backend=task.backend)
    else:
        try:
            # An expired deadline makes the solver raise on its first
            # check rather than burn the other set's budget.
            ilp = solve_ilp(problem, engine=_ENGINES[task.backend],
                            max_iterations=task.max_iterations,
                            deadline=deadline, tracer=tracer,
                            root=polyhedron)
        except ILPTimeoutError as error:
            result.timed_out = True
            setattr(result, f"{direction}_relaxed", True)
            result.stats.lp_calls += 1
            result.stats.simplex_iterations += error.iterations
            result.stats.nodes += error.nodes
            relax = polyhedron.relaxation(problem, tracer=tracer)
            result.stats.lp_calls += 1
            result.stats.simplex_iterations += relax.iterations
            return _DirectionOutcome(relax.status, relax.objective,
                                     dict(relax.values))
    result.stats.lp_calls += ilp.stats.lp_calls
    result.stats.nodes += ilp.stats.nodes
    result.stats.simplex_iterations += ilp.stats.simplex_iterations
    return _DirectionOutcome(ilp.status, ilp.objective, dict(ilp.values),
                             ilp.stats)
