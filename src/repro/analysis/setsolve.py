"""Solving one DNF constraint set as a self-contained task.

The IPET procedure solves two ILPs (worst-case maximize, best-case
minimize) per functionality constraint set and takes the max/min over
sets.  This module packages one set's worth of work as a plain-data
:class:`SetTask`.  :meth:`repro.Analysis.estimate` solves every set
with :func:`solve_set` in the process that built the analysis; the
batch engine and the service dispatch whole jobs, so every path
produces bit-identical :class:`~repro.analysis.report.SetResult`
objects.  Nothing here reads or writes a cache.

Every set of an analysis shares its base system: the structural
constraints and the loop bounds, emitted as rows by
:func:`repro.constraints.base_system`.  :class:`PresolvedBase` lowers
them over the columns of both objectives and presolves them once, and
lowers both objectives once.  A set's polyhedron extends it by the
set's own rows (:meth:`~repro.ilp.model.Polyhedron.extend`), which
gives exactly the presolve of the whole set, so :func:`solve_set`
builds no :class:`~repro.ilp.Problem`.  Both ILPs range over that
polyhedron: it runs simplex phase 1 once, the worst and best root
relaxations each run phase 2 from a copy of the feasible tableau, and
branch & bound extends it by each node's branching rows.  Phase 1
extends too.  Unless a set's presolve eliminates a column the base
keeps, the set's phase 1 appends only its own rows to the feasible
tableau of the base's, which the first such set runs, and each node's
phase 1 appends only its branching rows to its set's.  A set whose
rows name a variable outside the base is solved whole, from
:meth:`SetTask.problems`, as is every set of the ``scipy`` backend, an
independent oracle that solves each direction whole.

Refutation: extending the base by a set's rows propagates exact
integer bounds first (:attr:`~repro.ilp.model.Polyhedron.refuted`).
A set whose bounds empty has no integer point, so it is INFEASIBLE
with no LP call, no node and no pivot: its ``set.worst`` span carries
``refuted=1`` and no ``bnb`` child, and its :class:`SetResult` has
``stats.refuted``.  This is the paper's null-set pruning (§III-D)
carried past the set's own relations, to the structural constraints
and loop bounds.  The scipy oracle never refutes.

Pivot accounting: a :class:`SetResult`'s ``simplex_iterations`` are
the pivots its solves made, so the base's phase 1 counts once, in the
set that ran it: the first set that is not refuted and extends it.
Pivot budgets charge every solve the phase 1 runs it started from as
well, so where a budget trips does not depend on which set ran the
base's phase 1, and they never trip on a refuted set, which pivots
and waits on nothing.  Every field but ``wall_time`` depends
only on the analysis and the order its tasks are solved in.

Timeout semantics (engine "graceful degradation"): a task with a
``timeout`` gets a wall-clock deadline for its two ILPs together (a
refuted set runs neither, so it never times out).  If
an ILP trips the deadline, the task falls back to the LP relaxation,
which is fast and still *sound* — the relaxation maximum is an upper
bound on the integer maximum and the relaxation minimum a lower bound
on the integer minimum — and the result is marked ``timed_out`` so
reports can flag the bound as conservative rather than tight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import chain

from ..constraints import BaseSystem
from ..errors import ILPTimeoutError, UnboundedError
from ..ilp import Constraint, LinExpr, Problem, SolveStats, Status
from ..ilp.branch_bound import solve_ilp
from ..ilp.lpformat import write_lp
from ..ilp.model import Objective, Polyhedron
from .report import SetResult

#: LP engine behind each branch & bound backend.
_ENGINES = {"simplex": "float", "exact": "exact"}

_UNBOUNDED_MESSAGE = (
    "the worst-case objective is unbounded; a loop bound or "
    "functionality constraint fails to limit some count")


class PresolvedBase:
    """An analysis's base system (structural constraints and loop
    bounds) lowered over the columns of both objectives, presolved
    once, and both objectives lowered over the same columns.  The
    emitted rows are presolved with no :class:`~repro.ilp.Problem`
    (:meth:`~repro.ilp.model.Polyhedron.from_rows`), to the columns,
    rows and tie-break order a Problem of them would have.  Plain rows
    and arrays, so it pickles with each :class:`SetTask`."""

    def __init__(self, system: BaseSystem, worst_obj: LinExpr,
                 best_obj: LinExpr, engine: str):
        # Variables register as in SetTask.problems(): base rows, then
        # the objectives, whose every block count a flow row already
        # names.
        order = dict.fromkeys(chain(chain.from_iterable(system.rows),
                                    worst_obj.coefs, best_obj.coefs))
        self.polyhedron = Polyhedron.from_rows(
            system.rows, system.senses, system.rhs, order, engine)
        self.worst = Objective(worst_obj, "max", self.polyhedron.index,
                               self.polyhedron.shift, "worst")
        self.best = Objective(best_obj, "min", self.polyhedron.index,
                              self.polyhedron.shift, "best")

    def extend(self, rows: list[Constraint]) -> Polyhedron | None:
        """The polyhedron of a set with `rows`, or None when a row names
        a variable outside the base, such as a block of a function the
        entry does not reach: that set has other columns, so it is
        solved whole."""
        index = self.polyhedron.index
        if any(name not in index for row in rows for name in row.expr.coefs):
            return None
        return self.polyhedron.extend(rows)


def presolve_base(system: BaseSystem, worst_obj: LinExpr,
                  best_obj: LinExpr, backend: str) -> PresolvedBase | None:
    """The :class:`PresolvedBase` every set of an analysis solving on
    `backend` extends; None for the scipy oracle, which solves every
    set whole."""
    engine = _ENGINES.get(backend)
    return (None if engine is None
            else PresolvedBase(system, worst_obj, best_obj, engine))


@dataclass
class SetTask:
    """One constraint set's ILP work."""

    index: int
    #: The analysis's base system, shared by all its sets.
    system: BaseSystem
    resolved: list[Constraint]
    worst_obj: LinExpr
    best_obj: LinExpr
    backend: str = "simplex"
    #: Wall-clock budget in seconds for the whole set (both ILPs), or
    #: None for no limit.
    timeout: float | None = None
    #: Cumulative simplex-pivot budget per ILP, or None for no limit.
    max_iterations: int | None = None
    #: The base system presolved once for every set of the analysis
    #: (None: solve the set whole).
    presolved: PresolvedBase | None = None

    @property
    def base(self) -> list[Constraint]:
        """The base system as constraints (no simplex or exact solve
        reads them)."""
        return self.system.constraints()

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
        """Canonical LP text of both problems.  Variables and bounds
        are emitted in sorted order by
        :func:`~repro.ilp.lpformat.write_lp` and constraint order is
        deterministic, so two tasks denoting the same mathematical
        problem share a signature.  No solve path calls it; it exports
        a set for inspection and benchmarking."""
        worst, best = self.problems()
        return write_lp(worst) + "\n" + write_lp(best)


def solve_set(task: SetTask, tracer=None) -> SetResult:
    """Solve one constraint set to a :class:`SetResult`.

    The ``set.worst`` / ``set.best`` spans and the solver spans under
    them go into `tracer` (a :class:`repro.obs.Tracer`; default: none).
    """
    from ..obs.trace import NULL_TRACER, counters_from_stats

    tracer = NULL_TRACER if tracer is None else tracer
    started = time.monotonic()
    deadline = None if task.timeout is None else started + task.timeout
    result = SetResult(task.index, Status.OPTIMAL)
    engine = _ENGINES.get(task.backend)
    base = task.presolved
    polyhedron = None
    if base is not None and base.polyhedron.engine == engine:
        polyhedron = base.extend(task.resolved)
    if polyhedron is not None:
        worst_problem, best_problem = base.worst, base.best
    else:
        worst_problem, best_problem = task.problems()
        if engine is not None:
            polyhedron = Polyhedron(worst_problem, engine)

    refuted = polyhedron is not None and polyhedron.refuted
    with tracer.span("set.worst", cat="solver", set=task.index,
                     backend=task.backend) as span:
        if refuted:
            worst = _DirectionOutcome(Status.INFEASIBLE)
            span.set("refuted", 1)
        else:
            worst = _solve_direction(worst_problem, polyhedron, task,
                                     deadline, result, "worst", tracer)
        counters_from_stats(span, worst.stats)
        span.set("status", worst.status.value)
    if worst.status is Status.UNBOUNDED:
        raise UnboundedError(_UNBOUNDED_MESSAGE)
    if worst.status is Status.INFEASIBLE:
        result.status = Status.INFEASIBLE
        result.stats.refuted = refuted
        result.wall_time = time.monotonic() - started
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
    return result


class _DirectionOutcome:
    """Status + objective + values + stats of one ILP direction."""

    __slots__ = ("status", "objective", "values", "stats")

    def __init__(self, status, objective=None, values=None, stats=None):
        self.status = status
        self.objective = objective
        self.values = values or {}
        self.stats = stats or SolveStats()


def _solve_direction(problem: Problem | Objective,
                     polyhedron: Polyhedron | None,
                     task: SetTask, deadline: float | None,
                     result: SetResult, direction: str,
                     tracer=None) -> _DirectionOutcome:
    """Solve one ILP, falling back to its LP relaxation on timeout.

    `polyhedron` holds the set's presolved constraints and shared
    phase 1, and `problem` is a Problem or an Objective over it; the
    scipy oracle has no polyhedron and solves the Problem whole.
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
    result.stats.nodes_pruned += ilp.stats.nodes_pruned
    result.stats.simplex_iterations += ilp.stats.simplex_iterations
    return _DirectionOutcome(ilp.status, ilp.objective, dict(ilp.values),
                             ilp.stats)
