"""Problem container tying expressions to the LP/ILP solvers."""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..errors import ILPError, ILPTimeoutError
from . import exact, simplex
from .expr import Constraint, LinExpr, Var
from .solution import ILPResult, LPResult, Status


class Problem:
    """A (mixed-)integer linear program.

    Variables are registered explicitly with :meth:`add_var` or
    implicitly the first time they appear in a constraint or objective
    (implicit variables get the IPET defaults: integer, ``>= 0``).

    Example
    -------
    >>> p = Problem("demo")
    >>> x = p.add_var("x")
    >>> y = p.add_var("y")
    >>> p.add(x + y <= 4)
    >>> p.add(x - y <= 2)
    >>> p.maximize(3 * x + y)
    >>> result = p.solve()
    >>> result.objective
    10.0
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.variables: dict[str, Var] = {}
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense: str = "max"

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_var(self, name: str, lower: float = 0.0,
                upper: float | None = None, integer: bool = True) -> Var:
        if name in self.variables:
            return self.variables[name]
        var = Var(name, lower=lower, upper=upper, integer=integer)
        self.variables[name] = var
        return var

    def var(self, name: str) -> Var:
        return self.variables[name]

    def add(self, constraint: Constraint) -> None:
        if not isinstance(constraint, Constraint):
            raise TypeError(f"expected Constraint, got {constraint!r}")
        for name in constraint.expr.variables():
            self.add_var(name)
        self.constraints.append(constraint)

    def add_all(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add(constraint)

    def maximize(self, expr: LinExpr | Var) -> None:
        self._set_objective(expr, "max")

    def minimize(self, expr: LinExpr | Var) -> None:
        self._set_objective(expr, "min")

    def _set_objective(self, expr, sense: str) -> None:
        if isinstance(expr, Var):
            expr = expr + 0
        for name in expr.variables():
            self.add_var(name)
        self.objective = expr
        self.sense = sense

    # ------------------------------------------------------------------
    # Standard-form export
    # ------------------------------------------------------------------
    def to_arrays(self, extra: Iterable[Constraint] = ()):
        """Lower the problem to (costs, matrix, senses, rhs, order,
        shift, objective_shift).

        Variable lower bounds are shifted to zero and upper bounds
        become explicit rows, so the simplex core only ever sees
        ``x >= 0``.  ``extra`` constraints (used by branch & bound) are
        appended without mutating the problem.
        """
        matrix, senses, rhs, order, shift = self._lower_constraints(extra)
        costs, objective_shift = self._lower_objective(order, shift)
        return costs, matrix, senses, rhs, order, shift, objective_shift

    def _lower_constraints(self, extra: Iterable[Constraint] = ()):
        """(matrix, senses, rhs, order, shift) of :meth:`to_arrays`."""
        order = sorted(self.variables)
        index = {name: j for j, name in enumerate(order)}
        shift = np.array([self.variables[name].lower for name in order])

        rows: list[np.ndarray] = []
        senses: list[str] = []
        rhs: list[float] = []

        def emit(constraint: Constraint) -> None:
            row = np.zeros(len(order))
            for name, coef in constraint.coefficients().items():
                row[index[name]] = coef
            # Shift: constraint on x becomes constraint on y = x - lower.
            rows.append(row)
            senses.append("==" if constraint.sense == "==" else constraint.sense)
            rhs.append(constraint.rhs - float(row @ shift))

        for constraint in self.constraints:
            emit(constraint)
        for constraint in extra:
            emit(constraint)
        for j, name in enumerate(order):
            var = self.variables[name]
            if var.upper is not None:
                row = np.zeros(len(order))
                row[j] = 1.0
                rows.append(row)
                senses.append("<=")
                rhs.append(var.upper - var.lower)

        matrix = np.vstack(rows) if rows else np.zeros((0, len(order)))
        return matrix, senses, np.array(rhs), order, shift

    def _lower_objective(self, order: list[str], shift: np.ndarray):
        """(costs, objective_shift) of :meth:`to_arrays` over `order`."""
        index = {name: j for j, name in enumerate(order)}
        costs = np.zeros(len(order))
        for name, coef in self.objective.coefs.items():
            costs[index[name]] = coef
        objective_shift = self.objective.const + float(costs @ shift)
        return costs, objective_shift

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve_relaxation(self, extra: Iterable[Constraint] = (),
                         engine: str = "float",
                         max_iter: int | None = None,
                         deadline: float | None = None,
                         tracer=None) -> LPResult:
        """Solve the LP relaxation (integrality dropped).

        ``engine`` chooses the numeric core: ``"float"`` (NumPy
        two-phase simplex) or ``"exact"`` (Fraction arithmetic).
        ``max_iter`` / ``deadline`` (absolute :func:`time.monotonic`
        time) bound the solve; exceeding either raises
        :class:`~repro.errors.ILPTimeoutError`.  ``tracer`` (a
        :class:`repro.obs.Tracer`) makes the LP core emit phase-level
        spans with pivot counters.
        """
        return Polyhedron(self, engine, extra).relaxation(
            self, max_iter=max_iter, deadline=deadline, tracer=tracer)

    def solve(self, backend: str = "simplex",
              max_iterations: int | None = None,
              timeout: float | None = None,
              tracer=None) -> ILPResult:
        """Solve the integer program.

        ``backend`` selects ``"simplex"`` (our branch & bound over the
        from-scratch simplex, the default), ``"exact"`` (the same
        branch & bound over rational arithmetic) or ``"scipy"`` (HiGHS
        via :func:`scipy.optimize.milp`, used as a cross-check oracle).

        ``max_iterations`` caps cumulative simplex pivots and
        ``timeout`` is a wall-clock budget in seconds; exceeding either
        raises :class:`~repro.errors.ILPTimeoutError` instead of
        hanging.  Neither limit applies to the scipy oracle (HiGHS has
        its own safeguards).  ``tracer`` threads span tracing through
        the branch & bound search and the LP core.
        """
        deadline = None
        if timeout is not None:
            import time

            deadline = time.monotonic() + timeout
        if backend == "simplex":
            from .branch_bound import solve_ilp

            return solve_ilp(self, max_iterations=max_iterations,
                             deadline=deadline, tracer=tracer)
        if backend == "exact":
            from .branch_bound import solve_ilp

            return solve_ilp(self, engine="exact",
                             max_iterations=max_iterations,
                             deadline=deadline, tracer=tracer)
        if backend == "scipy":
            from .scipy_backend import solve_with_scipy

            return solve_with_scipy(self)
        raise ILPError(f"unknown backend {backend!r}")

    # ------------------------------------------------------------------
    # Utilities
    # ------------------------------------------------------------------
    def check(self, assignment: Mapping[str, float], tol: float = 1e-6) -> bool:
        """True when `assignment` satisfies every constraint and bound."""
        for name, var in self.variables.items():
            value = assignment.get(name, 0.0)
            if value < var.lower - tol:
                return False
            if var.upper is not None and value > var.upper + tol:
                return False
            if var.integer and abs(value - round(value)) > tol:
                return False
        return all(c.satisfied_by(assignment, tol) for c in self.constraints)

    def __repr__(self) -> str:
        return (f"Problem({self.name!r}, vars={len(self.variables)}, "
                f"constraints={len(self.constraints)}, sense={self.sense})")


class Polyhedron:
    """A problem's constraints lowered to arrays once, with one simplex
    phase 1 shared by every objective over them.

    IPET solves a maximize (worst case) and a minimize (best case)
    over the same constraints.  Phase 1 never reads the objective, so
    both root relaxations run phase 2 from copies of one feasible
    tableau.  :meth:`relaxation` accepts any problem with the
    constraints and variables of the one lowered here.

    Budgets behave as if every solve had run its own phase 1: a solve
    whose ``max_iter`` the shared phase 1 exceeds trips as its own
    phase 1 would have, and a reusing solve's pivots continue from the
    shared phase 1's count.  Its result reports only the pivots it
    made in ``iterations`` and the shared ones in ``reused``.
    """

    def __init__(self, problem: Problem, engine: str = "float",
                 extra: Iterable[Constraint] = ()):
        (self.matrix, self.senses, self.rhs,
         self.order, self.shift) = problem._lower_constraints(extra)
        self._lp = exact if engine == "exact" else simplex
        self._start = None

    def relaxation(self, problem: Problem, max_iter: int | None = None,
                   deadline: float | None = None,
                   tracer=None) -> LPResult:
        """`problem`'s LP relaxation, as :meth:`Problem.solve_relaxation`
        computes it, from the shared phase 1 (run now if no earlier
        solve completed it)."""
        lp = self._lp
        budget = lp.MAX_ITER if max_iter is None else max_iter
        reused = 0 if self._start is None else self._start.iterations
        if self._start is None:
            self._start = lp.phase1(self.matrix, self.senses, self.rhs,
                                    max_iter=budget, deadline=deadline,
                                    tracer=tracer)
        elif self._start.search_iterations > budget:
            # This solve's own phase 1 would have stopped there.
            raise ILPTimeoutError(
                f"simplex phase 1 exceeded {budget} iterations")
        costs, objective_shift = problem._lower_objective(self.order,
                                                          self.shift)
        try:
            result = lp.phase2(self._start, costs,
                               maximize=(problem.sense == "max"),
                               max_iter=budget, deadline=deadline,
                               tracer=tracer)
        except ILPTimeoutError as error:
            error.iterations -= reused
            raise
        iterations = result.iterations - reused
        if result.status is not Status.OPTIMAL:
            return LPResult(result.status, iterations=iterations,
                            reused=reused)
        values = {name: result.values[str(j)] + self.shift[j]
                  for j, name in enumerate(self.order)}
        return LPResult(Status.OPTIMAL, result.objective + objective_shift,
                        values, iterations, reused)
