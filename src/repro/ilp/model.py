"""Problem container tying expressions to the LP/ILP solvers."""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Mapping

import numpy as np

from ..errors import ILPError, ILPTimeoutError
from . import exact, simplex
from .expr import Constraint, LinExpr, Var
from .solution import ILPResult, LPResult, Status

#: Presolve needs every coefficient and right-hand side to be an
#: integer below this magnitude: substituting through unit
#: coefficients is then integer arithmetic, exact in float and in
#: Fraction alike.
EXACT_INTEGER = 2.0 ** 53


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
        appended without mutating the problem.  This is the whole
        model, densified from the rows of :meth:`_lower_rows` without
        the presolve :class:`Polyhedron` applies.
        """
        rows, senses, rhs, index, shift = self._lower_rows(extra)
        objective, objective_shift = self._lower_objective(index, shift)
        costs = np.zeros(len(index))
        for j, coef in objective.items():
            costs[j] = coef
        return (costs, _densify(rows, range(len(index))), senses,
                np.array(rhs), list(index), np.array(shift),
                objective_shift)

    def _lower_rows(self, extra: Iterable[Constraint] = ()):
        """(rows, senses, rhs, index, shift): the constraints, then
        `extra`, then one ``<=`` row per upper-bounded variable, as
        sparse ``{column: coefficient}`` rows.  ``index`` numbers the
        variables in sorted name order and ``shift`` lists their lower
        bounds, which the rows have already subtracted."""
        index = {name: j for j, name in enumerate(sorted(self.variables))}
        shift = [self.variables[name].lower for name in index]
        shifted = any(shift)
        rows: list[dict[int, float]] = []
        senses: list[str] = []
        rhs: list[float] = []
        for constraint in chain(self.constraints, extra):
            row = {index[name]: coef
                   for name, coef in constraint.coefficients().items()}
            bound = constraint.rhs
            if shifted:
                # A constraint on x is one on y = x - lower.
                bound -= sum(coef * shift[j] for j, coef in row.items())
            rows.append(row)
            senses.append(constraint.sense)
            rhs.append(bound)
        for name, j in index.items():
            var = self.variables[name]
            if var.upper is not None:
                rows.append({j: 1.0})
                senses.append("<=")
                rhs.append(var.upper - var.lower)
        return rows, senses, rhs, index, shift

    def _lower_objective(self, index: Mapping[str, int], shift):
        """({column: cost}, objective_shift) over the columns of
        :meth:`_lower_rows`."""
        costs = {index[name]: coef
                 for name, coef in self.objective.coefs.items()}
        return costs, self.objective.const + sum(
            coef * shift[j] for j, coef in costs.items())

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve_relaxation(self, extra: Iterable[Constraint] = (),
                         engine: str = "float",
                         max_iter: int | None = None,
                         deadline: float | None = None,
                         tracer=None) -> LPResult:
        """Solve the LP relaxation (integrality dropped).

        The LP solved is the presolved one of :class:`Polyhedron`;
        the result carries a value for every variable.
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
    """A problem's constraints lowered and presolved once, with one
    simplex phase 1 shared by every objective over them.

    IPET solves a maximize (worst case) and a minimize (best case)
    over the same constraints.  Phase 1 never reads the objective, so
    both root relaxations run phase 2 from copies of one feasible
    tableau.  :meth:`relaxation` accepts any problem with the
    constraints and variables of the one lowered here.

    Presolve.  Most IPET rows are flow-conservation equalities
    (``d1 = 1``, ``x_i = d_a + d_b``, ``d_a = d_b``, ``d1 = f_1 +
    f_2``), and each costs phase 1 an artificial variable.  An
    equality row that, divided by its +-1 coefficient on a column x_j,
    reads ``x_j = b + sum a_k x_k`` with ``b >= 0`` and every
    ``a_k >= 0`` keeps x_j nonnegative wherever the other columns
    are.  x_j is then substituted out of every other row and out of
    the objective, and the row and the column are dropped.  Rows are
    scanned in lowering order, ties go to the lowest column index, and
    scans repeat until one eliminates nothing, so a problem presolves
    the same way in every process.  Rows emptied by substitution are
    dropped when they hold (and kept, for phase 1 to report
    infeasibility, when they do not).  The reduced LP is the original
    feasible set in fewer coordinates: feasibility, unboundedness and
    optimal values are unchanged, and solutions map back to every
    variable in reverse elimination order.  Presolve runs only when
    every coefficient and right-hand side is an integer below
    :data:`EXACT_INTEGER`, which makes it exact in float and in
    Fraction arithmetic; any other system is solved whole.

    Budgets count pivots of the presolved LP, and behave as if every
    solve had run its own phase 1: a solve whose ``max_iter`` the
    shared phase 1 exceeds trips as its own phase 1 would have, and a
    reusing solve's pivots continue from the shared phase 1's count.
    Its result reports only the pivots it made in ``iterations`` and
    the shared ones in ``reused``.
    """

    def __init__(self, problem: Problem, engine: str = "float",
                 extra: Iterable[Constraint] = ()):
        rows, senses, rhs, self.index, self.shift = \
            problem._lower_rows(extra)
        #: (column, constant, {column: coefficient}) per eliminated
        #: column, in elimination order.
        self.substitutions = _presolve(rows, senses, rhs, len(self.index))
        eliminated = {j for j, _, _ in self.substitutions}
        #: Original indices of the columns the LP keeps, in order.
        self.columns = [j for j in range(len(self.index))
                        if j not in eliminated]
        kept = [r for r, row in enumerate(rows) if row is not None]
        self.matrix = _densify([rows[r] for r in kept], self.columns)
        self.senses = [senses[r] for r in kept]
        self.rhs = np.array([rhs[r] for r in kept])
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
        costs, objective_shift = self._objective(problem)
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
        return LPResult(Status.OPTIMAL, result.objective + objective_shift,
                        self._postsolve(result.values), iterations, reused)

    def _objective(self, problem: Problem):
        """(costs over :attr:`columns`, objective_shift) of `problem`,
        with every eliminated column substituted out."""
        costs, objective_shift = problem._lower_objective(self.index,
                                                          self.shift)
        if self._lp is exact:
            # Fold in Fraction: a non-integral cost stays exact.
            costs = {j: exact._frac(cost) for j, cost in costs.items()}
        for j, constant, terms in self.substitutions:
            cost = costs.pop(j, 0)
            if cost:
                objective_shift += cost * constant
                for k, coef in terms.items():
                    costs[k] = costs.get(k, 0) + cost * coef
        return [costs.get(j, 0.0) for j in self.columns], objective_shift

    def _postsolve(self, lp_values: Mapping[str, float]) -> dict:
        """Every variable's value, by name, from the LP's values."""
        values = {j: lp_values[str(i)] for i, j in enumerate(self.columns)}
        for j, constant, terms in reversed(self.substitutions):
            values[j] = constant + sum(coef * values[k]
                                       for k, coef in terms.items())
        return {name: values[j] + self.shift[j]
                for name, j in self.index.items()}


def _densify(rows: list[dict[int, float]], columns) -> np.ndarray:
    """The dense matrix of sparse `rows` over `columns` (original
    column indices, in their dense order)."""
    position = {j: i for i, j in enumerate(columns)}
    matrix = np.zeros((len(rows), len(position)))
    for i, row in enumerate(rows):
        for j, coef in row.items():
            matrix[i, position[j]] = coef
    return matrix


def _presolve(rows: list, senses: list[str], rhs: list[float],
              columns: int) -> list:
    """Eliminate columns through unit-coefficient equality rows (see
    :class:`Polyhedron`), in place: dropped rows become None.

    Returns the substitutions ``(j, constant, terms)``, each meaning
    ``x_j = constant + sum(terms[k] * x_k)`` with integer ``constant
    >= 0`` and ``terms > 0``, in elimination order; a later one never
    names an earlier one's column.
    """
    numbers = set(rhs)
    for row in rows:
        numbers.update(row.values())
    if not all(float(v).is_integer() and abs(v) < EXACT_INTEGER
               for v in numbers):
        return []
    holders = [set() for _ in range(columns)]   # column -> rows naming it
    for r, row in enumerate(rows):
        for j in row:
            holders[j].add(r)
    equalities = [r for r, sense in enumerate(senses) if sense == "=="]
    substitutions = []
    progress = True
    while progress:
        progress = False
        for r in equalities:
            row = rows[r]
            if row is None:
                continue
            j = _unit_column(row, rhs[r])
            if j is None:
                continue
            sign = row.pop(j)
            constant = int(sign * rhs[r])
            terms = {k: int(-sign * coef) for k, coef in row.items()}
            rows[r] = None
            for k in row:
                holders[k].discard(r)
            for q in holders[j] - {r}:
                target = rows[q]
                scale = target.pop(j)
                rhs[q] -= scale * constant
                for k, coef in terms.items():
                    value = target.get(k, 0.0) + scale * coef
                    if value:
                        target[k] = value
                        holders[k].add(q)
                    else:
                        del target[k]
                        holders[k].discard(q)
            substitutions.append((j, constant, terms))
            progress = True
    for r, row in enumerate(rows):
        if row == {} and {"<=": rhs[r] >= 0, ">=": rhs[r] <= 0,
                          "==": rhs[r] == 0}[senses[r]]:
            rows[r] = None   # 0 (sense) rhs holds
    return substitutions


def _unit_column(row: dict[int, float], rhs: float) -> int | None:
    """The lowest column through which equality row `row` = `rhs` can
    be eliminated, if any: its coefficient is +-1, every other
    coefficient has the opposite sign, and `rhs` is 0 or has its
    sign."""
    positive = [j for j, coef in row.items() if coef > 0]
    negative = [j for j, coef in row.items() if coef < 0]
    candidates = []
    if len(positive) == 1 and row[positive[0]] == 1 and rhs >= 0:
        candidates.append(positive[0])
    if len(negative) == 1 and row[negative[0]] == -1 and rhs <= 0:
        candidates.append(negative[0])
    return min(candidates, default=None)
