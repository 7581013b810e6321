"""Problem container tying expressions to the LP/ILP solvers."""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from typing import Iterable, Mapping

from ..errors import ILPError, ILPTimeoutError
from . import exact, simplex
from .expr import Constraint, LinExpr, Var
from .propagate import EXACT_INTEGER, FREE, inequalities, propagate
from .solution import ILPResult, LPResult, Phase1Result, Status


class _Unset:
    """A lazily computed attribute not computed yet; pickles as the
    one :data:`_UNSET`, so a pickled polyhedron computes it anew."""

    def __reduce__(self):
        return "_UNSET"


_UNSET = _Unset()


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
    def to_arrays(self):
        """Lower the problem to (costs, matrix, senses, rhs, order,
        shift, objective_shift).

        Variable lower bounds are shifted to zero and upper bounds
        become explicit rows, so the simplex core only ever sees
        ``x >= 0``.  This is the whole model, densified from the rows
        of :meth:`_lower_rows` without the presolve
        :class:`Polyhedron` applies, as NumPy arrays; NumPy is imported
        here, since no solve reads them.
        """
        import numpy as np

        rows, senses, rhs, index, shift, _ = self._lower_rows()
        objective = Objective(self.objective, self.sense, index, shift)
        costs = np.zeros(len(index))
        for j, coef in objective.costs.items():
            costs[j] = coef
        return (costs, _densify(rows, range(len(index))), senses,
                np.array(rhs), list(index), np.array(shift),
                objective.constant)

    def _lower_rows(self):
        """(rows, senses, rhs, index, shift, integers): the constraints,
        then one ``<=`` row per upper-bounded variable, as sparse
        ``{column: coefficient}`` rows over the columns and tie-break
        order of :func:`_columns`.  ``shift`` lists the variables' lower
        bounds, which the rows have already subtracted."""
        index, integers = _columns({name: var.integer for name, var
                                    in self.variables.items()})
        shift = [self.variables[name].lower for name in index]
        rows, senses, rhs = _lower(self.constraints, index, shift)
        for name, j in index.items():
            var = self.variables[name]
            if var.upper is not None:
                rows.append({j: 1.0})
                senses.append("<=")
                rhs.append(var.upper - var.lower)
        return rows, senses, rhs, index, shift, integers

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve_relaxation(self, engine: str = "float",
                         max_iter: int | None = None,
                         deadline: float | None = None,
                         tracer=None) -> LPResult:
        """Solve the LP relaxation (integrality dropped).

        The LP solved is the presolved one of :class:`Polyhedron`;
        the result carries a value for every variable.
        ``engine`` chooses the numeric core: ``"float"`` (the sparse-row
        two-phase simplex) or ``"exact"`` (Fraction arithmetic).
        ``max_iter`` / ``deadline`` (absolute :func:`time.monotonic`
        time) bound the solve; exceeding either raises
        :class:`~repro.errors.ILPTimeoutError`.  ``tracer`` (a
        :class:`repro.obs.Tracer`) makes the LP core emit phase-level
        spans with pivot counters.
        """
        return Polyhedron(self, engine).relaxation(
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


class Objective:
    """A linear objective lowered over a polyhedron's columns.

    ``costs`` maps column to coefficient and ``constant`` is the
    expression's constant plus what the lower-bound shift moves out of
    the columns, as :meth:`Problem.to_arrays` lowers them.  A
    :class:`Polyhedron` substitutes its eliminated columns out when it
    solves, so one objective serves every polyhedron over the same
    columns: IPET lowers its worst and best objectives once per
    analysis and solves every constraint set with them.
    """

    __slots__ = ("name", "sense", "costs", "constant")

    def __init__(self, expr: LinExpr, sense: str, index: Mapping[str, int],
                 shift, name: str = ""):
        self.name = name
        self.sense = sense
        self.costs = {index[var]: coef for var, coef in expr.coefs.items()}
        self.constant = expr.const + sum(
            coef * shift[j] for j, coef in self.costs.items())

    @classmethod
    def of(cls, problem: Problem, polyhedron: "Polyhedron") -> "Objective":
        """`problem`'s objective over `polyhedron`'s columns."""
        return cls(problem.objective, problem.sense, polyhedron.index,
                   polyhedron.shift, problem.name)


class Polyhedron:
    """A problem's constraints lowered and presolved, with one simplex
    phase 1 shared by every objective over them.  ``Polyhedron(problem)``
    lowers a :class:`Problem`; :meth:`from_rows` lowers ``{variable:
    coefficient}`` rows emitted elsewhere, as IPET's base system is
    emitted straight from the CFG, to the same columns and tie-break
    order (:func:`_columns`), and both presolve through one constructor.

    IPET solves a maximize (worst case) and a minimize (best case)
    over the same constraints.  Phase 1 never reads the objective, so
    both root relaxations run phase 2 from copies of one feasible
    tableau.  :meth:`relaxation` takes a :class:`Problem` with the
    constraints and variables of the one lowered here, or an
    :class:`Objective` over its columns.

    Presolve.  Most IPET rows are flow-conservation equalities
    (``d1 = 1``, ``x_i = d_a + d_b``, ``d_a = d_b``, ``d1 = f_1 +
    f_2``), and each costs phase 1 an artificial variable.  An
    equality row that, divided by its +-1 coefficient on a column x_j,
    reads ``x_j = b + sum a_k x_k`` with ``b >= 0`` and every
    ``a_k >= 0`` keeps x_j nonnegative wherever the other columns
    are.  x_j is then substituted out of every other row and out of
    the objective, and the row and the column are dropped.  A
    worklist always eliminates through the lowest-index such row,
    through its lowest such column, and rows re-enter the worklist
    when a substitution changes them, so a problem presolves the same
    way in every process.  Rows emptied by substitution are dropped
    when they hold (and kept, for phase 1 to report infeasibility,
    when they do not).  The reduced LP is the original feasible set in
    fewer coordinates: feasibility, unboundedness and optimal values
    are unchanged, and solutions map back to every variable in reverse
    elimination order.  Presolve runs only when every coefficient and
    right-hand side is an integer below :data:`EXACT_INTEGER`, which
    makes it exact in float and in Fraction arithmetic; any other
    system is solved whole.

    Extension.  :meth:`extend` adds rows to a presolved polyhedron and
    presolves on from its state: the new rows first take every
    substitution already made, in order, and then the worklist goes
    on over all rows.  Eliminating through the lowest-index row makes
    that the same as presolving all the rows at once: while a prefix
    row is eligible it is the one taken, whether or not later rows
    are present.  ``Polyhedron(problem)`` is the extension of an empty
    prefix by the problem's rows; IPET presolves an analysis's shared
    rows once and extends them by each constraint set's rows, and
    branch & bound extends a set by each node's branching rows.
    Extending by a row that is not an exact integer gives the
    unreduced system, as presolving all the rows at once would.
    Phase 1 extends too.  An extension whose presolve eliminated no
    new column keeps the columns of the polyhedron it extends and
    begins with its rows (that polyhedron is then its
    :attr:`prefix`), so its phase 1 appends just its own rows to the
    prefix's feasible tableau
    (:func:`repro.ilp.simplex.extend`); an extension by no rows
    shares the prefix's phase 1.  Any other polyhedron runs phase 1
    from the empty tableau, reading its whole matrix.  Phase 1 runs
    lazily, the prefix's first: an analysis's base runs its phase 1
    inside the first set that extends it and is not refuted, and never
    if every such set eliminates a column of its own.

    Refutation.  When every column is an integer (every variable an
    integer with an integer lower bound), an extension by one or more
    rows first propagates integer bounds
    (:mod:`repro.ilp.propagate`): its new rows, once they have taken
    the substitutions already made, tighten the integer ``[lo, hi]``
    of each kept column that the polyhedron it extends implies, and
    so does every kept row naming a column they tighten.  Those
    parent bounds are computed the first time an extension with rows
    asks for them, from the parent's own rows, or taken from the
    polyhedron it extends if it added none; an extension that
    propagated keeps the bounds it derived.  A domain that empties
    proves the extension has no integer point: it is :attr:`refuted`
    and skips the rest of its presolve, its phase 1 reports
    INFEASIBLE with zero pivots and runs no prefix's phase 1, and so
    its relaxation is INFEASIBLE even where the LP alone is not,
    which is what branch & bound needs of it.  A problem's own
    polyhedron is never refuted, so :meth:`Problem.solve_relaxation`
    stays the LP relaxation.  Propagation runs only while the presolve
    does (every row an exact integer), in Python ``int``; a visit cap
    ends it unrefuted.

    Budgets count pivots of the presolved LP, and behave as if every
    solve had run its own phase 1, its prefixes' included: a phase
    1's pivot count continues from its prefix's, a solve whose
    ``max_iter`` a shared phase 1 exceeds trips where its own would
    have, and phase 2 continues from the count of the phase 1 it
    starts from.  Trip points therefore do not depend on which solve
    ran a shared phase 1.  A result reports the pivots its solve made
    in ``iterations`` and those of the phase 1 runs it reused in
    ``reused``.  A refuted polyhedron makes and reuses none, so no
    budget trips on it.
    """

    def __init__(self, problem: Problem, engine: str = "float"):
        self._build(*problem._lower_rows(), engine)

    @classmethod
    def from_rows(cls, rows: list[dict[str, float]], senses, rhs,
                  variables: Iterable[str], engine: str = "float"):
        """The polyhedron of ``{variable: coefficient}`` rows over the
        integer `variables`, each ``>= 0`` with no upper bound, as
        IPET's base system is: that of a :class:`Problem` registering
        them in the order listed."""
        index, integers = _columns(dict.fromkeys(variables, True))
        polyhedron = cls.__new__(cls)
        polyhedron._build([{index[name]: coef for name, coef in row.items()}
                           for row in rows], senses, rhs, index,
                          [0.0] * len(index), integers, engine)
        return polyhedron

    def _build(self, rows, senses, rhs, index, shift, integers, engine):
        self.index, self.shift, self.engine = index, shift, engine
        #: Integer variables in branch & bound's tie-break order.
        self.integers = integers
        # The empty prefix: no rows, nothing eliminated.
        self._lowered: tuple[list, list, list] = ([], [], [])
        self._reducing = True
        self._parent = None
        #: Propagation proved the rows have no integer point (see the
        #: class docstring); never set on a problem's own polyhedron.
        self.refuted = False
        # Integer bounds propagate only when every column is an integer:
        # an integer variable less an integer lower bound.
        self._integral = (len(self.integers) == len(self.index) and all(
            float(lower).is_integer() for lower in self.shift))
        #: (column, constant, {column: coefficient}) per eliminated
        #: column, in elimination order.
        self.substitutions: list = []
        #: The rows the LP keeps, sparse over the original columns.
        self.rows: list[dict[int, float]] = []
        self.senses: list[str] = []
        self._rhs: list[float] = []
        self._presolve(rows, senses, rhs)

    def extend(self, constraints: Iterable[Constraint]) -> "Polyhedron":
        """A new polyhedron: this one cut by `constraints` over its
        variables, presolved on from this one's state (raises KeyError
        for a constraint naming a variable it does not have).  Unless
        its presolve eliminates a new column, its phase 1 extends this
        one's (see the class docstring).  A refuted polyhedron is its
        own extension."""
        rows, senses, rhs = _lower(constraints, self.index, self.shift)
        if self.refuted:
            return self     # no integer point, however cut
        twin = Polyhedron.__new__(Polyhedron)
        twin.__dict__.update(self.__dict__)
        twin._parent = self
        twin._presolve(rows, senses, rhs)
        return twin

    def _presolve(self, new_rows, new_senses, new_rhs) -> None:
        """Append lowered rows to the rows kept so far and presolve on
        (see the class docstring).  Never mutates state an earlier
        polyhedron shares."""
        parent = self._parent
        self._domains = self._system = _UNSET
        lowered_rows, lowered_senses, lowered_rhs = self._lowered
        self._lowered = (lowered_rows + new_rows,
                         lowered_senses + new_senses,
                         lowered_rhs + new_rhs)
        if not (self._reducing and _exact_integers(new_rows, new_rhs)):
            self._reducing, self._parent = False, None
            self.substitutions = []
            # Unreduced rows are never mutated, so they are shared.
            self.rows, self.senses, self._rhs = self._lowered
        else:
            # Kept rows name no eliminated column, so this gives the new
            # rows the substitutions made so far, in order, exactly as
            # if they had been present.
            new_rows = [dict(row) for row in new_rows]
            new_rhs = list(new_rhs)
            named = set().union(*new_rows)
            for j, constant, terms in self.substitutions:
                if j in named:
                    named.update(terms)
                    for q, row in enumerate(new_rows):
                        if j in row:
                            new_rhs[q] -= _substitute(row, j, constant,
                                                      terms)
            if parent is not None and new_rows and self._integral:
                self._propagate(parent, new_rows, new_senses, new_rhs)
            if self.refuted:
                # No integer point: the rest of the presolve is moot.
                self.rows = self.rows + new_rows
                self.senses = self.senses + new_senses
                self._rhs = self._rhs + new_rhs
            else:
                self._eliminate(new_rows, new_senses, new_rhs)
        if parent is None or self.substitutions is not parent.substitutions:
            eliminated = {j for j, _, _ in self.substitutions}
            #: Original indices of the columns the LP keeps, in order.
            self.columns = [j for j in range(len(self.index))
                            if j not in eliminated]
        #: The polyhedron whose phase 1 this one's extends: the one it
        #: extends, if this one kept its columns and its rows are a
        #: prefix of this one's (None: phase 1 starts from empty).
        self.prefix = parent if parent is not None and not self.refuted \
            and _is_prefix(parent, self) else None
        self._start = None
        self._folded: dict = {}

    def _propagate(self, parent, new_rows, new_senses, new_rhs) -> None:
        """Propagate `parent`'s integer bounds through the new rows
        (substituted, not yet appended), and through every kept row
        naming a column they tighten; no others can move the parent's
        fixpoint.  Sets :attr:`refuted` if a domain empties."""
        domains = parent._bounds()
        system = parent._rows_as_integers()
        new = inequalities(new_rows, new_senses, new_rhs)
        if domains is not None and system is not None and new is not None:
            rows, holders = system
            first = len(rows)
            holders = dict(holders)
            for r, row in enumerate(new_rows, start=first):
                for k in row:
                    holders[k] = holders.get(k, ()) + (r,)
            domains = propagate(rows + new, holders, domains,
                                range(first, first + len(new)))
        self._domains = domains
        self.refuted = domains is None

    def _eliminate(self, new_rows, new_senses, new_rhs) -> None:
        """The presolve worklist over the kept rows and the new ones
        (see the class docstring)."""
        first = len(self.rows)
        rows = [dict(row) for row in self.rows] + new_rows
        senses = self.senses + new_senses
        rhs = self._rhs + new_rhs
        holders = defaultdict(set)   # column -> rows naming it
        for r, row in enumerate(rows):
            for j in row:
                holders[j].add(r)
        # No kept row is eligible, so only the new ones can be.
        queue = [r for r in range(first, len(rows)) if senses[r] == "=="]
        queued = set(queue)
        substitutions = list(self.substitutions)
        while queue:
            r = heapq.heappop(queue)
            queued.discard(r)
            row = rows[r]
            j = _unit_column(row, rhs[r])
            if j is None:
                continue
            sign = row.pop(j)
            constant = int(sign * rhs[r])
            terms = {k: int(-sign * coef) for k, coef in row.items()}
            rows[r] = None
            for k in (*row, j):
                holders[k].discard(r)
            # x_j = constant + sum(terms[k] x_k) in every other row.
            for q in holders.pop(j, ()):
                other = rows[q]
                rhs[q] -= _substitute(other, j, constant, terms)
                for k in terms:
                    if k in other:
                        holders[k].add(q)
                    else:
                        holders[k].discard(q)
                if senses[q] == "==" and q not in queued:
                    heapq.heappush(queue, q)
                    queued.add(q)
            substitutions.append((j, constant, terms))
        kept = [r for r, row in enumerate(rows) if row is not None
                and not (row == {} and _holds(senses[r], rhs[r]))]
        self.rows = [rows[r] for r in kept]
        self.senses = [senses[r] for r in kept]
        self._rhs = [rhs[r] for r in kept]
        if len(substitutions) > len(self.substitutions):
            self.substitutions = substitutions

    def gcd_refutes(self) -> bool:
        """Is a kept row an equality over integer columns whose
        coefficients' gcd does not divide its right-hand side?  Then the
        rows have no integer point, bounded or not."""
        if not self._integral:
            return False
        for row, sense, bound in zip(self.rows, self.senses, self._rhs):
            if sense == "==" and _exact_integers([row], [bound]):
                divisor = math.gcd(*map(int, row.values()))
                if divisor and int(bound) % divisor:
                    return True
        return False

    def _rows_as_integers(self):
        """(inequalities, {column: rows naming it}) of the kept rows, as
        :func:`repro.ilp.propagate.propagate` reads them, or None when
        an entry is not an exact integer.  Built once."""
        if self._system is _UNSET:
            rows = inequalities(self.rows, self.senses, self._rhs)
            holders: dict = {}
            for r, row in enumerate(self.rows):
                for k in row:
                    holders[k] = holders.get(k, ()) + (r,)
            self._system = None if rows is None else (rows, holders)
        return self._system

    def _bounds(self):
        """(lo, hi): integer bounds of this polyhedron's columns that
        its rows imply (see :func:`repro.ilp.propagate.propagate`), or
        None when they prove it has no integer point.  An extension
        that propagated keeps what it derived; any other polyhedron
        computes them the first time an extension asks: from its
        parent's, if it added no rows, else from its own rows."""
        if self._domains is _UNSET:
            parent = self._parent
            if parent is not None and (len(self._lowered[0])
                                       == len(parent._lowered[0])):
                self._domains = parent._bounds()
            else:
                system = self._rows_as_integers()
                self._domains = FREE if system is None else propagate(
                    *system, FREE, range(len(self.rows)))
        return self._domains

    def relaxation(self, problem: "Problem | Objective",
                   max_iter: int | None = None,
                   deadline: float | None = None,
                   tracer=None) -> LPResult:
        """`problem`'s LP relaxation, as :meth:`Problem.solve_relaxation`
        computes it, from the shared phase 1 (run now if no earlier
        solve completed it)."""
        lp = exact if self.engine == "exact" else simplex
        budget = lp.MAX_ITER if max_iter is None else max_iter
        start, reused = self._phase1(lp, budget, deadline, tracer)
        if isinstance(problem, Problem):
            problem = Objective.of(problem, self)
        costs, objective_shift = self._fold(problem)
        try:
            result = lp.phase2(start,
                               [costs.get(j, 0.0) for j in self.columns],
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

    def _phase1(self, lp, budget: int, deadline: float | None, tracer):
        """(start, reused): this polyhedron's phase 1, and how many of
        its pivots earlier solves made.  Unless an earlier solve
        completed it, it runs now, extending :attr:`prefix`'s (run
        first if need be) by this polyhedron's own rows, or the empty
        start by all of them."""
        if self.refuted:
            return Phase1Result(Status.INFEASIBLE, 0, 0,
                                columns=len(self.columns)), 0
        start = self._start
        if start is not None:
            if start.search_iterations > budget:
                # This solve's own phase 1 would have stopped there.
                raise ILPTimeoutError(
                    f"simplex phase 1 exceeded {budget} iterations")
            return start, start.iterations
        if self.prefix is None:
            parent, reused, first = lp.empty(len(self.columns)), 0, 0
        else:
            parent, reused = self.prefix._phase1(lp, budget, deadline,
                                                 tracer)
            first = len(self.prefix.rows)
        position = {j: i for i, j in enumerate(self.columns)}
        rows = [{position[j]: coef for j, coef in row.items()}
                for row in self.rows[first:]]
        try:
            start = lp.extend(parent, rows, self.senses[first:],
                              self._rhs[first:], max_iter=budget,
                              deadline=deadline, tracer=tracer)
        except ILPTimeoutError as error:
            error.iterations -= reused
            raise
        self._start = start
        return start, reused

    def _fold(self, objective: Objective):
        """({column: cost}, constant) of `objective` with every
        eliminated column substituted out.  Cached per objective, and
        continued from the polyhedron this one extends, so an objective
        takes each substitution once however many polyhedra share it."""
        folded = self._folded.get(objective)
        if folded is not None:
            return folded
        if self._parent is None:
            costs, constant = objective.costs, objective.constant
            if self.engine == "exact":
                # Fold in Fraction: a non-integral cost stays exact.
                costs = {j: exact._frac(cost) for j, cost in costs.items()}
            done = 0
        else:
            costs, constant = self._parent._fold(objective)
            done = len(self._parent.substitutions)
        if done < len(self.substitutions):
            costs = dict(costs)
            for j, value, terms in self.substitutions[done:]:
                cost = costs.pop(j, 0)
                if cost:
                    constant += cost * value
                    for k, coef in terms.items():
                        costs[k] = costs.get(k, 0) + cost * coef
        folded = self._folded[objective] = (costs, constant)
        return folded

    def _postsolve(self, lp_values: Mapping[str, float]) -> dict:
        """Every variable's value, by name, from the LP's values."""
        values = {j: lp_values[str(i)] for i, j in enumerate(self.columns)}
        for j, constant, terms in reversed(self.substitutions):
            values[j] = constant + sum(coef * values[k]
                                       for k, coef in terms.items())
        return {name: values[j] + self.shift[j]
                for name, j in self.index.items()}


def _columns(registered: Mapping[str, bool]
             ) -> tuple[dict[str, int], list[str]]:
    """(index, integers) of variables listed in registration order,
    each mapped to whether it is an integer: columns go in sorted name
    order, and branch & bound breaks ties over the integer variables in
    registration order."""
    index = {name: j for j, name in enumerate(sorted(registered))}
    return index, [name for name, integer in registered.items() if integer]


def _lower(constraints: Iterable[Constraint], index: Mapping[str, int],
           shift) -> tuple[list, list, list]:
    """(rows, senses, rhs) of `constraints` as sparse ``{column:
    coefficient}`` rows over `index`, less the lower bounds `shift`."""
    shifted = any(shift)
    rows: list[dict[int, float]] = []
    senses: list[str] = []
    rhs: list[float] = []
    for constraint in constraints:
        row = {index[name]: coef
               for name, coef in constraint.coefficients().items()}
        bound = constraint.rhs
        if shifted:
            # A constraint on x is one on y = x - lower.
            bound -= sum(coef * shift[j] for j, coef in row.items())
        rows.append(row)
        senses.append(constraint.sense)
        rhs.append(bound)
    return rows, senses, rhs


def _densify(rows: list[dict[int, float]], columns):
    """The dense NumPy matrix of sparse `rows` over `columns` (original
    column indices, in their dense order), for :meth:`Problem.to_arrays`
    and the scipy oracle; no solve reads it."""
    import numpy as np

    position = {j: i for i, j in enumerate(columns)}
    matrix = np.zeros((len(rows), len(position)))
    for i, row in enumerate(rows):
        for j, coef in row.items():
            matrix[i, position[j]] = coef
    return matrix


def _is_prefix(parent: Polyhedron, child: Polyhedron) -> bool:
    """`child` keeps `parent`'s columns and begins with its rows."""
    k = len(parent.rows)
    return (child.columns == parent.columns
            and child.rows[:k] == parent.rows
            and child.senses[:k] == parent.senses
            and child._rhs[:k] == parent._rhs)


def _exact_integers(rows: list[dict[int, float]], rhs: list[float]) -> bool:
    """Every coefficient and right-hand side is an integer below
    :data:`EXACT_INTEGER`: the presolve may run."""
    numbers = set(rhs)
    for row in rows:
        numbers.update(row.values())
    return all(float(v).is_integer() and abs(v) < EXACT_INTEGER
               for v in numbers)


def _substitute(row: dict, j: int, constant, terms: dict):
    """Put x_j = constant + sum(terms[k] x_k) into `row`, in place;
    returns what the row's right-hand side loses."""
    scale = row.pop(j)
    for k, coef in terms.items():
        value = row.get(k, 0.0) + scale * coef
        if value:
            row[k] = value
        else:
            del row[k]
    return scale * constant


def _holds(sense: str, rhs: float) -> bool:
    """``0 (sense) rhs``: an emptied row that constrains nothing."""
    return {"<=": rhs >= 0, ">=": rhs <= 0, "==": rhs == 0}[sense]


def _unit_column(row: dict[int, float], rhs: float) -> int | None:
    """The lowest column through which equality row `row` = `rhs` can
    be eliminated, if any: its coefficient is +-1, every other
    coefficient has the opposite sign, and `rhs` is 0 or has its
    sign."""
    plus = minus = None     # the one column of each sign; -1: none fits
    for j, coef in row.items():
        if coef > 0:
            plus = j if plus is None and coef == 1 else -1
        elif coef < 0:
            minus = j if minus is None and coef == -1 else -1
    if plus is None or plus < 0 or rhs < 0:
        plus = None
    if minus is None or minus < 0 or rhs > 0:
        return plus
    return minus if plus is None else min(plus, minus)
