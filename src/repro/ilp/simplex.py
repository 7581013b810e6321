"""Two-phase primal simplex over sparse rows, written from scratch.

This is the LP engine under the branch & bound ILP solver.  It solves

    minimize    c . x
    subject to  A x (<= | >= | ==) b,   x >= 0

with the classic tableau method, in two steps.  Phase 1 finds a
feasible basis (detecting infeasibility); it never reads the
objective, so the feasible tableau it leaves serves every objective
over the same constraints.  :func:`phase2` optimizes one objective
from a copy of that tableau (detecting unboundedness).

Phase 1 is an extension.  :func:`extend` appends rows to a feasible
tableau in canonical form: only a row that its basic solution
violates, or a ``>=`` or ``==`` row that it meets with equality, gets
an artificial variable, and phase 1 drives those to zero while the
start's own artificials may not enter.  Phase 1 of a whole
system is the extension of the :func:`empty` start by all its rows,
and :func:`solve_lp` composes that with phase 2.  IPET solves many
systems that share most of their rows, so
:class:`repro.ilp.model.Polyhedron` extends the phase 1 of an
analysis's base system by each constraint set's rows, and each set's
by each branch & bound node's branching rows, on the LP left after
presolving the flow-conservation equalities away.

Pivot selection uses Dantzig's rule and falls back to Bland's rule
after a stall threshold, which guarantees termination on the highly
degenerate flow-conservation systems IPET produces.

The tableau is sparse: a row is a ``{column: value}`` dict of its
nonzero entries.  The presolved LPs IPET solves are small and sparse
(at a pivot on perfbench's analyze inputs, a median of 16 rows by 37
columns, 10% nonzero, with two nonzeros in the pivot column), so a
pivot rewrites only the rows that name the pivot column and drops
entries that become exactly zero.
Once phase 1 is done its artificial columns can never enter again, so
their entries are dropped too: no later pivot or ratio test reads
them.  The engine needs nothing beyond the standard library.
"""

from __future__ import annotations

import time

from ..errors import ILPTimeoutError
from .solution import LPResult, Phase1Result, Status

#: Pivot/feasibility tolerance.  IPET coefficient magnitudes are modest
#: (unit flow coefficients and loop bounds), so a fixed tolerance works.
TOL = 1e-9

#: Default pivot budget of one LP.
MAX_ITER = 200_000

#: A row's sense once it is multiplied by -1.
_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


class _Tableau:
    """Mutable simplex tableau over sparse rows, with a basis.

    A pivot replaces the rows it changes by new dicts and never
    mutates a row in place, so a copy shares its rows."""

    __slots__ = ("rows", "rhs", "basis", "ncols", "iterations")

    def __init__(self, rows: list[dict[int, float]], rhs: list[float],
                 basis: list[int], ncols: int):
        self.rows = rows            # m {column: nonzero value}
        self.rhs = rhs              # m
        self.basis = basis          # m basic column indices
        self.ncols = ncols
        self.iterations = 0

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def copy(self) -> "_Tableau":
        """An independent tableau in the same state, pivot count included."""
        twin = _Tableau(list(self.rows), list(self.rhs), list(self.basis),
                        self.ncols)
        twin.iterations = self.iterations
        return twin

    def objective(self, costs: dict[int, float]) -> float:
        """``c_B . b``: the objective of the basic solution."""
        return float(sum(costs[column] * value for column, value
                         in zip(self.basis, self.rhs) if column in costs))

    def pivot(self, row: int, col: int) -> None:
        """Make `col` basic in `row` by Gaussian elimination of the
        rows that name it."""
        rows, rhs = self.rows, self.rhs
        pivot_value = rows[row][col]
        top = {j: value / pivot_value for j, value in rows[row].items()}
        top[col] = 1.0
        bound = rhs[row] = rhs[row] / pivot_value
        rows[row] = top
        for r, other in enumerate(rows):
            factor = other.get(col)
            if factor is None or r == row:
                continue
            # The pivot column becomes factor - factor * 1.0 = 0 here.
            new = dict(other)
            for j, value in top.items():
                value = new.get(j, 0.0) - factor * value
                if value:
                    new[j] = value
                else:
                    new.pop(j, None)
            rows[r] = new
            rhs[r] -= factor * bound
        self.basis[row] = col
        self.iterations += 1

    def optimize(self, costs: dict[int, float], banned: range,
                 max_iter: int, deadline: float | None = None) -> str:
        """Pivot to optimality for sparse `costs`.

        Columns in `banned` may not enter the basis (the artificial
        variables a phase keeps out).  Returns "optimal" or
        "unbounded".  `deadline` is an absolute :func:`time.monotonic`
        instant; exceeding it (checked every few pivots) raises
        :class:`~repro.errors.ILPTimeoutError`.
        """
        rows, rhs, basis = self.rows, self.rhs, self.basis
        price = costs.get
        bland_after = 4 * (len(rows) + self.ncols) + 64
        stall = 0
        while True:
            if (deadline is not None and self.iterations % 16 == 0
                    and time.monotonic() > deadline):
                raise ILPTimeoutError(
                    "simplex exceeded its wall-clock deadline",
                    iterations=self.iterations)
            # Reduced costs are costs - c_B . B, with c_B . B summed
            # over the rows in order.  Dantzig: the most negative, ties
            # to the lowest column; after the stall threshold, Bland:
            # the smallest index, anti-cycling.
            dot: dict[int, float] = {}
            accumulated = dot.get
            for entries, column in zip(rows, basis):
                cost = price(column)
                if cost:
                    for j, value in entries.items():
                        dot[j] = accumulated(j, 0.0) + cost * value
            reduced = dict(costs)
            for j, value in dot.items():
                reduced[j] = price(j, 0.0) - value
            candidates = [(value, j) for j, value in reduced.items()
                          if value < -TOL and j not in banned]
            if not candidates:
                return "optimal"
            col = (min(candidates)[1] if stall <= bland_after
                   else min(j for _, j in candidates))
            ratios = [(r, rhs[r] / entry) for r, row in enumerate(rows)
                      if (entry := row.get(col, 0.0)) > TOL]
            if not ratios:
                return "unbounded"
            best = min(ratio for _, ratio in ratios)
            limit = best + TOL
            # Tie-break by smallest basis index (part of Bland's rule).
            row = min((r for r, ratio in ratios if ratio <= limit),
                      key=basis.__getitem__)
            stall = stall + 1 if best <= TOL else 0
            self.pivot(row, col)
            if self.iterations > max_iter:
                raise ILPTimeoutError(
                    f"simplex exceeded {max_iter} iterations; "
                    "the problem is likely numerically pathological",
                    iterations=self.iterations)


def sparse_rows(matrix, columns: int) -> list[dict[int, object]]:
    """The ``{column: value}`` rows of a dense `matrix` (any sequence
    of rows) of `columns` columns; ValueError on a row of another
    length."""
    if any(len(row) != columns for row in matrix):
        raise ValueError("inconsistent LP dimensions")
    return [{j: value for j, value in enumerate(row) if value}
            for row in matrix]


def solve_lp(costs, matrix, senses, rhs, maximize: bool = False,
             max_iter: int = MAX_ITER,
             deadline: float | None = None,
             tracer=None) -> LPResult:
    """Solve an LP with nonnegative variables: phase 1 extends the
    empty start over ``len(costs)`` columns by every row, then
    :func:`phase2` runs from the tableau it leaves.

    Parameters
    ----------
    costs:
        Objective coefficients, length n.
    matrix:
        Constraint matrix, shape (m, n): a sequence of dense rows.
    senses:
        One of ``"<="``, ``">="``, ``"=="`` per row.
    rhs:
        Right-hand sides, length m.
    maximize:
        Maximize instead of minimize.
    max_iter, deadline:
        Pivot budget and absolute :func:`time.monotonic` cutoff;
        exceeding either raises :class:`~repro.errors.ILPTimeoutError`.
    tracer:
        Optional :class:`repro.obs.Tracer`; when given, phase 1 and
        phase 2 each emit a span with their pivot counts.

    Returns
    -------
    LPResult
        With ``values`` keyed by column index as strings ("0", "1", ...);
        the :mod:`repro.ilp.model` layer maps these back to variable
        names.
    """
    start = extend(empty(len(costs)), sparse_rows(matrix, len(costs)),
                   senses, rhs, max_iter=max_iter, deadline=deadline,
                   tracer=tracer)
    return phase2(start, costs, maximize=maximize, max_iter=max_iter,
                  deadline=deadline, tracer=tracer)


def empty(columns: int) -> Phase1Result:
    """The feasible start of a system of no rows over `columns`
    variables; phase 1 of any system extends it."""
    return Phase1Result(Status.OPTIMAL, 0, 0, _Tableau([], [], [], columns),
                        columns=columns, artificials=columns)


def extend(start: Phase1Result, rows, senses, rhs,
           max_iter: int = MAX_ITER, deadline: float | None = None,
           tracer=None) -> Phase1Result:
    """Phase 1 of `start`'s system cut by ``rows (senses) rhs``, where
    each of `rows` is a ``{column: coefficient}`` dict over `start`'s
    columns.

    The new rows are put in canonical form against `start`'s basis and
    then normalized to ``b >= 0``, flipping a row whose right-hand side
    is negative.  A ``<=`` row starts with its slack basic; a ``>=`` or
    ``==`` row, which the basic solution violates or meets with
    equality, gets an artificial.  Phase 1 drives those artificials to zero while
    `start`'s own may not re-enter, and pivots the ones left basic
    out.  The objective is never read, so the result serves
    :func:`phase2` for any cost vector (``status`` INFEASIBLE when the
    artificials cannot reach zero).  `start` is left untouched, and its
    pivot count carries on: ``max_iter`` trips where a phase 1 that had
    made `start`'s pivots itself would.  No rows, or an infeasible
    `start`, give `start` back.
    """
    k, n = len(rows), start.columns
    if (len(rhs) != k or len(senses) != k
            or any(not 0 <= j < n for row in rows for j in row)):
        raise ValueError("inconsistent LP dimensions")
    if k == 0 or start.status is not Status.OPTIMAL:
        return start
    if tracer is None:
        from ..obs.trace import NULL_TRACER as tracer
    old = start.tableau
    m, width = old.nrows, old.ncols
    art = start.artificials
    # `start` holds no entry in its artificial columns (see _finish),
    # so its rows keep their columns below `art` and are shared as is.
    where = {column: r for r, column in enumerate(old.basis)}

    new_rows, new_rhs, senses = [], [], list(senses)
    for i, row in enumerate(rows):
        row = {j: float(value) for j, value in row.items() if value}
        bound = float(rhs[i])
        # Canonical form: no new row names a basic column.
        hits = sorted(where[j] for j in row if j in where)
        if hits:
            dot: dict[int, float] = {}
            shift = 0.0
            for r in hits:
                factor = row[old.basis[r]]
                for j, value in old.rows[r].items():
                    dot[j] = dot.get(j, 0.0) + factor * value
                shift += factor * old.rhs[r]
            # A basic column's entry becomes exactly 0 and is dropped.
            for j, value in dot.items():
                value = row.get(j, 0.0) - value
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
            bound -= shift
        # Normalize to b >= 0.
        if bound < 0:
            row = {j: -value for j, value in row.items()}
            bound = -bound
            senses[i] = _FLIPPED[senses[i]]
        new_rows.append(row)
        new_rhs.append(bound)

    # Columns: structural | slacks/surplus | artificials, each block
    # the start's then the new rows'.
    slacks = sum(1 for s in senses if s != "==")
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    art_start = art + slacks
    new_art = art_start + width - art
    total = new_art + len(art_rows)
    basis = [b if b < art else b + slacks for b in old.basis] + [-1] * k
    col = art
    for i, sense in enumerate(senses):
        if sense == "<=":
            new_rows[i][col] = 1.0
            basis[m + i] = col
            col += 1
        elif sense == ">=":
            new_rows[i][col] = -1.0
            col += 1
    for col, i in enumerate(art_rows, start=new_art):
        new_rows[i][col] = 1.0
        basis[m + i] = col

    tab = _Tableau(old.rows + new_rows, old.rhs + new_rhs, basis, total)
    tab.iterations = start.iterations
    search = start.search_iterations
    if art_rows:
        costs = dict.fromkeys(range(new_art, total), 1.0)
        with tracer.span("simplex.phase1", cat="solver",
                         rows=m + k, cols=total) as span:
            try:
                outcome = tab.optimize(costs, range(art_start, new_art),
                                       max_iter, deadline)
            finally:
                span.inc("pivots", tab.iterations - start.iterations)
        # Phase 1 is bounded below by 0, so "unbounded" cannot happen.
        assert outcome == "optimal"
        if tab.iterations > start.iterations:
            search = tab.iterations
        if tab.objective(costs) > 1e-7:
            return Phase1Result(Status.INFEASIBLE, tab.iterations, search,
                                columns=n)
    _expel_artificials(tab, art_start)
    if art_rows:
        _finish(tab, art_start)
    return Phase1Result(Status.OPTIMAL, tab.iterations, search, tab,
                        columns=n, artificials=art_start)


def phase2(start: Phase1Result, costs, maximize: bool = False,
           max_iter: int = MAX_ITER, deadline: float | None = None,
           tracer=None) -> LPResult:
    """Optimize `costs` from a copy of phase 1's feasible tableau.

    `start` is left untouched, so one phase 1 serves any number of
    objectives.  The copy carries phase 1's pivot count: `max_iter`
    trips at the same pivot as a solve that ran its own phase 1, and
    the result's ``iterations`` include phase 1's.
    """
    if len(costs) != start.columns:
        raise ValueError("inconsistent LP dimensions")
    if start.status is not Status.OPTIMAL:
        return LPResult(start.status, iterations=start.iterations)
    if tracer is None:
        from ..obs.trace import NULL_TRACER as tracer
    sign = -1.0 if maximize else 1.0
    objective = {j: sign * float(cost) for j, cost in enumerate(costs)
                 if cost}

    tab = start.tableau.copy()
    n, total = start.columns, tab.ncols
    pivots_before = tab.iterations
    with tracer.span("simplex.phase2", cat="solver",
                     rows=tab.nrows, cols=total) as span:
        try:
            outcome = tab.optimize(objective,
                                   range(start.artificials, total),
                                   max_iter, deadline)
        finally:
            span.inc("pivots", tab.iterations - pivots_before)
    if outcome == "unbounded":
        return LPResult(Status.UNBOUNDED, iterations=tab.iterations)

    values = {str(j): 0.0 for j in range(n)}
    for row, column in enumerate(tab.basis):
        if column < n:
            values[str(column)] = float(tab.rhs[row])
    value = tab.objective(objective)
    if maximize:
        value = -value
    return LPResult(Status.OPTIMAL, value, values, tab.iterations)


def _expel_artificials(tab: _Tableau, art_start: int) -> None:
    """Pivot basic artificial variables out of the basis.

    After a feasible phase 1 every basic artificial sits at value 0.  If
    its row has a nonzero coefficient on a real column we pivot on the
    first; otherwise the row is a redundant constraint and is emptied
    (it then never constrains anything again).
    """
    for row in range(tab.nrows):
        if tab.basis[row] < art_start:
            continue
        col = min((j for j, value in tab.rows[row].items()
                   if j < art_start and abs(value) > TOL), default=None)
        if col is not None:
            tab.pivot(row, col)
        else:
            tab.rows[row] = {}
            tab.rhs[row] = 0.0
            # Leave the artificial basic at zero; its column is masked
            # off for phase 2 so it can never become positive.


def _finish(tab: _Tableau, art_start: int) -> None:
    """Drop the entries of the artificial columns, which may never
    enter again.  A pivot moves a column's entries only through that
    column's and the pivot column's, so no other entry changes."""
    rows = tab.rows
    for r, row in enumerate(rows):
        if any(j >= art_start for j in row):
            rows[r] = {j: value for j, value in row.items()
                       if j < art_start}
