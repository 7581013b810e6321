"""Dense two-phase primal simplex, written from scratch.

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

The tableau is dense NumPy, but IPET constraint matrices are sparse.
In the unreduced system a flow-conservation row names one block and
its edges, and a pivot column is nonzero in about one row in seven.
The presolved tableaux the solver actually sees are about six times
smaller and still sparse, at about one row in six.
:meth:`_Tableau.pivot` eliminates the pivot column only from the
rows where it is nonzero.
"""

from __future__ import annotations

import time

import numpy as np

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
    """Mutable simplex tableau with a basis."""

    def __init__(self, body: np.ndarray, rhs: np.ndarray, basis: list[int]):
        self.body = body            # m x ncols
        self.rhs = rhs              # m
        self.basis = basis          # m basic column indices
        self.iterations = 0

    @property
    def nrows(self) -> int:
        return self.body.shape[0]

    @property
    def ncols(self) -> int:
        return self.body.shape[1]

    def reduced_costs(self, costs: np.ndarray) -> tuple[np.ndarray, float]:
        """Reduced cost row and current objective for cost vector `costs`."""
        cb = costs[self.basis]
        reduced = costs - cb @ self.body
        objective = float(cb @ self.rhs)
        return reduced, objective

    def copy(self) -> "_Tableau":
        """An independent tableau in the same state, pivot count included."""
        twin = _Tableau(self.body.copy(), self.rhs.copy(), list(self.basis))
        twin.iterations = self.iterations
        return twin

    def pivot(self, row: int, col: int) -> None:
        """Make `col` basic in `row` by Gaussian elimination."""
        body, rhs = self.body, self.rhs
        pivot_value = body[row, col]
        body[row] /= pivot_value
        rhs[row] /= pivot_value
        # Eliminate the pivot column with a rank-1 update of the rows
        # that have it; a row with a zero there would subtract zeros.
        rows = np.flatnonzero(body[:, col])
        rows = rows[rows != row]
        factors = body[rows, col]
        body[rows] -= np.outer(factors, body[row])
        rhs[rows] -= factors * rhs[row]
        body[:, col] = 0.0
        body[row, col] = 1.0
        self.basis[row] = col
        self.iterations += 1

    def optimize(self, costs: np.ndarray, allowed: np.ndarray,
                 max_iter: int, deadline: float | None = None) -> str:
        """Pivot to optimality for `costs`.

        `allowed` masks columns that may enter the basis (used to keep
        artificial variables out during phase 2).  Returns "optimal" or
        "unbounded".  `deadline` is an absolute :func:`time.monotonic`
        instant; exceeding it (checked every few pivots) raises
        :class:`~repro.errors.ILPTimeoutError`.
        """
        bland_after = 4 * (self.nrows + self.ncols) + 64
        stall = 0
        while True:
            if (deadline is not None and self.iterations % 16 == 0
                    and time.monotonic() > deadline):
                raise ILPTimeoutError(
                    "simplex exceeded its wall-clock deadline",
                    iterations=self.iterations)
            reduced, _ = self.reduced_costs(costs)
            candidates = np.flatnonzero((reduced < -TOL) & allowed)
            if candidates.size == 0:
                return "optimal"
            if stall <= bland_after:
                # Dantzig: most negative reduced cost.
                col = int(candidates[np.argmin(reduced[candidates])])
            else:
                # Bland: smallest index, anti-cycling.
                col = int(candidates[0])
            column = self.body[:, col]
            rows = np.flatnonzero(column > TOL)
            if rows.size == 0:
                return "unbounded"
            ratios = self.rhs[rows] / column[rows]
            best = ratios.min()
            ties = rows[np.flatnonzero(ratios <= best + TOL)]
            # Tie-break by smallest basis index (part of Bland's rule).
            row = int(min(ties, key=lambda r: self.basis[r]))
            degenerate = best <= TOL
            stall = stall + 1 if degenerate else 0
            self.pivot(row, col)
            if self.iterations > max_iter:
                raise ILPTimeoutError(
                    f"simplex exceeded {max_iter} iterations; "
                    "the problem is likely numerically pathological",
                    iterations=self.iterations)


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
        Constraint matrix, shape (m, n).
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
    start = extend(empty(len(costs)), matrix, senses, rhs,
                   max_iter=max_iter, deadline=deadline, tracer=tracer)
    return phase2(start, costs, maximize=maximize, max_iter=max_iter,
                  deadline=deadline, tracer=tracer)


def empty(columns: int) -> Phase1Result:
    """The feasible start of a system of no rows over `columns`
    variables; phase 1 of any system extends it."""
    tableau = _Tableau(np.zeros((0, columns)), np.zeros(0), [])
    return Phase1Result(Status.OPTIMAL, 0, 0, tableau, columns=columns,
                        artificials=columns)


def extend(start: Phase1Result, matrix, senses, rhs,
           max_iter: int = MAX_ITER, deadline: float | None = None,
           tracer=None) -> Phase1Result:
    """Phase 1 of `start`'s system cut by ``matrix x (senses) rhs``.

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
    matrix = np.asarray(matrix, dtype=float)
    rhs = np.array(rhs, dtype=float)
    k, n = len(rhs), start.columns
    if matrix.size == 0:
        matrix = matrix.reshape(k, n)
    if matrix.shape != (k, n) or len(senses) != k:
        raise ValueError("inconsistent LP dimensions")
    if k == 0 or start.status is not Status.OPTIMAL:
        return start
    if tracer is None:
        from ..obs.trace import NULL_TRACER as tracer
    old = start.tableau
    m, width = old.body.shape
    art = start.artificials

    # Canonical form: no new row names a basic column.
    rows = np.zeros((k, width))
    rows[:, :n] = matrix
    if m:
        factors = rows[:, old.basis]
        rows -= factors @ old.body
        rhs -= factors @ old.rhs
        rows[:, old.basis] = 0.0
    # Normalize to b >= 0.
    senses = list(senses)
    for i in np.flatnonzero(rhs < 0):
        rows[i] *= -1
        rhs[i] *= -1
        senses[i] = _FLIPPED[senses[i]]

    # Columns: structural | slacks/surplus | artificials, each block
    # the start's then the new rows'.
    slacks = sum(1 for s in senses if s != "==")
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    art_start = art + slacks
    new_art = art_start + width - art
    total = new_art + len(art_rows)
    body = np.zeros((m + k, total))
    body[:m, :art] = old.body[:, :art]
    body[:m, art_start:new_art] = old.body[:, art:]
    body[m:, :art] = rows[:, :art]
    body[m:, art_start:new_art] = rows[:, art:]
    basis = [b if b < art else b + slacks for b in old.basis] + [-1] * k
    col = art
    for i, sense in enumerate(senses, start=m):
        if sense == "<=":
            body[i, col] = 1.0
            basis[i] = col
            col += 1
        elif sense == ">=":
            body[i, col] = -1.0
            col += 1
    for col, i in enumerate(art_rows, start=new_art):
        body[m + i, col] = 1.0
        basis[m + i] = col
    assert all(b >= 0 for b in basis)

    tab = _Tableau(body, np.concatenate([old.rhs, rhs]), basis)
    tab.iterations = start.iterations
    search = start.search_iterations
    if art_rows:
        costs = np.zeros(total)
        costs[new_art:] = 1.0
        allowed = np.ones(total, dtype=bool)
        allowed[art_start:new_art] = False
        with tracer.span("simplex.phase1", cat="solver",
                         rows=m + k, cols=total) as span:
            try:
                outcome = tab.optimize(costs, allowed, max_iter, deadline)
            finally:
                span.inc("pivots", tab.iterations - start.iterations)
        # Phase 1 is bounded below by 0, so "unbounded" cannot happen.
        assert outcome == "optimal"
        if tab.iterations > start.iterations:
            search = tab.iterations
        _, artificial_sum = tab.reduced_costs(costs)
        if artificial_sum > 1e-7:
            return Phase1Result(Status.INFEASIBLE, tab.iterations, search,
                                columns=n)
    _expel_artificials(tab, art_start)
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
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (start.columns,):
        raise ValueError("inconsistent LP dimensions")
    if start.status is not Status.OPTIMAL:
        return LPResult(start.status, iterations=start.iterations)
    if tracer is None:
        from ..obs.trace import NULL_TRACER as tracer
    if maximize:
        costs = -costs

    tab = start.tableau.copy()
    n, total = start.columns, tab.ncols
    allowed = np.ones(total, dtype=bool)
    allowed[start.artificials:] = False
    objective = np.zeros(total)
    objective[:n] = costs
    pivots_before = tab.iterations
    with tracer.span("simplex.phase2", cat="solver",
                     rows=tab.nrows, cols=total) as span:
        try:
            outcome = tab.optimize(objective, allowed, max_iter, deadline)
        finally:
            span.inc("pivots", tab.iterations - pivots_before)
    if outcome == "unbounded":
        return LPResult(Status.UNBOUNDED, iterations=tab.iterations)

    values = {str(j): 0.0 for j in range(n)}
    for row, column in enumerate(tab.basis):
        if column < n:
            values[str(column)] = float(tab.rhs[row])
    _, value = tab.reduced_costs(objective)
    if maximize:
        value = -value
    return LPResult(Status.OPTIMAL, value, values, tab.iterations)


def _expel_artificials(tab: _Tableau, art_start: int) -> None:
    """Pivot basic artificial variables out of the basis.

    After a feasible phase 1 every basic artificial sits at value 0.  If
    its row has a nonzero coefficient on a real column we pivot there;
    otherwise the row is a redundant constraint and is zeroed out (it
    then never constrains anything again).
    """
    for row in range(tab.nrows):
        if tab.basis[row] < art_start:
            continue
        candidates = np.flatnonzero(np.abs(tab.body[row, :art_start]) > TOL)
        if candidates.size:
            tab.pivot(row, int(candidates[0]))
        else:
            tab.body[row, :] = 0.0
            tab.rhs[row] = 0.0
            # Leave the artificial basic at zero; its column is masked
            # off for phase 2 so it can never become positive.
