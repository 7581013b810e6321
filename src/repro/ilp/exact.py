"""Exact rational simplex (Fraction arithmetic).

A second, independent LP engine: the same two-phase algorithm as
:mod:`repro.ilp.simplex`, split the same way into a phase 1 that
extends a feasible tableau by new rows (:func:`extend`, from the
:func:`empty` start for a whole system) and :func:`phase2`, but over
:class:`fractions.Fraction`, with Bland's rule throughout.  No
tolerances, no rounding — useful both as a verification backend
(``Problem.solve(backend="exact")``) and for pathological instances
where floating point would need care.  Slower (pure Python
rationals), fine at IPET sizes.
"""

from __future__ import annotations

import time
from fractions import Fraction

from ..errors import ILPTimeoutError
from .solution import LPResult, Phase1Result, Status

#: Default pivot budget of one LP.
MAX_ITER = 100_000

#: A row's sense once it is multiplied by -1.
_FLIPPED = {"<=": ">=", ">=": "<=", "==": "=="}


def solve_lp_exact(costs, matrix, senses, rhs,
                   maximize: bool = False,
                   max_iter: int = MAX_ITER,
                   deadline: float | None = None,
                   tracer=None) -> LPResult:
    """Exact counterpart of :func:`repro.ilp.simplex.solve_lp`: phase 1
    extends the empty start by every row, then :func:`phase2` runs
    from the tableau it leaves.

    ``tracer`` (a :class:`repro.obs.Tracer`) gets one span per phase
    recording its pivot count.
    """
    start = extend(empty(len(costs)), matrix, senses, rhs,
                   max_iter=max_iter, deadline=deadline, tracer=tracer)
    return phase2(start, costs, maximize=maximize, max_iter=max_iter,
                  deadline=deadline, tracer=tracer)


def empty(columns: int) -> Phase1Result:
    """Exact counterpart of :func:`repro.ilp.simplex.empty`."""
    return Phase1Result(Status.OPTIMAL, 0, 0, _Tableau([], [], [], columns),
                        columns=columns, artificials=columns)


def extend(start: Phase1Result, matrix, senses, rhs,
           max_iter: int = MAX_ITER, deadline: float | None = None,
           tracer=None) -> Phase1Result:
    """Exact counterpart of :func:`repro.ilp.simplex.extend`."""
    rows = [[_frac(v) for v in row] for row in matrix]
    rhs = [_frac(v) for v in rhs]
    k, n = len(rows), start.columns
    if any(len(row) != n for row in rows) or len(rhs) != k \
            or len(senses) != k:
        raise ValueError("inconsistent LP dimensions")
    if k == 0 or start.status is not Status.OPTIMAL:
        return start
    if tracer is None:
        from ..obs.trace import NULL_TRACER as tracer
    old = start.tableau
    m, width = len(old.body), old.ncols
    art = start.artificials
    zero = Fraction(0)
    one = Fraction(1)

    # Canonical form: no new row names a basic column.
    senses = list(senses)
    for i in range(k):
        row = rows[i] + [zero] * (width - n)
        for r, b in enumerate(old.basis):
            factor = row[b]
            if factor:
                row = [a - factor * v for a, v in zip(row, old.body[r])]
                rhs[i] -= factor * old.rhs[r]
        if rhs[i] < 0:
            row = [-v for v in row]
            rhs[i] = -rhs[i]
            senses[i] = _FLIPPED[senses[i]]
        rows[i] = row

    slacks = sum(1 for s in senses if s != "==")
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    art_start = art + slacks
    new_art = art_start + width - art
    total = new_art + len(art_rows)
    body = [row[:art] + [zero] * slacks + row[art:]
            + [zero] * len(art_rows) for row in (*old.body, *rows)]
    basis = [b if b < art else b + slacks for b in old.basis] + [-1] * k
    col = art
    for i, sense in enumerate(senses, start=m):
        if sense == "<=":
            body[i][col] = one
            basis[i] = col
            col += 1
        elif sense == ">=":
            body[i][col] = -one
            col += 1
    for col, i in enumerate(art_rows, start=new_art):
        body[m + i][col] = one
        basis[m + i] = col

    state = _Tableau(body, [*old.rhs, *rhs], basis, total)
    state.iterations = start.iterations
    search = start.search_iterations
    if art_rows:
        costs = [zero] * new_art + [one] * (total - new_art)
        allowed = [not art_start <= j < new_art for j in range(total)]
        with tracer.span("simplex.phase1", cat="solver",
                         rows=m + k, cols=total) as span:
            try:
                state.optimize(costs, allowed, max_iter, deadline)
            finally:
                span.inc("pivots", state.iterations - start.iterations)
        if state.iterations > start.iterations:
            search = state.iterations
        if state.objective(costs) > 0:
            return Phase1Result(Status.INFEASIBLE, state.iterations, search,
                                columns=n)
    state.expel_artificials(art_start)
    return Phase1Result(Status.OPTIMAL, state.iterations, search, state,
                        columns=n, artificials=art_start)


def phase2(start: Phase1Result, costs, maximize: bool = False,
           max_iter: int = MAX_ITER, deadline: float | None = None,
           tracer=None) -> LPResult:
    """Exact counterpart of :func:`repro.ilp.simplex.phase2`."""
    costs = [_frac(c) for c in costs]
    if len(costs) != start.columns:
        raise ValueError("inconsistent LP dimensions")
    if start.status is not Status.OPTIMAL:
        return LPResult(start.status, iterations=start.iterations)
    if tracer is None:
        from ..obs.trace import NULL_TRACER as tracer
    if maximize:
        costs = [-c for c in costs]

    state = start.tableau.copy()
    total = state.ncols
    allowed = [j < start.artificials for j in range(total)]
    objective = costs + [Fraction(0)] * (total - start.columns)
    pivots_before = state.iterations
    with tracer.span("simplex.phase2", cat="solver",
                     rows=len(state.body), cols=total) as span:
        try:
            outcome = state.optimize(objective, allowed, max_iter, deadline)
        finally:
            span.inc("pivots", state.iterations - pivots_before)
    if outcome == "unbounded":
        return LPResult(Status.UNBOUNDED, iterations=state.iterations)

    values = {str(j): 0.0 for j in range(start.columns)}
    for row, column in enumerate(state.basis):
        if column < start.columns:
            values[str(column)] = float(state.rhs[row])
    value = float(state.objective(objective))
    if maximize:
        value = -value
    return LPResult(Status.OPTIMAL, value, values, state.iterations)


def _frac(value) -> Fraction:
    if isinstance(value, float):
        return Fraction(value).limit_denominator(10**12)
    return Fraction(value)


class _Tableau:
    def __init__(self, body, rhs, basis, ncols):
        self.body = body
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols
        self.iterations = 0

    def copy(self) -> "_Tableau":
        """An independent tableau in the same state, pivot count included."""
        twin = _Tableau([list(row) for row in self.body], list(self.rhs),
                        list(self.basis), self.ncols)
        twin.iterations = self.iterations
        return twin

    def reduced(self, costs):
        out = list(costs)
        for row, b in enumerate(self.basis):
            cb = costs[b]
            if cb:
                for j, v in enumerate(self.body[row]):
                    if v:
                        out[j] -= cb * v
        return out

    def objective(self, costs):
        return sum(costs[b] * self.rhs[row]
                   for row, b in enumerate(self.basis))

    def pivot(self, row, col):
        body, rhs = self.body, self.rhs
        pivot_value = body[row][col]
        body[row] = [v / pivot_value for v in body[row]]
        rhs[row] = rhs[row] / pivot_value
        for r in range(len(body)):
            if r == row:
                continue
            factor = body[r][col]
            if factor:
                body[r] = [a - factor * b
                           for a, b in zip(body[r], body[row])]
                rhs[r] = rhs[r] - factor * rhs[row]
        self.basis[row] = col
        self.iterations += 1

    def optimize(self, costs, allowed, max_iter, deadline=None):
        while True:
            if self.iterations > max_iter:
                raise ILPTimeoutError("exact simplex iteration limit",
                                      iterations=self.iterations)
            if deadline is not None and time.monotonic() > deadline:
                raise ILPTimeoutError(
                    "exact simplex exceeded its wall-clock deadline",
                    iterations=self.iterations)
            reduced = self.reduced(costs)
            col = next((j for j, r in enumerate(reduced)
                        if allowed[j] and r < 0), None)   # Bland
            if col is None:
                return "optimal"
            best_row = None
            best_ratio = None
            for row in range(len(self.body)):
                coef = self.body[row][col]
                if coef > 0:
                    ratio = self.rhs[row] / coef
                    if (best_ratio is None or ratio < best_ratio
                            or (ratio == best_ratio
                                and self.basis[row] <
                                self.basis[best_row])):
                        best_row, best_ratio = row, ratio
            if best_row is None:
                return "unbounded"
            self.pivot(best_row, col)

    def expel_artificials(self, art_start):
        for row in range(len(self.body)):
            if self.basis[row] < art_start:
                continue
            col = next((j for j in range(art_start)
                        if self.body[row][j] != 0), None)
            if col is not None:
                self.pivot(row, col)
            else:
                self.body[row] = [Fraction(0)] * len(self.body[row])
                self.rhs[row] = Fraction(0)
