"""Optional scipy (HiGHS) backend, used as a cross-check oracle in tests.

The production path is the from-scratch simplex + branch & bound; this
module exists so the test suite can validate that solver against an
independent implementation on randomized instances.
"""

from __future__ import annotations

from .model import Problem, _densify, _lower
from .solution import ILPResult, SolveStats, Status


def solve_with_scipy(problem: Problem) -> ILPResult:
    """Solve `problem` with :func:`scipy.optimize.milp`.

    HiGHS gets every variable's own bounds and integrality over the
    unshifted columns, so an integer variable with a fractional lower
    bound stays integral.  When HiGHS answers only "infeasible or
    unbounded" (an integer program whose relaxation is unbounded), the
    same system is solved again with a zero objective: a feasible
    rational MILP with an unbounded relaxation is unbounded."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    order = sorted(problem.variables)
    index = {name: j for j, name in enumerate(order)}
    rows, senses, rhs = _lower(problem.constraints, index,
                               [0.0] * len(order))
    costs = np.zeros(len(order))
    for name, coef in problem.objective.coefs.items():
        costs[index[name]] = coef
    sign = -1.0 if problem.sense == "max" else 1.0

    lower = np.full(len(rhs), -np.inf)
    upper = np.full(len(rhs), np.inf)
    for i, sense in enumerate(senses):
        if sense in ("<=", "=="):
            upper[i] = rhs[i]
        if sense in (">=", "=="):
            lower[i] = rhs[i]

    variables = [problem.variables[name] for name in order]
    kwargs = {
        "integrality": np.array([int(var.integer) for var in variables]),
        "bounds": Bounds(lb=[var.lower for var in variables],
                         ub=[np.inf if var.upper is None else var.upper
                             for var in variables]),
    }
    if len(rhs):
        kwargs["constraints"] = LinearConstraint(
            _densify(rows, range(len(order))), lower, upper)
    result = milp(sign * costs, **kwargs)

    stats = SolveStats(lp_calls=1, nodes=int(result.get("mip_node_count") or 0))
    # HiGHS's model status 9, "infeasible or unbounded", is milp's 4.
    message = str(result.message).lower()
    if (result.status == 4 and "infeasible" in message
            and "unbounded" in message):
        feasible = milp(np.zeros(len(order)), **kwargs)
        stats.lp_calls += 1
        if feasible.status == 0:
            return ILPResult(Status.UNBOUNDED, stats=stats)
        result = feasible
    if result.status == 2:
        return ILPResult(Status.INFEASIBLE, stats=stats)
    if result.status == 3:
        return ILPResult(Status.UNBOUNDED, stats=stats)
    if result.status != 0:
        raise RuntimeError(f"scipy.milp failed: {result.message}")
    values = {name: float(result.x[j]) for j, name in enumerate(order)}
    return ILPResult(Status.OPTIMAL, sign * float(result.fun)
                     + problem.objective.const, values, stats)

