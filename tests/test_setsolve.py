"""solve_set against solving each direction alone.

A set is lowered once and runs simplex phase 1 once; the worst and
best directions each run phase 2 from a copy of the feasible tableau
(:class:`repro.ilp.model.Polyhedron`).  The reference here solves each
direction by itself with :meth:`Problem.solve`, the way a standalone
ILP is solved, and every field of the :class:`SetResult` must match it
exactly: objectives, witnesses, degradation flags, the first-relaxation
statistic, LP calls and branch & bound nodes.  Pivot budgets from 1 to
unlimited pin where each direction trips.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.analysis.setsolve import solve_set
from repro.cfg import find_loops
from repro.errors import ILPTimeoutError
from repro.ilp import Status, exact, simplex
from repro.ilp.model import Polyhedron
from repro.programs import all_benchmarks
from repro.synth import generate

#: Pivot budgets per ILP.  At 250 the best direction of a branching
#: set in small11 finishes its root and trips at a later node, which
#: its budget reaches only if it counts the phase 1 it reused.
BUDGETS = (1, 10, 50, 100, 250, None)

#: (grade, seed) of generated programs whose three disjunctions expand
#: to 8 sets: most infeasible, a few that branch.
SYNTH = (("small", 3), ("small", 11), ("medium", 0), ("medium", 5))

PROGRAMS = [(backend, program) for backend in ("simplex", "exact")
            for program in (*all_benchmarks(), *SYNTH)]


def _disjunctive(grade: str, seed: int, backend: str):
    program = generate(seed, grade)
    analysis = program.analysis(backend=backend)
    cfg = analysis.cfgs[program.entry]
    looped = set()
    for loop in find_loops(cfg):
        looped.update(loop.blocks)
    a, b, c = [f"x{block}" for block in sorted(cfg.blocks)
               if block not in looped and block != cfg.entry_block][:3]
    # Each pairs a redundant alternative (a block outside loops runs at
    # most once) with an infeasible one (the entry runs once) or one
    # whose LP optimum is fractional.
    for text in (f"{a} <= 1 | x1 = 0",
                 f"{a} <= 2 | 2 {b} + 2 {c} <= 3",
                 f"{a} <= 3 | {b} >= 2"):
        analysis.add_constraint(text)
    return analysis


@lru_cache(maxsize=None)
def _tasks(backend: str, program) -> tuple:
    if isinstance(program, tuple):
        analysis = _disjunctive(*program, backend)
    else:
        analysis = all_benchmarks()[program].make_analysis(backend=backend)
    return tuple(analysis.set_tasks())


def _fields(status, worst, worst_counts, best, best_counts, timed_out,
            worst_relaxed, best_relaxed, integral, lp_calls, nodes):
    return {"status": status, "worst": worst,
            "worst_counts": list(worst_counts.items()),
            "best": best, "best_counts": list(best_counts.items()),
            "timed_out": timed_out, "worst_relaxed": worst_relaxed,
            "best_relaxed": best_relaxed,
            "first_relaxation_integral": integral,
            "lp_calls": lp_calls, "nodes": nodes}


def _reference(task) -> dict:
    """The SetResult fields from each direction solved alone."""
    engine = "exact" if task.backend == "exact" else "float"
    relaxed = {"worst": False, "best": False}
    lp_calls = nodes = 0
    outcomes = {}
    for direction, problem in zip(("worst", "best"), task.problems()):
        try:
            ilp = problem.solve(backend=task.backend,
                                max_iterations=task.max_iterations)
        except ILPTimeoutError as error:
            relaxed[direction] = True
            lp_calls += 2
            nodes += error.nodes
            relax = problem.solve_relaxation(engine=engine)
            outcome = (relax.status, relax.objective, dict(relax.values),
                       False)
        else:
            lp_calls += ilp.stats.lp_calls
            nodes += ilp.stats.nodes
            outcome = (ilp.status, ilp.objective, dict(ilp.values),
                       ilp.stats.first_relaxation_integral)
        outcomes[direction] = outcome
        if outcome[0] is Status.INFEASIBLE:
            return _fields(Status.INFEASIBLE, None, {}, None, {},
                           relaxed["worst"], relaxed["worst"], False, False,
                           lp_calls, nodes)
    (_, worst, worst_counts, worst_integral) = outcomes["worst"]
    (status, best, best_counts, best_integral) = outcomes["best"]
    assert status is Status.OPTIMAL
    return _fields(Status.OPTIMAL, worst, worst_counts, best, best_counts,
                   relaxed["worst"] or relaxed["best"], relaxed["worst"],
                   relaxed["best"], worst_integral and best_integral,
                   lp_calls, nodes)


def _observed(result) -> dict:
    return _fields(result.status, result.worst, result.worst_counts,
                   result.best, result.best_counts, result.timed_out,
                   result.worst_relaxed, result.best_relaxed,
                   result.stats.first_relaxation_integral,
                   result.stats.lp_calls, result.stats.nodes)


def _program_id(case) -> str:
    backend, program = case
    name = program if isinstance(program, str) else "%s%d" % program
    return f"{backend}-{name}"


@pytest.mark.parametrize("budget", BUDGETS, ids=lambda b: f"budget={b}")
@pytest.mark.parametrize("case", PROGRAMS, ids=_program_id)
def test_set_solve_matches_directions_solved_alone(case, budget):
    for task in _tasks(*case):
        task = replace(task, max_iterations=budget)
        assert _observed(solve_set(task)) == _reference(task), task.index


@pytest.mark.parametrize("case", PROGRAMS, ids=_program_id)
def test_phase1_pivots_are_counted_once(case):
    """A feasible set's pivots are both directions' minus one phase 1."""
    backend, _ = case
    lp = exact if backend == "exact" else simplex
    engine = "exact" if backend == "exact" else "float"
    for task in _tasks(*case):
        result = solve_set(task)
        if not result.feasible:
            continue
        worst, best = task.problems()
        alone = sum(problem.solve(backend=backend).stats.simplex_iterations
                    for problem in (worst, best))
        polyhedron = Polyhedron(worst, engine)
        shared = lp.phase1(polyhedron.matrix, polyhedron.senses,
                           polyhedron.rhs).iterations
        assert result.stats.simplex_iterations == alone - shared


@pytest.mark.parametrize("program", [*all_benchmarks(), *(
    ("large", seed) for seed in range(10))], ids=lambda p: (
        p if isinstance(p, str) else "%s%d" % p))
def test_simplex_and_exact_agree_bit_for_bit(program):
    """Float and rational simplex share the presolve and land on the
    same bounds and the same witnesses."""
    def solved(backend):
        if isinstance(program, tuple):
            analysis = generate(program[1], program[0]).analysis(
                backend=backend)
        else:
            analysis = all_benchmarks()[program].make_analysis(
                backend=backend)
        report = analysis.estimate()
        return (report.interval, [
            (r.status, *(None if bound is None else round(bound)
                         for bound in (r.worst, r.best)),
             list(r.worst_counts.items()), list(r.best_counts.items()))
            for r in report.set_results])

    assert solved("simplex") == solved("exact")


def test_cases_include_infeasible_and_branching_sets():
    results = [solve_set(task) for case in PROGRAMS
               if case[0] == "simplex" and isinstance(case[1], tuple)
               for task in _tasks(*case)]
    assert any(not result.feasible for result in results)
    # One node per direction unless branch & bound branched.
    assert any(result.stats.nodes > 2 for result in results)
