"""solve_set against solving each direction alone.

A set is lowered once and runs simplex phase 1 once; the worst and
best directions each run phase 2 from a copy of the feasible tableau
(:class:`repro.ilp.model.Polyhedron`).  That phase 1 extends the
phase 1 of the analysis's presolved base by the set's own rows unless
the set's presolve eliminates a column the base keeps.  The reference
here solves each direction by itself, from its own fresh extension of
the presolved base, and every field of the :class:`SetResult` must
match it exactly: objectives, witnesses, degradation flags, the
first-relaxation statistic, LP calls and branch & bound nodes explored
and pruned.  An extension that bound propagation refutes is an
infeasible set with no LP call, no node and no pivot.  Pivot budgets
from 1 to unlimited pin where each direction trips.  Solving every
direction cold, with :meth:`Problem.solve`, must reach the same
statuses, bounds, witnesses and, for every set propagation does not
refute, the same search.
"""

import collections
import pickle
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest

from repro.analysis import Analysis
from repro.analysis.setsolve import _ENGINES, solve_set
from repro.cfg import find_loops
from repro.constraints import BaseSystem
from repro.errors import ILPTimeoutError
from repro.ilp import Constraint, LinExpr, Problem, Status, exact, simplex
from repro.ilp.branch_bound import solve_ilp
from repro.ilp.model import Polyhedron
from repro.obs import Tracer
from repro.programs import all_benchmarks
from repro.synth import generate

#: Pivot budgets per ILP.  At 58 the best direction of a branching set
#: in small11 finishes its root and trips at its third node, which its
#: budget reaches only if it charges each node the phase 1 runs the
#: node extends.
BUDGETS = (1, 10, 50, 58, 100, 250, None)

#: (grade, seed) of generated programs whose three disjunctions expand
#: to 8 sets: most infeasible, a few that branch.  In small137 a set's
#: branch & bound prunes a node.  Propagation refutes most infeasible
#: sets; in small9 phase 1 proves one that it misses.
SYNTH = (("small", 3), ("small", 11), ("medium", 0), ("medium", 5),
         ("small", 137), ("small", 9))

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


def _fresh_tasks(backend: str, program) -> tuple:
    """The program's set tasks, over a base whose phase 1 has not run."""
    if isinstance(program, tuple):
        analysis = _disjunctive(*program, backend)
    else:
        analysis = all_benchmarks()[program].make_analysis(backend=backend)
    return tuple(analysis.set_tasks())


_tasks = lru_cache(maxsize=None)(_fresh_tasks)


def _fields(status, worst, worst_counts, best, best_counts, timed_out,
            worst_relaxed, best_relaxed, integral, lp_calls, nodes,
            nodes_pruned, refuted=False):
    return {"status": status, "worst": worst,
            "worst_counts": list(worst_counts.items()),
            "best": best, "best_counts": list(best_counts.items()),
            "timed_out": timed_out, "worst_relaxed": worst_relaxed,
            "best_relaxed": best_relaxed,
            "first_relaxation_integral": integral,
            "lp_calls": lp_calls, "nodes": nodes,
            "nodes_pruned": nodes_pruned, "refuted": refuted}


def _alone(task, direction: str):
    """(root, objective) of one direction solved by itself: a fresh
    extension of the presolved base by the set's rows, or the whole
    problem when the set names a column outside the base."""
    root = task.presolved.extend(task.resolved)
    if root is not None:
        return root, getattr(task.presolved, direction)
    problem = dict(zip(("worst", "best"), task.problems()))[direction]
    return Polyhedron(problem, _ENGINES[task.backend]), problem


def _reference(task) -> dict:
    """The SetResult fields from each direction solved alone."""
    relaxed = {"worst": False, "best": False}
    lp_calls = nodes = nodes_pruned = 0
    outcomes = {}
    for direction in ("worst", "best"):
        root, objective = _alone(task, direction)
        if root.refuted:
            # Propagation proved the set has no integer point: it is
            # infeasible before any LP, node or pivot.
            return _fields(Status.INFEASIBLE, None, {}, None, {}, False,
                           False, False, False, 0, 0, 0, refuted=True)
        try:
            ilp = solve_ilp(objective, engine=root.engine,
                            max_iterations=task.max_iterations, root=root)
        except ILPTimeoutError as error:
            relaxed[direction] = True
            lp_calls += 2
            nodes += error.nodes
            relax = root.relaxation(objective)
            outcome = (relax.status, relax.objective, dict(relax.values),
                       False)
        else:
            lp_calls += ilp.stats.lp_calls
            nodes += ilp.stats.nodes
            nodes_pruned += ilp.stats.nodes_pruned
            outcome = (ilp.status, ilp.objective, dict(ilp.values),
                       ilp.stats.first_relaxation_integral)
        outcomes[direction] = outcome
        if outcome[0] is Status.INFEASIBLE:
            return _fields(Status.INFEASIBLE, None, {}, None, {},
                           relaxed["worst"], relaxed["worst"], False, False,
                           lp_calls, nodes, nodes_pruned)
    (_, worst, worst_counts, worst_integral) = outcomes["worst"]
    (status, best, best_counts, best_integral) = outcomes["best"]
    assert status is Status.OPTIMAL
    return _fields(Status.OPTIMAL, worst, worst_counts, best, best_counts,
                   relaxed["worst"] or relaxed["best"], relaxed["worst"],
                   relaxed["best"], worst_integral and best_integral,
                   lp_calls, nodes, nodes_pruned)


def _observed(result) -> dict:
    return _fields(result.status, result.worst, result.worst_counts,
                   result.best, result.best_counts, result.timed_out,
                   result.worst_relaxed, result.best_relaxed,
                   result.stats.first_relaxation_integral,
                   result.stats.lp_calls, result.stats.nodes,
                   result.stats.nodes_pruned, result.stats.refuted)


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


def _phase1_pivots(polyhedron, lp) -> tuple:
    """(start, pivots): `polyhedron`'s phase 1 as it runs from scratch,
    and the pivots of it that `polyhedron` makes itself rather than
    its prefix."""
    if polyhedron.prefix is None:
        start, first = lp.empty(len(polyhedron.columns)), 0
    else:
        start, _ = _phase1_pivots(polyhedron.prefix, lp)
        first = len(polyhedron.prefix.rows)
    position = {j: i for i, j in enumerate(polyhedron.columns)}
    own = lp.extend(start, [{position[j]: coef for j, coef in row.items()}
                            for row in polyhedron.rows[first:]],
                    polyhedron.senses[first:], polyhedron._rhs[first:])
    return own, own.iterations - start.iterations


@pytest.mark.parametrize("case", PROGRAMS, ids=_program_id)
def test_phase1_pivots_are_counted_once(case):
    """A set's pivots are those of its directions solved alone, less
    the phase 1 they share; the first set to extend the base also
    makes the base's phase 1, and no other set counts it."""
    backend, _ = case
    lp = exact if backend == "exact" else simplex
    # Fresh tasks: the first solve over a base runs the base's phase 1.
    tasks = _fresh_tasks(*case)
    base = tasks[0].presolved.polyhedron
    _, base_pivots = _phase1_pivots(base, lp)
    uncounted = True
    for task in tasks:
        result = solve_set(task)
        if result.stats.refuted:
            # No phase 1 runs, the base's included.
            assert result.stats.simplex_iterations == 0, task.index
            continue
        directions = ("worst", "best") if result.feasible else ("worst",)
        roots = [_alone(task, direction) for direction in directions]
        alone = sum(solve_ilp(objective, engine=root.engine, root=root)
                    .stats.simplex_iterations for root, objective in roots)
        root = roots[0][0]
        shared = _phase1_pivots(root, lp)[1] * (len(directions) - 1)
        expected = alone - shared
        if root.prefix is base and uncounted:
            expected += base_pivots
            uncounted = False
        assert result.stats.simplex_iterations == expected, task.index


@pytest.mark.parametrize("case", PROGRAMS, ids=_program_id)
def test_warm_start_matches_cold_solves(case):
    """Extending the base's phase 1 reaches what solving each direction
    whole and cold reaches: the same statuses, rounded bounds,
    witnesses and search, and in rational arithmetic the same
    objectives.  A set that propagation refutes is one the cold solve
    finds infeasible, and costs no search at all."""
    backend, _ = case
    for task in _tasks(*case):
        result = solve_set(task)
        worst, best = (problem.solve(backend=backend)
                       for problem in task.problems())
        assert worst.status is result.status, task.index
        if result.stats.refuted:
            stats = result.stats
            assert (stats.lp_calls, stats.nodes, stats.nodes_pruned,
                    stats.simplex_iterations) == (0, 0, 0, 0), task.index
            continue
        lp_calls, nodes = worst.stats.lp_calls, worst.stats.nodes
        pruned = worst.stats.nodes_pruned
        if result.feasible:
            cold = [(round(ilp.objective), dict(ilp.values))
                    for ilp in (worst, best)]
            warm = [(round(result.worst), result.worst_counts),
                    (round(result.best), result.best_counts)]
            assert warm == cold, task.index
            assert result.stats.first_relaxation_integral == (
                worst.stats.first_relaxation_integral
                and best.stats.first_relaxation_integral)
            if backend == "exact":
                assert (result.worst, result.best) == (worst.objective,
                                                       best.objective)
            lp_calls += best.stats.lp_calls
            nodes += best.stats.nodes
            pruned += best.stats.nodes_pruned
        assert (result.stats.lp_calls, result.stats.nodes,
                result.stats.nodes_pruned) == (lp_calls, nodes, pruned)


#: Per-set pivots of routines whose every set eliminates a column the
#: base keeps, as solved before phase 1 extended the base's.  dhry's
#: two infeasible sets are refuted by propagation and make none.
COLD = {("simplex", "check_data"): [2, 2], ("exact", "check_data"): [2, 2],
        ("simplex", "dhry"): [15, 0, 0], ("exact", "dhry"): [15, 0, 0],
        ("simplex", "recon"): [20, 24, 25, 20],
        ("exact", "recon"): [24, 25, 25, 23]}


@pytest.mark.parametrize("case", sorted(COLD), ids=_program_id)
def test_sets_that_eliminate_a_column_run_cold(case):
    """Their phase 1 starts from the empty tableau and makes the pivots
    it made before, unless propagation refutes the set and no phase 1
    runs; the base's phase 1 never runs."""
    tasks = _fresh_tasks(*case)
    assert all(task.presolved.extend(task.resolved).prefix is None
               for task in tasks)
    tracer = Tracer()
    results = [solve_set(task, tracer) for task in tasks]
    assert [result.stats.simplex_iterations for result in results] \
        == COLD[case]
    phase1 = [r for r in tracer.records() if r["name"] == "simplex.phase1"]
    assert len(phase1) == sum(not r.stats.refuted for r in results)


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
    assert any(result.stats.refuted for result in results)
    # Phase 1 still proves some infeasible sets: propagation misses them.
    assert any(not result.feasible and not result.stats.refuted
               for result in results)
    # One node per direction unless branch & bound branched.
    assert any(result.stats.nodes > 2 for result in results)


def test_refuted_set_span_has_no_solver_children():
    tracer = Tracer()
    report = all_benchmarks()["dhry"].make_analysis(
        tracer=tracer).estimate()
    records = tracer.records()
    worst = [r for r in records if r["name"] == "set.worst"]
    refuted = [r for r in worst if r["args"].get("refuted")]
    assert [r["args"]["set"] for r in refuted] == report.refuted_sets \
        == [1, 2]
    for span in refuted:
        assert span["args"]["status"] == "infeasible"
        assert (span["args"]["lp_calls"], span["args"]["pivots"],
                span["args"]["nodes"]) == (0, 0, 0)
        end = span["ts"] + span["dur"]
        assert not [r for r in records if r["depth"] > span["depth"]
                    and span["ts"] <= r["ts"] <= end]
    assert not any(r["name"] == "set.best" and r["args"]["set"] in (1, 2)
                   for r in records)


def test_pickled_task_solves_identically():
    # A task carries its analysis's presolved base with it, pickled
    # before any set extends it (its bounds not yet computed) or after.
    fresh = _fresh_tasks("simplex", ("small", 137))
    clones = pickle.loads(pickle.dumps(fresh))
    for task, clone in zip(_tasks("simplex", ("small", 137)), clones):
        assert _observed(solve_set(clone)) == _observed(solve_set(task))
        clone = pickle.loads(pickle.dumps(task))
        assert _observed(solve_set(clone)) == _observed(solve_set(task))


def test_cases_include_a_set_that_prunes():
    results = [solve_set(task) for task in _tasks("simplex", ("small", 137))]
    assert any(result.stats.nodes_pruned for result in results)


def _exact(expr, values) -> Fraction:
    return Fraction(expr.const) + sum(
        Fraction(coef) * values[name] for name, coef in expr.coefs.items())


@pytest.mark.parametrize("case", PROGRAMS, ids=_program_id)
def test_witnesses_are_exact(case):
    """Every witness is an integral point of its set's unreduced
    problem, checked in Fraction, and attains the reported bound."""
    for task in _tasks(*case):
        result = solve_set(task)
        if not result.feasible:
            continue
        for problem, counts, bound in zip(
                task.problems(), (result.worst_counts, result.best_counts),
                (result.worst, result.best)):
            values = {name: Fraction(counts[name])
                      for name in problem.variables}
            assert all(value >= 0 and value.denominator == 1
                       for value in values.values())
            for constraint in problem.constraints:
                lhs = _exact(constraint.expr, values)
                assert {"<=": lhs <= 0, ">=": lhs >= 0,
                        "==": lhs == 0}[constraint.sense], constraint
            assert _exact(problem.objective, values) == round(bound)
            assert bound == pytest.approx(round(bound), abs=1e-6)


def _sixteen_sets(backend: str = "simplex"):
    analysis = _disjunctive("small", 137, backend)
    analysis.add_constraint("x1 + d1 <= 2 | x1 + d1 >= 3")
    return analysis


def test_base_is_lowered_and_presolved_once(monkeypatch):
    """The simplex and exact paths lower the base straight from the
    emitted rows: no Problem, LinExpr or Constraint of it is built, and
    only the base presolves from an empty prefix (sets and branch &
    bound nodes extend it)."""
    built = collections.Counter()

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            built[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for cls in (Problem, LinExpr, Constraint):
        monkeypatch.setattr(cls, "__init__",
                            counted(cls.__name__, cls.__init__))
    monkeypatch.setattr(Polyhedron, "_build",
                        counted("presolve", Polyhedron._build))

    def refuse(self):
        raise AssertionError("the base was built as constraints")

    monkeypatch.setattr(BaseSystem, "constraints", refuse)
    for backend in ("simplex", "exact"):
        # No functionality constraint: the only expressions are the two
        # objectives, and no set branches.
        for context in (False, True):
            built.clear()
            analysis = generate(5, "medium").analysis(
                backend=backend, context_sensitive=context)
            results = [solve_set(task) for task in analysis.set_tasks()]
            assert all(result.stats.nodes == 2 for result in results)
            assert built == {"LinExpr": 2, "presolve": 1}
        built.clear()
        report = _sixteen_sets(backend).estimate()
        assert len(report.set_results) == 16
        assert built["Problem"] == 0 and built["presolve"] == 1


@pytest.mark.parametrize("backend", ["simplex", "exact"])
def test_integral_sets_build_no_problem(monkeypatch, backend):
    tasks = [*_sixteen_sets(backend).set_tasks(),
             *all_benchmarks()["dhry"].make_analysis(
                 backend=backend).set_tasks()]

    def refuse(*args, **kwargs):
        raise AssertionError("solve_set built or lowered a Problem")

    monkeypatch.setattr(Problem, "add", refuse)
    monkeypatch.setattr(Problem, "_lower_rows", refuse)
    results = [solve_set(task) for task in tasks]
    assert any(result.stats.nodes > 2 for result in results)


FALLBACK_SOURCE = """
int g(int n) { if (n) return 1; return 2; }
int f(int p) {
    int q;
    if (p) q = 1; else q = 2;
    return q;
}
"""


@pytest.mark.parametrize("backend", ["simplex", "exact"])
@pytest.mark.parametrize("text", ["2.5 x3 <= 7", "2.5 x3 <= 2"])
def test_non_integral_set_is_solved_unreduced(backend, text):
    analysis = Analysis(FALLBACK_SOURCE, entry="f", backend=backend)
    analysis.add_constraint(text)
    [task] = analysis.set_tasks()
    # Presolving the whole set reduces nothing; neither does extending
    # the presolved base by its row.
    assert task.presolved.extend(task.resolved).substitutions == []
    assert _observed(solve_set(task)) == _reference(task)


@pytest.mark.parametrize("backend", ["simplex", "exact"])
def test_set_naming_an_unreachable_function_is_solved_whole(backend):
    # g() is not reachable from f(), so no base row names its blocks.
    analysis = Analysis(FALLBACK_SOURCE, entry="f", backend=backend)
    analysis.add_constraint("x1 <= 1", function="g")
    [task] = analysis.set_tasks()
    assert task.presolved.extend(task.resolved) is None
    assert _observed(solve_set(task)) == _reference(task)
