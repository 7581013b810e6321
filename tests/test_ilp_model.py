"""Tests for the expression layer, Problem container, presolve and
branch & bound."""

import numpy as np
import pytest

from repro.analysis import Analysis
from repro.errors import ILPTimeoutError
from repro.ilp import (Constraint, LinExpr, Problem, Status, Var, exact,
                       model, propagate, simplex)
from repro.ilp.branch_bound import solve_ilp
from repro.ilp.model import Polyhedron, _densify

#: Each LP engine by its name in Polyhedron.
ENGINES = {"float": simplex, "exact": exact}


def dense(polyhedron):
    """`polyhedron`'s kept rows as a dense matrix over its columns."""
    return _densify(polyhedron.rows, polyhedron.columns)


class TestExpr:
    def test_var_arithmetic(self):
        x, y = Var("x"), Var("y")
        expr = 2 * x + 3 * y - 4
        assert expr.coefficient("x") == 2
        assert expr.coefficient("y") == 3
        assert expr.const == -4

    def test_expr_combination(self):
        x, y = Var("x"), Var("y")
        expr = (x + y) - (x - y)
        assert expr.coefficient("x") == 0
        assert expr.coefficient("y") == 2

    def test_rsub_and_neg(self):
        x = Var("x")
        expr = 5 - x
        assert expr.const == 5
        assert expr.coefficient("x") == -1
        assert (-x).coefficient("x") == -1

    def test_zero_coefficients_dropped(self):
        x = Var("x")
        expr = 0 * x + 1
        assert "x" not in expr.coefs

    def test_constraint_senses(self):
        x = Var("x")
        assert (x <= 3).sense == "<="
        assert (x >= 3).sense == ">="
        assert (x + 0 == 3).sense == "=="
        assert (x <= 3).rhs == 3

    def test_constraint_satisfied_by(self):
        x, y = Var("x"), Var("y")
        c = x + y <= 4
        assert c.satisfied_by({"x": 2, "y": 2})
        assert not c.satisfied_by({"x": 3, "y": 2})
        eq = x + 0 == 2
        assert eq.satisfied_by({"x": 2})
        assert not eq.satisfied_by({"x": 1})

    def test_trivially_false(self):
        c = Constraint(LinExpr({}, 1.0), "==")  # 1 == 0
        assert c.trivially_false()
        c2 = Constraint(LinExpr({"x": 1.0}, 1.0), "==")
        assert not c2.trivially_false()

    def test_evaluate(self):
        x, y = Var("x"), Var("y")
        assert (2 * x + y + 1).evaluate({"x": 3, "y": 4}) == 11

    def test_bad_multiplication(self):
        x, y = Var("x"), Var("y")
        with pytest.raises(TypeError):
            (x + 0) * (y + 0)

    def test_var_bounds_validation(self):
        with pytest.raises(ValueError):
            Var("x", lower=3, upper=1)

    def test_repr_roundtrip_smoke(self):
        x, y = Var("x"), Var("y")
        assert "x" in repr(2 * x - y + 1)
        assert "<=" in repr(x <= 5)


class TestProblem:
    def test_lp_relaxation(self):
        p = Problem()
        x = p.add_var("x", integer=False)
        y = p.add_var("y", integer=False)
        p.add(x + y <= 4)
        p.add(x - y <= 2)
        p.maximize(3 * x + y)
        result = p.solve_relaxation()
        assert result.objective == pytest.approx(10.0)

    def test_integer_rounding_needed(self):
        # max x + y st 2x + 2y <= 5: LP gives 2.5, ILP gives 2.
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y")
        p.add(2 * x + 2 * y <= 5)
        p.maximize(x + y)
        relaxed = p.solve_relaxation()
        assert relaxed.objective == pytest.approx(2.5)
        result = p.solve()
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(2.0)
        assert not result.stats.first_relaxation_integral

    def test_knapsack(self):
        # Classic 0/1 knapsack: values 10,13,7; weights 3,4,2; cap 6.
        p = Problem()
        items = [p.add_var(f"take{i}", upper=1) for i in range(3)]
        p.add(3 * items[0] + 4 * items[1] + 2 * items[2] <= 6)
        p.maximize(10 * items[0] + 13 * items[1] + 7 * items[2])
        result = p.solve()
        assert result.objective == pytest.approx(20.0)
        assert result.values["take1"] == 1.0
        assert result.values["take2"] == 1.0

    def test_infeasible_ilp(self):
        p = Problem()
        x = p.add_var("x")
        p.add(x + 0 >= 3)
        p.add(x + 0 <= 1)
        p.maximize(x)
        assert p.solve().status is Status.INFEASIBLE

    def test_unbounded_ilp(self):
        p = Problem()
        x = p.add_var("x")
        p.maximize(x)
        assert p.solve().status is Status.UNBOUNDED

    def test_minimize(self):
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y")
        p.add(x + y >= 3)
        p.minimize(2 * x + y)
        result = p.solve()
        assert result.objective == pytest.approx(3.0)
        assert result.values["y"] == 3.0

    def test_lower_bound_shift(self):
        p = Problem()
        x = p.add_var("x", lower=2, upper=5)
        p.minimize(x)
        result = p.solve()
        assert result.objective == pytest.approx(2.0)

    def test_implicit_variables(self):
        p = Problem()
        x = Var("x")
        p.add(x <= 3)
        p.maximize(x)
        assert p.solve().objective == pytest.approx(3.0)

    def test_objective_constant(self):
        p = Problem()
        x = p.add_var("x", upper=4)
        p.maximize(x + 100)
        assert p.solve().objective == pytest.approx(104.0)

    def test_check_assignment(self):
        p = Problem()
        x = p.add_var("x", upper=4)
        p.add(x <= 3)
        assert p.check({"x": 3})
        assert not p.check({"x": 3.5})  # non-integral
        assert not p.check({"x": 5})

    def test_flow_conservation_problem(self):
        # The if-then-else diamond of paper Fig. 2 with unit costs.
        p = Problem()
        x = {i: p.add_var(f"x{i}") for i in range(1, 5)}
        d = {i: p.add_var(f"d{i}") for i in range(1, 7)}
        p.add(d[1] + 0 == 1)
        p.add(x[1] + 0 == d[1])
        p.add(x[1] + 0 == d[2] + d[3])
        p.add(x[2] + 0 == d[2])
        p.add(x[2] + 0 == d[4])
        p.add(x[3] + 0 == d[3])
        p.add(x[3] + 0 == d[5])
        p.add(x[4] + 0 == d[4] + d[5])
        p.add(x[4] + 0 == d[6])
        p.maximize(5 * x[1] + 10 * x[2] + 4 * x[3] + 2 * x[4])
        result = p.solve()
        assert result.status is Status.OPTIMAL
        # Take the then-branch: 5 + 10 + 2.
        assert result.objective == pytest.approx(17.0)
        assert result.stats.first_relaxation_integral
        assert result.stats.lp_calls == 1


class TestAgainstScipyMilp:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_ilp_matches_scipy(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        p = Problem()
        xs = [p.add_var(f"x{j}", upper=int(rng.integers(2, 9)))
              for j in range(n)]
        for _ in range(m):
            coefs = rng.integers(-3, 4, size=n)
            expr = LinExpr({xs[j].name: float(coefs[j]) for j in range(n)})
            sense = rng.choice(["<=", ">="])
            bound = float(rng.integers(-5, 15))
            p.add(expr <= bound if sense == "<=" else expr >= bound)
        obj = LinExpr({xs[j].name: float(rng.integers(-4, 5))
                       for j in range(n)})
        p.maximize(obj)

        ours = p.solve(backend="simplex")
        ref = p.solve(backend="scipy")
        assert ours.status is ref.status
        if ours.status is Status.OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-6)
            assert p.check(ours.values)


class TestBackendsAgree:
    """simplex, exact and the scipy oracle on corner cases of the
    modeling layer."""

    BACKENDS = ("simplex", "exact", "scipy")

    def test_unbounded_relaxation_without_an_integer_point(self):
        # The rows force 3 (v1 - v0) = 2 with v1 <= 1: the relaxation
        # is unbounded (v6 is free), but no integer point exists.
        problem = TestPresolve.random_problem(3)
        for var in problem.variables.values():
            var.integer = True
        relax = Polyhedron(problem).relaxation(problem)
        assert relax.status is Status.UNBOUNDED
        assert {backend: problem.solve(backend=backend).status
                for backend in self.BACKENDS} == dict.fromkeys(
            self.BACKENDS, Status.INFEASIBLE)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unbounded_relaxation_with_an_integer_point(self, backend):
        # HiGHS reports such a MIP only as "infeasible or unbounded"; the
        # oracle then finds an integer point with a zero objective.
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y")
        p.add(2 * x - 2 * y == 0)
        p.add(x + 0 >= 1)
        p.maximize(x + y)
        assert p.solve(backend=backend).status is Status.UNBOUNDED

    def test_random_unbounded_integer_program(self):
        # random_problem(12) made integer: v1, v3 and v4 grow together
        # without bound, one unit at a time.
        problem = TestPresolve.random_problem(12)
        for var in problem.variables.values():
            var.integer = True
        assert {backend: problem.solve(backend=backend).status
                for backend in self.BACKENDS} == dict.fromkeys(
            self.BACKENDS, Status.UNBOUNDED)

    def test_an_equality_gcd_rules_out_an_integer_point(self):
        # max x with 3x - 3y = 1: the relaxation is unbounded, and 3
        # does not divide 1, so the search for an integer point, which
        # could not end here, is not run.
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y")
        p.add(3 * x - 3 * y == 1)
        p.maximize(x + 0)
        assert Polyhedron(p).gcd_refutes()
        for backend in self.BACKENDS:
            result = p.solve(backend=backend, timeout=10.0)
            assert result.status is Status.INFEASIBLE, backend
        assert p.solve(backend="simplex").stats.nodes == 1

    @pytest.mark.parametrize("engine", ["float", "exact"])
    def test_a_search_with_no_integer_point_ends_at_its_limits(self,
                                                                engine):
        # Each row's gcd is 1, but together they say 2x - 2y + 6w = 1:
        # the relaxation is unbounded and holds no integer point, so
        # the search for one can only end when a limit trips.
        p = Problem()
        x, y, z, w = (p.add_var(name) for name in "xyzw")
        p.add(2 * x - 2 * y + 3 * z == 1)
        p.add(3 * z - 6 * w == 0)
        p.maximize(x + 0)
        assert not Polyhedron(p).gcd_refutes()
        with pytest.raises(ILPTimeoutError) as error:
            solve_ilp(p, max_nodes=20, engine=engine)
        assert error.value.nodes == 21

    def test_integer_variable_with_a_fractional_lower_bound(self):
        p = Problem()
        x, y = p.add_var("x", lower=0.5), p.add_var("y")
        p.add(2 * x <= 3)
        p.add(x + y <= 4)
        p.add(2 * x == 2)
        p.maximize(x + y)
        for backend in self.BACKENDS:
            result = p.solve(backend=backend)
            assert (result.status, result.objective) == (Status.OPTIMAL,
                                                         4.0), backend
            assert result.values == {"x": 1.0, "y": 3.0}, backend


class TestPresolve:
    """:class:`Polyhedron` presolve against the unreduced LP."""

    @staticmethod
    def reference(problem):
        """(status, objective) of the unreduced LP, solved whole."""
        (costs, matrix, senses, rhs,
         _, _, objective_shift) = problem.to_arrays()
        result = simplex.solve_lp(costs, matrix, senses, rhs,
                                  maximize=problem.sense == "max")
        if result.status is not Status.OPTIMAL:
            return result.status, None
        return result.status, result.objective + objective_shift

    @staticmethod
    def random_problem(seed):
        """A small integral LP: flow-like unit equalities, a few random
        ``<=``/``>=``/``==`` rows and some upper bounds."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        p = Problem(f"random{seed}")
        xs = [p.add_var(f"v{j}", integer=False,
                        upper=(None if rng.random() < 0.6
                               else int(rng.integers(1, 9))))
              for j in range(n)]
        for _ in range(int(rng.integers(1, n))):
            # Acyclic, like flow: a column equals later columns' sum.
            head = int(rng.integers(0, n - 1))
            rest = rng.permutation(np.arange(head + 1, n))[
                :int(rng.integers(0, 3))]
            flow = LinExpr({xs[k].name: 1.0 for k in rest},
                           float(rng.integers(-1, 2)))
            p.add(xs[head] + 0 == flow)
        for _ in range(int(rng.integers(1, 4))):
            coefs = rng.integers(-3, 4, size=n)
            expr = LinExpr({xs[j].name: float(coefs[j]) for j in range(n)})
            sense = str(rng.choice(["<=", "<=", ">=", "=="]))
            bound = float(rng.integers(0, 12) if sense == "<="
                          else rng.integers(-4, 4))
            p.add(Constraint(expr - bound, sense))
        objective = LinExpr({x.name: float(rng.integers(-4, 6))
                             for x in xs})
        if rng.random() < 0.5:
            p.maximize(objective)
        else:
            p.minimize(objective)
        return p

    @pytest.mark.parametrize("seed", range(60))
    def test_random_lp_matches_unreduced(self, seed):
        problem = self.random_problem(seed)
        polyhedron = Polyhedron(problem)
        relax = polyhedron.relaxation(problem)
        status, objective = self.reference(problem)
        assert relax.status is status
        if status is Status.OPTIMAL:
            assert relax.objective == pytest.approx(objective, abs=1e-7)
            assert set(relax.values) == set(problem.variables)
            assert all(c.satisfied_by(relax.values, 1e-7)
                       for c in problem.constraints)
            for name, var in problem.variables.items():
                assert relax.values[name] >= -1e-7
                if var.upper is not None:
                    assert relax.values[name] <= var.upper + 1e-7

    def test_random_lps_exercise_presolve(self):
        eliminated = [len(Polyhedron(self.random_problem(seed))
                          .substitutions) for seed in range(60)]
        assert sum(1 for count in eliminated if count) >= 45

    def test_infeasible_only_after_substitution(self):
        p = Problem()
        d1, x1 = p.add_var("d1"), p.add_var("x1")
        p.add(d1 + 0 == 1)
        p.add(x1 + 0 == d1)
        p.add(x1 + 0 == 0)
        p.maximize(x1)
        polyhedron = Polyhedron(p)
        # d1 and x1 are substituted out; x1 = 0 is left as 0 = -1.
        assert dense(polyhedron).shape == (1, 0)
        assert polyhedron.relaxation(p).status is Status.INFEASIBLE
        assert p.solve().status is Status.INFEASIBLE

    def test_unbounded_without_a_loop_bound(self):
        # Loop header x1: in-edges d1 (entry) and d2 (back), out-edges
        # d2 (body) and d3 (exit); nothing bounds d2.
        p = Problem()
        d1, d2, d3, x1 = (p.add_var(name)
                          for name in ("d1", "d2", "d3", "x1"))
        p.add(d1 + 0 == 1)
        p.add(x1 + 0 == d1 + d2)
        p.add(x1 + 0 == d2 + d3)
        p.maximize(x1)
        polyhedron = Polyhedron(p)
        assert dense(polyhedron).shape == (0, 1)
        assert polyhedron.relaxation(p).status is Status.UNBOUNDED
        assert p.solve().status is Status.UNBOUNDED

    def test_non_integral_system_is_solved_whole(self):
        p = Problem()
        x1, x2, x3 = (p.add_var(f"x{i}") for i in (1, 2, 3))
        p.add(x1 + 0 == 1)
        p.add(x2 + 0 == x1 + x3)
        p.add(0.5 * x3 <= 2)
        p.maximize(x2 + x3)
        polyhedron = Polyhedron(p)
        assert polyhedron.substitutions == []
        assert dense(polyhedron).shape == p.to_arrays()[1].shape
        relax = polyhedron.relaxation(p)
        assert (relax.status, relax.objective) == self.reference(p)
        assert relax.objective == pytest.approx(9.0)

    FIGURES = {
        "fig2": ("""
            int f(int p) {
                int q;
                if (p) q = 1; else q = 2;
                return q;
            }""", (9, 10), (1, 2)),
        "fig3": ("""
            int f(int p) {
                int q;
                q = p;
                while (q < 10) q++;
                return q;
            }""", (11, 10), (2, 1)),
        "fig4": ("""
            int total;
            void store(int i) { total = total + i; }
            void f() {
                int i; int n;
                i = 10;
                store(i);
                n = 2 * i;
                store(n);
            }""", (10, 10), (0, 0)),
    }

    @pytest.mark.parametrize("figure", sorted(FIGURES))
    def test_paper_figures_reduce(self, figure):
        """The paper's Figs. 2-4: Fig. 2 keeps only the branch choice,
        Fig. 3 the loop count and its bounds, Fig. 4 nothing."""
        source, whole, reduced = self.FIGURES[figure]
        analysis = Analysis(source, entry="f")
        if analysis.loops_needing_bounds():
            analysis.bound_loop(0, 10)
        worst, best = analysis.set_tasks()[0].problems()
        polyhedron = Polyhedron(worst)
        assert worst.to_arrays()[1].shape == whole
        assert dense(polyhedron).shape == reduced
        if figure == "fig2":
            assert polyhedron.senses == ["=="]
            assert dense(polyhedron).tolist() == [[1.0, 1.0]]
            assert polyhedron._rhs == [1.0]
        for problem in (worst, best):
            relax = polyhedron.relaxation(problem)
            status, objective = self.reference(problem)
            assert relax.status is status is Status.OPTIMAL
            assert relax.objective == pytest.approx(objective)
            assert problem.check(relax.values)


class TestExtension:
    """Presolving a prefix of the rows and extending by the rest gives
    the presolve of all the rows (:meth:`Polyhedron.extend`)."""

    @staticmethod
    def state(polyhedron):
        return (polyhedron.substitutions, polyhedron.rows,
                polyhedron.columns, dense(polyhedron).tolist(),
                polyhedron.senses, polyhedron._rhs)

    @pytest.mark.parametrize("seed", range(60))
    def test_prefix_then_rest_is_whole(self, seed):
        problem = TestPresolve.random_problem(seed)
        whole = Polyhedron(problem)
        # The rows in lowering order: the constraints, then one upper
        # bound per variable in name order (lower bounds are all 0).
        rows = list(problem.constraints) + [
            LinExpr({name: 1.0}) <= problem.variables[name].upper
            for name in sorted(problem.variables)
            if problem.variables[name].upper is not None]
        assert len(rows) == len(problem._lower_rows()[0])
        for split in range(len(rows) + 1):
            # The problem's continuous variables: nothing propagates
            # (TestPropagation extends integer ones).
            start = Problem()
            for name in problem.variables:
                start.add_var(name, integer=False)
            start.add_all(rows[:split])
            prefix = Polyhedron(start)
            before = self.state(prefix)
            staged = prefix.extend(rows[split:])
            assert self.state(staged) == self.state(whole), split
            assert self.state(prefix) == before, split

    def test_fractional_row_gives_the_unreduced_system(self):
        p = Problem()
        x1, x2, x3 = (p.add_var(f"x{i}") for i in (1, 2, 3))
        p.add(x1 + 0 == 1)
        p.add(x2 + 0 == x1 + x3)
        prefix = Polyhedron(p)
        assert len(prefix.substitutions) == 2
        staged = prefix.extend([0.5 * x3 <= 2])
        p.add(0.5 * x3 <= 2)
        assert staged.substitutions == []
        assert dense(staged).tolist() == p.to_arrays()[1].tolist()
        assert self.state(staged) == self.state(Polyhedron(p))

    def test_extension_names_only_known_variables(self):
        p = Problem()
        x = p.add_var("x")
        p.add(x <= 3)
        with pytest.raises(KeyError):
            Polyhedron(p).extend([Var("y") <= 1])


class TestPhaseOneExtension:
    """Phase 1 extends a feasible tableau by new rows, in both LP
    engines: from the phase 1 of a prefix of the rows it reaches what a
    phase 1 of all the rows reaches."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("seed", range(60))
    def test_prefix_then_rest_is_whole(self, engine, seed):
        lp = ENGINES[engine]
        problem = TestPresolve.random_problem(seed)
        costs, matrix, senses, rhs, _, _, _ = problem.to_arrays()
        rows = simplex.sparse_rows(matrix, len(costs))
        maximize = problem.sense == "max"
        whole = lp.extend(lp.empty(len(costs)), rows, senses, rhs)
        optimum = lp.phase2(whole, costs, maximize=maximize)
        for split in range(len(rhs) + 1):
            prefix = lp.extend(lp.empty(len(costs)), rows[:split],
                               senses[:split], rhs[:split])
            staged = lp.extend(prefix, rows[split:], senses[split:],
                               rhs[split:])
            assert staged.status is whole.status, split
            result = lp.phase2(staged, costs, maximize=maximize)
            assert result.status is optimum.status, split
            if engine == "exact":
                assert result.objective == optimum.objective, split
            elif optimum.status is Status.OPTIMAL:
                assert result.objective == pytest.approx(
                    optimum.objective, abs=1e-7), split

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_emptied_row_that_fails_is_infeasible_without_a_pivot(
            self, engine):
        # Continuous, so no propagation refutes the extension first.
        p = Problem()
        d1, x1, x2 = (p.add_var(name, integer=False)
                      for name in ("d1", "x1", "x2"))
        p.add(d1 + 0 == 1)
        p.add(x1 + 0 == d1)
        p.add(x1 + x2 >= 2)
        p.minimize(x1 + x2)
        prefix = Polyhedron(p, engine)
        assert prefix.relaxation(p).status is Status.OPTIMAL
        # A second solve reuses the prefix's whole phase 1.
        shared = prefix.relaxation(p).reused
        assert shared > 0
        # x1 is substituted out (x1 = 1), which empties x1 <= 0.
        staged = prefix.extend([x1 <= 0])
        assert staged.prefix is prefix and staged.rows[-1] == {}
        relax = staged.relaxation(p)
        assert relax.status is Status.INFEASIBLE
        assert (relax.iterations, relax.reused) == (0, shared)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_infeasible_start_stays_infeasible_without_a_pivot(self, engine):
        lp = ENGINES[engine]
        start = lp.extend(lp.empty(2), [{0: 1, 1: 1}] * 2, ["<=", ">="],
                          [1, 3])
        assert start.status is Status.INFEASIBLE
        staged = lp.extend(start, [{0: 1}], [">="], [1])
        assert staged.status is Status.INFEASIBLE
        assert staged.iterations == start.iterations

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_redundant_equality_artificial_never_reenters(self, engine):
        lp = ENGINES[engine]
        # x0 = x1, x1 = x2 and the redundant x0 = x2: phase 1 leaves the
        # last row's artificial basic at zero, its row zeroed.
        start = lp.extend(lp.empty(3),
                          [{0: 1, 1: -1}, {1: 1, 2: -1}, {0: 1, 2: -1}],
                          ["==", "==", "=="], [0, 0, 0])

        def artificials(result, first, count):
            return [(row, col - first)
                    for row, col in enumerate(result.tableau.basis)
                    if first <= col < first + count]

        count = start.tableau.ncols - start.artificials
        left = artificials(start, start.artificials, count)
        assert left == [(2, 2)]
        staged = lp.extend(start, [{0: 1}, {2: 1}], [">=", "<="], [2, 5])
        assert staged.iterations > start.iterations
        # The start's artificials follow the new slacks; only the one
        # left basic is basic, in its row.
        assert artificials(staged, staged.artificials, count) == left
        assert lp.phase2(staged, [1, 0, 0], maximize=True).objective == 5.0
        assert lp.phase2(staged, [0, 1, 0]).objective == 2.0
        # x2 = x0 + 1 contradicts x0 = x2; a start's artificial that
        # entered again would absorb the difference.
        assert lp.extend(start, [{0: -1, 2: 1}], ["=="], [1]).status \
            is Status.INFEASIBLE

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_no_rows_return_the_start(self, engine):
        lp = ENGINES[engine]
        start = lp.extend(lp.empty(2), [{0: 1, 1: 1}], [">="], [4])
        assert lp.extend(start, [], [], []) is start


def _no_propagation(rows, holders, domains, queue):
    """A propagator that derives nothing, so branch & bound decides by
    its LPs alone: an oracle independent of propagation."""
    return domains


class TestPropagation:
    """Integer bound propagation refutes an extension only when no
    integer point satisfies its rows (:mod:`repro.ilp.propagate`)."""

    @staticmethod
    def boxed(seed):
        """TestPresolve's random problem over integers, each at most 12
        unless it has a tighter bound: branch & bound decides it."""
        problem = TestPresolve.random_problem(seed)
        for var in problem.variables.values():
            var.integer = True
            if var.upper is None:
                var.upper = 12
        return problem

    @staticmethod
    def extensions(problem):
        """(split, extension) per split of the problem's rows: the rows
        before it presolved, extended by the rest."""
        rows = list(problem.constraints) + [
            LinExpr({name: 1.0}) <= problem.variables[name].upper
            for name in sorted(problem.variables)]
        for split in range(len(rows) + 1):
            start = Problem()
            for name in problem.variables:
                start.add_var(name)
            start.add_all(rows[:split])
            yield split, Polyhedron(start).extend(rows[split:])

    def refutations(self, monkeypatch, seeds=range(60)):
        """(refuted, unsound): how many extensions propagation refutes,
        and the (seed, split) of each whose problem an exact branch &
        bound without propagation finds feasible.  An extension it does
        not refute presolves as its whole problem does."""
        refuted, unsound = 0, []
        for seed in seeds:
            problem = self.boxed(seed)
            whole = TestExtension.state(Polyhedron(problem))
            staged = list(self.extensions(problem))
            with monkeypatch.context() as patch:
                patch.setattr(model, "propagate", _no_propagation)
                status = problem.solve(backend="exact").status
            for split, extension in staged:
                if not extension.refuted:
                    assert TestExtension.state(extension) == whole
                    continue
                refuted += 1
                if status is not Status.INFEASIBLE:
                    unsound.append((seed, split))
        return refuted, unsound

    def test_refutations_are_integer_infeasible(self, monkeypatch):
        refuted, unsound = self.refutations(monkeypatch)
        assert unsound == []
        assert refuted >= 200

    def test_branch_and_bound_agrees_without_propagation(self,
                                                        monkeypatch):
        # Nodes propagate as sets do; refuting one never moves a result.
        refuted = []
        extend = Polyhedron.extend

        def counted(polyhedron, constraints):
            node = extend(polyhedron, constraints)
            refuted.append(node.refuted and node is not polyhedron)
            return node

        for seed in range(60):
            problem = self.boxed(seed)
            with monkeypatch.context() as patch:
                patch.setattr(Polyhedron, "extend", counted)
                solved = problem.solve(backend="exact")
            with monkeypatch.context() as patch:
                patch.setattr(model, "propagate", _no_propagation)
                oracle = problem.solve(backend="exact")
            assert (solved.status, solved.objective, solved.values) == (
                oracle.status, oracle.objective, oracle.values), seed
        assert sum(refuted) >= 20

    def test_a_bound_rounded_the_wrong_way_is_caught(self, monkeypatch):
        tighten = propagate._tighten

        def off_by_one(terms, bound, lo, hi, changed):
            # Round the first upper bound a row derives down once more.
            first = len(changed)
            feasible = tighten(terms, bound, lo, hi, changed)
            for k in changed[first:]:
                if k in hi:
                    hi[k] -= 1
                    break
            return feasible

        monkeypatch.setattr(propagate, "_tighten", off_by_one)
        _, unsound = self.refutations(monkeypatch)
        assert unsound

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_refuted_extension_runs_no_phase_1(self, engine):
        p = Problem()
        d1, x1, x2 = (p.add_var(name) for name in ("d1", "x1", "x2"))
        p.add(d1 + 0 == 1)
        p.add(x1 + 0 == d1)
        p.add(x1 + x2 >= 2)
        p.minimize(x1 + x2)
        prefix = Polyhedron(p, engine)
        # x1 is substituted out (x1 = 1), which empties x1 <= 0.
        staged = prefix.extend([x1 <= 0])
        assert staged.refuted and staged.prefix is None
        relax = staged.relaxation(p)
        assert relax.status is Status.INFEASIBLE
        assert (relax.iterations, relax.reused) == (0, 0)
        assert prefix._start is None
        # No cut gives it an integer point back.
        assert staged.extend([x2 <= 5]) is staged
        result = p.solve(backend="simplex" if engine == "float" else engine)
        assert result.status is Status.OPTIMAL

    def test_bounds_propagate_only_for_extensions_with_rows(
            self, monkeypatch):
        queues = []

        def counted(rows, holders, domains, queue):
            queues.append(len(queue))
            return propagate.propagate(rows, holders, domains, queue)

        monkeypatch.setattr(model, "propagate", counted)
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y")
        p.add(x + y <= 4)
        p.add(x - y <= 1)
        base = Polyhedron(p)
        assert base.extend([]).extend([]).refuted is False
        assert queues == []
        # The base's bounds, from its rows, then the one new row's.
        assert base.extend([x >= 2]).refuted is False
        assert queues == [2, 1]
        assert base.extend([x >= 2, y >= 3]).refuted is True
        assert queues == [2, 1, 2]
        # An extension by no rows has its parent's bounds.
        empty = base.extend([])
        assert empty.extend([y >= 5]).refuted is True
        assert queues == [2, 1, 2, 1]

    def test_fractional_lower_bound_propagates_nothing(self):
        # x >= 0.5 shifts x's column by 0.5, so the column is not an
        # integer: 2x = 2 reads 2y = 1, which no integer y meets, yet
        # x = 1 does.
        p = Problem()
        x, y = p.add_var("x", lower=0.5), p.add_var("y")
        p.add(2 * x <= 3)
        p.add(LinExpr({"x": 1.0, "y": 1.0}) <= 4.5)
        p.maximize(x + y)
        assert not Polyhedron(p).extend([2 * x == 2]).refuted
        p.add(2 * x == 2)
        result = p.solve(backend="exact")
        assert result.status is Status.OPTIMAL
        assert (result.objective, result.values["x"]) == (4, 1)

    def test_visit_cap_ends_unrefuted(self):
        # x <= y - 1 and y <= x - 1 have no point, but propagation
        # lowers each bound by one per visit from a million.
        p = Problem()
        x, y = p.add_var("x", upper=10 ** 6), p.add_var("y", upper=10 ** 6)
        p.add(x - y <= -1)
        p.maximize(x + y)
        staged = Polyhedron(p).extend([y - x <= -1])
        assert not staged.refuted
        assert staged.relaxation(p).status is Status.INFEASIBLE
