"""Tests for the exact rational simplex and LP-format export/import."""

import numpy as np
import pytest

from repro.ilp import LinExpr, Problem, Status, read_lp, write_lp
from repro.ilp.exact import solve_lp_exact
from repro.ilp.simplex import solve_lp


class TestExactSimplex:
    def test_simple_maximize(self):
        result = solve_lp_exact([3, 1], [[1, 1], [1, -1]], ["<=", "<="],
                                [4, 2], maximize=True)
        assert result.status is Status.OPTIMAL
        assert result.objective == 10.0

    def test_exactness_on_fractional_optimum(self):
        # max x st 3x <= 1 -> x = 1/3 exactly.
        result = solve_lp_exact([1], [[3]], ["<="], [1], maximize=True)
        assert result.objective == pytest.approx(1 / 3, abs=1e-15)

    def test_infeasible(self):
        result = solve_lp_exact([1], [[1], [1]], ["<=", ">="], [1, 3])
        assert result.status is Status.INFEASIBLE

    def test_unbounded(self):
        result = solve_lp_exact([1], [[-1]], ["<="], [1], maximize=True)
        assert result.status is Status.UNBOUNDED

    def test_degenerate_equalities(self):
        matrix = [[1, -1, 0], [0, 1, -1], [1, 0, -1], [1, 0, 0]]
        result = solve_lp_exact([0, 0, 1], matrix,
                                ["==", "==", "==", "<="], [0, 0, 0, 7],
                                maximize=True)
        assert result.objective == 7.0

    @pytest.mark.parametrize("maximize", [False, True])
    def test_no_rows_agree_with_float_simplex(self, maximize):
        # No row carries the column count; both engines take it from
        # the costs.
        exact = solve_lp_exact([1.0, 2.0], [], [], [], maximize=maximize)
        approx = solve_lp([1.0, 2.0], [], [], [], maximize=maximize)
        assert exact.status is (Status.UNBOUNDED if maximize
                                else Status.OPTIMAL)
        assert (approx.status, approx.objective, approx.values) == (
            exact.status, exact.objective, exact.values)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_float_simplex(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 7))
        matrix = rng.integers(-3, 4, size=(m, n)).tolist()
        rhs = rng.integers(0, 9, size=m).tolist()
        costs = rng.integers(-4, 5, size=n).tolist()
        senses = [str(rng.choice(["<=", ">=", "=="])) for _ in range(m)]
        matrix.append([1] * n)
        rhs.append(40)
        senses.append("<=")

        exact = solve_lp_exact(costs, matrix, senses, rhs)
        approx = solve_lp(costs, matrix, senses, rhs)
        assert exact.status is approx.status
        if exact.status is Status.OPTIMAL:
            assert exact.objective == pytest.approx(approx.objective,
                                                    abs=1e-6)

    def test_exact_backend_through_problem(self):
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y")
        p.add(2 * x + 2 * y <= 5)
        p.maximize(x + y)
        result = p.solve(backend="exact")
        assert result.status is Status.OPTIMAL
        assert result.objective == 2.0

    def test_exact_backend_on_ipet_problem(self):
        from repro import Analysis

        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < 6; i++) s += i;
            return s;
        }
        """
        float_report = _analysis(src).estimate()
        exact_report = _analysis(src, backend="exact").estimate()
        assert float_report.interval == exact_report.interval


def _analysis(src, **kwargs):
    from repro import Analysis

    analysis = Analysis(src, entry="f", **kwargs)
    analysis.bound_loop(lo=6, hi=6)
    return analysis


class TestLPFormat:
    def sample(self):
        p = Problem("sample")
        x = p.add_var("f::x1", upper=10)
        y = p.add_var("f::d2")
        p.add(2 * x + 3 * y <= 12)
        p.add(x - y >= -2)
        p.add(x + y == 5)
        p.maximize(4 * x + y)
        return p

    def test_write_contains_sections(self):
        text = write_lp(self.sample())
        assert text.startswith("\\ generated")
        for keyword in ("Maximize", "Subject To", "Bounds", "General",
                        "End"):
            assert keyword in text
        # '::' is not a legal LP name character; scopes are mapped.
        assert "f.x1" in text and "::" not in text.split("\n", 1)[1]

    def test_roundtrip_preserves_optimum(self):
        original = self.sample()
        parsed = read_lp(write_lp(original))
        a = original.solve()
        b = parsed.solve()
        assert a.status is b.status is Status.OPTIMAL
        assert a.objective == pytest.approx(b.objective)
        assert set(parsed.variables) == set(original.variables)

    def test_roundtrip_on_real_ipet_problem(self):
        from repro.cfg import CallGraph, build_cfgs
        from repro.codegen import compile_source
        from repro.constraints import base_system

        src = """
        int g;
        int leaf(int v) { return v + 1; }
        int f(int n) {
            if (n > 0) g = leaf(n);
            return g;
        }
        """
        program = compile_source(src)
        system = base_system(CallGraph(build_cfgs(program)),
                             "f").constraints()
        problem = Problem("ipet")
        problem.add_all(system)
        objective = LinExpr({name: 1.0 for name in problem.variables
                             if "::x" in name})
        problem.maximize(objective)

        parsed = read_lp(write_lp(problem))
        a, b = problem.solve(), parsed.solve()
        assert a.objective == pytest.approx(b.objective)

    def test_minimize_roundtrip(self):
        p = Problem()
        x = p.add_var("x")
        p.add(x >= 3)
        p.minimize(2 * x)
        parsed = read_lp(write_lp(p))
        assert parsed.solve().objective == pytest.approx(6.0)

    def test_negative_rhs_and_coefs(self):
        p = Problem()
        x, y = p.add_var("x"), p.add_var("y", upper=9)
        p.add(-2 * x + y <= -1)
        p.maximize(y - x)
        parsed = read_lp(write_lp(p))
        assert parsed.solve().objective == pytest.approx(
            p.solve().objective)

    def test_roundtrip_keeps_every_digit(self):
        p = Problem()
        x = p.add_var("f::x1", upper=2345678.5)
        y = p.add_var("f::d2")
        p.add(1234567 * x + (1 / 3) * y <= 1000001)
        p.add(0.1 * x - y >= -7654321)
        p.maximize(1000001 * x + 0.7 * y)
        text = write_lp(p)
        parsed = read_lp(text)
        assert [(c.sense, dict(c.coefficients()), c.rhs)
                for c in parsed.constraints] == \
            [(c.sense, dict(c.coefficients()), c.rhs)
             for c in p.constraints]
        assert parsed.objective.coefs == p.objective.coefs
        assert parsed.variables["f::x1"].upper == 2345678.5
        # Numbers that six significant digits keep exact print as
        # before, so existing cache keys do not change.
        assert " c0: 3 f.d2 + 2 f.x1 <= 12\n" in write_lp(self.sample())

    def test_empty_objective(self):
        p = Problem()
        x = p.add_var("x", upper=3)
        p.add(x <= 3)
        p.maximize(LinExpr({}))        # feasibility problem
        parsed = read_lp(write_lp(p))
        assert parsed.solve().status is Status.OPTIMAL
