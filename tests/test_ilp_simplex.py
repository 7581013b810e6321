"""Unit tests for the from-scratch two-phase simplex."""

import numpy as np
import pytest

from repro.ilp import simplex
from repro.ilp.solution import Status


def lp(costs, matrix, senses, rhs, maximize=False):
    return simplex.solve_lp(costs, matrix, senses, rhs, maximize=maximize)


class TestBasics:
    def test_simple_maximize(self):
        # max 3x + y st x + y <= 4, x - y <= 2
        result = lp([3, 1], [[1, 1], [1, -1]], ["<=", "<="], [4, 2],
                    maximize=True)
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(10.0)
        assert result.values["0"] == pytest.approx(3.0)
        assert result.values["1"] == pytest.approx(1.0)

    def test_simple_minimize(self):
        # min x + y st x + 2y >= 4, 3x + y >= 6
        result = lp([1, 1], [[1, 2], [3, 1]], [">=", ">="], [4, 6])
        assert result.status is Status.OPTIMAL
        assert result.objective == pytest.approx(2.8)

    def test_equality_constraints(self):
        # max x st x + y = 5, y >= 2 -> x = 3
        result = lp([1, 0], [[1, 1], [0, 1]], ["==", ">="], [5, 2],
                    maximize=True)
        assert result.objective == pytest.approx(3.0)

    def test_infeasible(self):
        result = lp([1, 0], [[1, 1], [1, 1]], ["<=", ">="], [1, 3])
        assert result.status is Status.INFEASIBLE

    def test_unbounded(self):
        result = lp([1, 0], [[1, -1]], ["<="], [1], maximize=True)
        assert result.status is Status.UNBOUNDED

    def test_negative_rhs_normalization(self):
        # x - y <= -1 with b < 0 must be handled by row normalization.
        result = lp([1, 1], [[1, -1]], ["<="], [-1])
        assert result.status is Status.OPTIMAL
        # min x + y with y >= x + 1 -> x=0, y=1.
        assert result.objective == pytest.approx(1.0)

    def test_no_constraints_bounded(self):
        result = lp([1.0], np.zeros((0, 1)), [], [])
        assert result.status is Status.OPTIMAL
        assert result.objective == 0.0

    def test_no_constraints_unbounded(self):
        result = lp([1.0], np.zeros((0, 1)), [], [], maximize=True)
        assert result.status is Status.UNBOUNDED

    def test_degenerate_flow_problem(self):
        # Flow conservation chain with redundant equalities; exercises
        # phase-1 artificial expulsion of redundant rows.
        # x0 = x1, x1 = x2, x0 = x2 (redundant), x0 <= 7.
        matrix = [[1, -1, 0], [0, 1, -1], [1, 0, -1], [1, 0, 0]]
        result = lp([0, 0, 1], matrix, ["==", "==", "==", "<="], [0, 0, 0, 7],
                    maximize=True)
        assert result.objective == pytest.approx(7.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lp([1, 2, 3], [[1, 1]], ["<="], [1])


class TestAgainstScipy:
    """Randomized cross-checks against scipy.optimize.linprog (HiGHS)."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_bounded(self, seed):
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        n = rng.integers(2, 8)
        m = rng.integers(1, 10)
        matrix = rng.integers(-3, 4, size=(m, n)).astype(float)
        rhs = rng.integers(0, 10, size=m).astype(float)
        costs = rng.integers(-5, 6, size=n).astype(float)
        senses = [rng.choice(["<=", ">=", "=="]) for _ in range(m)]
        # Keep x bounded so both solvers agree on status.
        matrix = np.vstack([matrix, np.ones(n)])
        rhs = np.append(rhs, 50.0)
        senses.append("<=")

        ours = lp(costs, matrix, senses, rhs)

        a_ub, b_ub, a_eq, b_eq = [], [], [], []
        for row, sense, b in zip(matrix, senses, rhs):
            if sense == "<=":
                a_ub.append(row)
                b_ub.append(b)
            elif sense == ">=":
                a_ub.append(-row)
                b_ub.append(-b)
            else:
                a_eq.append(row)
                b_eq.append(b)
        ref = linprog(costs, A_ub=a_ub or None, b_ub=b_ub or None,
                      A_eq=a_eq or None, b_eq=b_eq or None,
                      bounds=(0, None), method="highs")
        if ref.status == 2:
            assert ours.status is Status.INFEASIBLE
        else:
            assert ref.status == 0
            assert ours.status is Status.OPTIMAL
            assert ours.objective == pytest.approx(ref.fun, abs=1e-6)


def _dense_pivot(body, rhs, basis, row, col):
    """The reference pivot: a rank-1 update of every row."""
    pivot_value = body[row, col]
    body[row] /= pivot_value
    rhs[row] /= pivot_value
    factors = body[:, col].copy()
    factors[row] = 0.0
    body -= np.outer(factors, body[row])
    rhs -= factors * rhs[row]
    body[:, col] = 0.0
    body[row, col] = 1.0
    basis[row] = col


class TestRowRestrictedPivot:
    """_Tableau.pivot updates only rows nonzero in the pivot column.

    Rows with a zero there subtract zeros in the dense update, so every
    entry must equal the dense reference's (zeros compare equal
    whatever their sign)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_update(self, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(2, 30)), int(rng.integers(2, 40))
        density = rng.uniform(0.05, 0.4)
        body = (rng.integers(-4, 5, size=(m, n))
                * (rng.random((m, n)) < density)).astype(float)
        rhs = rng.integers(0, 20, size=m).astype(float)
        basis = list(range(m))
        tab = simplex._Tableau(body.copy(), rhs.copy(), list(basis))
        zero_rows_seen = 0
        for _ in range(8):
            rows, cols = np.nonzero(tab.body)
            if rows.size == 0:
                break
            pick = int(rng.integers(rows.size))
            row, col = int(rows[pick]), int(cols[pick])
            zero_rows_seen += int(np.sum(tab.body[:, col] == 0.0))
            _dense_pivot(body, rhs, basis, row, col)
            tab.pivot(row, col)
            assert np.array_equal(tab.body, body)
            assert np.array_equal(tab.rhs, rhs)
            assert tab.basis == basis
        assert zero_rows_seen > 0

    def test_column_nonzero_only_in_pivot_row(self):
        body = np.array([[2.0, 1.0, 0.0], [0.0, 3.0, 1.0], [0.0, 0.0, 5.0]])
        rhs = np.array([4.0, 6.0, 5.0])
        tab = simplex._Tableau(body.copy(), rhs.copy(), [0, 1, 2])
        reference = body.copy(), rhs.copy(), [0, 1, 2]
        _dense_pivot(*reference, 0, 0)
        tab.pivot(0, 0)
        assert np.array_equal(tab.body, reference[0])
        assert np.array_equal(tab.rhs, reference[1])
        assert tab.basis == reference[2]
        # The other rows are untouched.
        assert np.array_equal(tab.body[1:], body[1:])


class TestPhases:
    def test_one_phase1_serves_both_objectives(self):
        # x0 + x1 = 4, x0 - x1 <= 2: max x0 is 3, min x0 is 0.
        matrix, senses, rhs = [[1, 1], [1, -1]], ["==", "<="], [4, 2]
        start = simplex.extend(simplex.empty(2), matrix, senses, rhs)
        worst = simplex.phase2(start, [1, 0], maximize=True)
        best = simplex.phase2(start, [1, 0])
        assert worst.objective == pytest.approx(3.0)
        assert best.objective == pytest.approx(0.0)
        for costs, maximize, result in (([1, 0], True, worst),
                                        ([1, 0], False, best)):
            alone = lp(costs, matrix, senses, rhs, maximize=maximize)
            assert (result.objective, result.values, result.iterations) \
                == (alone.objective, alone.values, alone.iterations)

    def test_infeasible_start(self):
        start = simplex.extend(simplex.empty(2), [[1, 1], [1, 1]],
                               ["<=", ">="], [1, 3])
        assert start.status is Status.INFEASIBLE
        result = simplex.phase2(start, [1, 0])
        assert result.status is Status.INFEASIBLE
        assert result.iterations == start.iterations
