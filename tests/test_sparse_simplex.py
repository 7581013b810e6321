"""The sparse-row simplex against the dense NumPy engine it replaced.

``tests/dense_simplex.py`` keeps that engine as the reference.  On
random integral and fractional LPs, on phase 1 extension chains and on
every LP the 13 Table-I routines solve, both engines must agree
exactly on status, pivot counts, the final basis and the basic values,
and reach objectives within 4 ulps: ``c_B . b`` is summed in row order
here and in BLAS's order there, so the ulps are those of the sum of
its terms' magnitudes: a sum that cancels to a small objective may
move by a few ulps of its terms, not of itself.

One exception, on fractional data only: an extension puts its new rows
in canonical form with a sum over the start's rows (``factors @
old.body`` there), so after a fractional extension the basic values
may differ in their last bits (10 of 2,521 splits of the fractional
LPs below, by at most 9e-16 relative); they are compared to 1e-12
there, and everything else exactly.  On integral data, IPET's, every
sum is exact.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.ilp import model, simplex
from repro.programs import all_benchmarks

from . import dense_simplex as dense
from .test_ilp_model import TestPresolve as _Presolve


def _ulps(a: float, b: float, scale: float) -> float:
    """|a - b| in ulps of `scale`."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b), scale))


def _phase1_state(start) -> tuple:
    """What a phase 1 result decides: status, pivot counts, its column
    layout, the final basis and the basic values."""
    tab = start.tableau
    return (start.status, start.iterations, start.search_iterations,
            start.columns, start.artificials,
            None if tab is None else (tab.nrows, tab.ncols, list(tab.basis),
                                      [float(v) for v in tab.rhs]))


def _same_values(ours, theirs, exact: bool) -> bool:
    """Equal, or to 1e-12 relative unless `exact`."""
    if exact or ours == theirs:
        return ours == theirs
    return len(ours) == len(theirs) and all(
        abs(a - b) <= 1e-12 * max(1.0, abs(b))
        for a, b in zip(ours, theirs))


def _assert_phase1_agrees(ours, theirs, exact: bool = True):
    ours, theirs = _phase1_state(ours), _phase1_state(theirs)
    if ours[-1] is None or theirs[-1] is None:
        assert ours == theirs
        return
    assert ours[:-1] + (ours[-1][:3],) == theirs[:-1] + (theirs[-1][:3],)
    assert _same_values(ours[-1][3], theirs[-1][3], exact)


def _phase2(engine, start, costs, maximize, **limits):
    """(result, basis): phase 2's result and the basis its tableau
    ends in (None when it runs no optimization)."""
    copies = []
    original = engine._Tableau.copy

    def spy(tab):
        twin = original(tab)
        copies.append(twin)
        return twin

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine._Tableau, "copy", spy)
        result = engine.phase2(start, costs, maximize=maximize, **limits)
    return result, (list(copies[0].basis) if copies else None)


def _assert_phase2_agrees(ours_start, theirs_start, costs, maximize,
                          exact: bool = True, **limits):
    ours, our_basis = _phase2(simplex, ours_start, costs, maximize,
                              **limits)
    theirs, their_basis = _phase2(dense, theirs_start, costs, maximize,
                                  **limits)
    assert (ours.status, ours.iterations, list(ours.values), our_basis) == (
        theirs.status, theirs.iterations, list(theirs.values), their_basis)
    assert _same_values(list(ours.values.values()),
                        list(theirs.values.values()), exact)
    if theirs.objective is None:
        assert ours.objective is None
    elif exact:
        scale = sum(abs(float(costs[int(j)]) * value)
                    for j, value in ours.values.items())
        assert _ulps(ours.objective, theirs.objective, scale) <= 4, (
            ours.objective, theirs.objective)
    else:
        assert ours.objective == pytest.approx(theirs.objective, rel=1e-12,
                                               abs=1e-12)
    return ours


def _assert_lp_agrees(costs, matrix, senses, rhs):
    """Phase 1 of the whole system, then both senses, on both engines."""
    n = len(costs)
    ours = simplex.extend(simplex.empty(n), simplex.sparse_rows(matrix, n),
                          senses, rhs)
    theirs = dense.extend(dense.empty(n), matrix, senses, rhs)
    _assert_phase1_agrees(ours, theirs)
    return [_assert_phase2_agrees(ours, theirs, costs, maximize)
            for maximize in (True, False)]


def _fractional_lp(seed: int):
    """A random LP with fractional coefficients, right-hand sides and
    costs; about half have a row bounding every column."""
    rng = np.random.default_rng(10_000 + seed)
    n, m = int(rng.integers(2, 9)), int(rng.integers(1, 10))
    mask = rng.random((m, n)) < rng.uniform(0.3, 0.9)
    matrix = (rng.integers(-6, 7, size=(m, n))
              / rng.integers(1, 5, size=(m, n))) * mask
    rhs = rng.integers(-4, 20, size=m) / rng.integers(1, 4, size=m)
    senses = [str(rng.choice(["<=", "<=", ">=", "=="])) for _ in range(m)]
    if rng.random() < 0.5:
        matrix = np.vstack([matrix, np.ones(n) / 3])
        rhs = np.append(rhs, 50.0 / 7)
        senses.append("<=")
    costs = rng.integers(-5, 6, size=n) / rng.integers(1, 4, size=n)
    return costs, matrix, senses, rhs


@pytest.mark.parametrize("chunk", range(8))
def test_random_integral_lps(chunk):
    """400 ``TestPresolve.random_problem`` LPs, each maximized and
    minimized."""
    statuses = set()
    for seed in range(50 * chunk, 50 * (chunk + 1)):
        costs, matrix, senses, rhs, *_ = \
            _Presolve.random_problem(seed).to_arrays()
        results = _assert_lp_agrees(costs, matrix, senses, rhs)
        statuses.update(result.status for result in results)
    assert len(statuses) >= 2


@pytest.mark.parametrize("chunk", range(8))
def test_random_fractional_lps(chunk):
    """400 LPs with fractional entries, each maximized and minimized."""
    statuses = set()
    for seed in range(50 * chunk, 50 * (chunk + 1)):
        results = _assert_lp_agrees(*_fractional_lp(seed))
        statuses.update(result.status for result in results)
    assert len(statuses) == 3


@pytest.mark.parametrize("chunk", range(4))
def test_extension_chains(chunk):
    """Phase 1 of a prefix of the rows, extended by the rest, at every
    split of 100 integral and 100 fractional LPs."""
    for seed in range(25 * chunk, 25 * (chunk + 1)):
        integral = _Presolve.random_problem(seed).to_arrays()[:4]
        for exact, (costs, matrix, senses, rhs) in (
                (True, integral), (False, _fractional_lp(seed))):
            n = len(costs)
            rows = simplex.sparse_rows(matrix, n)
            for split in range(len(rhs) + 1):
                ours = simplex.extend(simplex.empty(n), rows[:split],
                                      senses[:split], rhs[:split])
                theirs = dense.extend(dense.empty(n), matrix[:split],
                                      senses[:split], rhs[:split])
                _assert_phase1_agrees(ours, theirs)
                ours = simplex.extend(ours, rows[split:], senses[split:],
                                      rhs[split:])
                theirs = dense.extend(theirs, matrix[split:],
                                      senses[split:], rhs[split:])
                _assert_phase1_agrees(ours, theirs, exact)
                for maximize in (True, False):
                    _assert_phase2_agrees(ours, theirs, costs, maximize,
                                          exact)


def test_budgets_trip_at_the_same_pivot():
    """A pivot budget inside phase 1 and inside phase 2 trips at the
    same pivot in both engines."""
    tripped = 0
    for seed in range(40):
        costs, matrix, senses, rhs, *_ = \
            _Presolve.random_problem(seed).to_arrays()
        n = len(costs)
        for budget in range(4):
            outcomes = []
            for engine, rows in ((simplex, simplex.sparse_rows(matrix, n)),
                                 (dense, matrix)):
                try:
                    start = engine.extend(engine.empty(n), rows, senses,
                                          rhs, max_iter=budget)
                    result = engine.phase2(start, costs, maximize=True,
                                           max_iter=budget)
                    outcomes.append((result.status, result.iterations))
                except simplex.ILPTimeoutError as error:
                    outcomes.append(("timeout", error.iterations))
            assert outcomes[0] == outcomes[1], (seed, budget)
            tripped += outcomes[0][0] == "timeout"
    assert tripped > 0


class _SideBySide:
    """An LP engine for :class:`repro.ilp.model.Polyhedron` that runs
    every call on the sparse engine and on the dense reference, checks
    that they agree, and hands back the sparse engine's result."""

    MAX_ITER = simplex.MAX_ITER

    def __init__(self):
        #: id of a sparse phase 1 result -> (it, the dense twin).
        self.twins = {}
        self.calls = {"extend": 0, "phase2": 0}

    def _pair(self, ours, theirs):
        self.twins[id(ours)] = (ours, theirs)
        return ours

    def empty(self, columns):
        return self._pair(simplex.empty(columns), dense.empty(columns))

    def extend(self, start, rows, senses, rhs, **limits):
        theirs = self.twins[id(start)][1]
        ours = simplex.extend(start, rows, senses, rhs, **limits)
        theirs = dense.extend(theirs,
                              model._densify(rows, range(start.columns)),
                              senses, rhs, **limits)
        _assert_phase1_agrees(ours, theirs)
        self.calls["extend"] += 1
        return self._pair(ours, theirs)

    def phase2(self, start, costs, maximize=False, **limits):
        self.calls["phase2"] += 1
        return _assert_phase2_agrees(start, self.twins[id(start)][1], costs,
                                     maximize, **limits)


@pytest.mark.parametrize("name", sorted(all_benchmarks()))
def test_every_table1_lp(name, monkeypatch):
    """Every phase 1 and phase 2 of every set of a Table-I routine."""
    engine = _SideBySide()
    monkeypatch.setattr(model, "simplex", engine)
    report = all_benchmarks()[name].make_analysis().estimate()
    solved = [r for r in report.set_results if not r.stats.refuted]
    assert engine.calls["phase2"] >= 2 * sum(r.feasible for r in solved)
    assert engine.calls["extend"] >= 1


#: Imports the program's entry points and estimates two routines on
#: both LP engines, then fails if anything loaded NumPy.
NO_NUMPY = """
import sys
import repro, repro.cli, repro.service.server
from repro.programs import get_benchmark
for backend in ("simplex", "exact"):
    for name in ("check_data", "dhry"):
        report = get_benchmark(name).make_analysis(backend=backend).estimate()
        print(name, backend, report.interval)
loaded = sorted(name for name in sys.modules if name.startswith("numpy"))
assert not loaded, loaded
"""


def test_the_solve_path_imports_no_numpy():
    """Only ``Problem.to_arrays`` and the scipy oracle import NumPy."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", NO_NUMPY], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split("\n")[:4] == [
        "check_data simplex (34, 722)", "dhry simplex (6298, 18126)",
        "check_data exact (34, 722)", "dhry exact (6298, 18126)"]
