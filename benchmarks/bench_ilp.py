"""§VI-A solver behaviour — "The CPU times taken for each ILP problem
were insignificant ... the branch-and-bound ILP solver finds that the
solution of the very first linear program call it makes is integer
valued."

Benchmarks the raw ILP solve time per routine and asserts both claims
on our from-scratch simplex + branch & bound.  Each routine's
``Analysis.estimate`` is timed over several warm rounds, so its median
follows the code rather than one cold run's luck on a shared host.
"""

import pytest
from conftest import one_shot

from repro.programs import all_benchmarks

NAMES = list(all_benchmarks())

#: Timed rounds per routine (after one untimed warm-up round).
ROUNDS = 7


@pytest.mark.parametrize("name", NAMES)
def test_ilp_solve_time(benchmark, benchmarks, name):
    bench = benchmarks[name]
    analysis = bench.make_analysis()

    report = benchmark.pedantic(analysis.estimate, rounds=ROUNDS,
                                iterations=1, warmup_rounds=1)

    # Every ILP terminated at the root: the first LP relaxation of an
    # IPET system is already integral (network-flow structure).
    assert report.all_first_relaxations_integral
    # Two LP calls (worst + best, sharing one simplex phase 1) per
    # feasible constraint set, and no branching nodes beyond the roots.
    assert all(r.stats.nodes == r.stats.lp_calls
               for r in report.set_results)
    # "less than 2 seconds on an SGI Indigo" — generously, per ILP on
    # a modern laptop running pure Python: well under 2 s total.
    assert benchmark.stats.stats.max < 10.0


def test_simplex_scales_with_suite(benchmark, benchmarks):
    """Total simplex iterations across the whole suite stay small —
    the LPs behave like the polynomial network-flow problems the paper
    proves them equivalent to for IDL-expressible constraints."""

    def run_all():
        total = 0
        for bench in benchmarks.values():
            report = bench.make_analysis().estimate()
            total += sum(r.stats.simplex_iterations
                         for r in report.set_results)
        return total

    total = one_shot(benchmark, run_all)
    assert 0 < total < 50_000
