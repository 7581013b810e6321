"""Ablation C — call-context sensitivity (paper Fig. 6 / eq. 18).

The paper creates "a separate set of x_i variables ... for this
instance of the call" so path information can link callers to callees
per site.  This bench measures what that buys on a routine whose call
sites have very different loop trip counts, and what it costs in ILP
size.
"""

from conftest import one_shot

from repro.analysis import Analysis
from repro.experiments.ablations import MULTI_SITE, context_study


def test_context_study(benchmark):
    rows = one_shot(benchmark, context_study)
    merged, ctx = rows
    assert merged.model.startswith("merged")
    # Per-site knowledge shrinks the worst-case bound: the merged
    # model charges the 64-iteration bound at all three sites.
    assert ctx.worst < 0.6 * merged.worst


def test_context_matches_merged_without_extra_info(benchmark):
    """With identical information the two models give identical
    bounds — context expansion alone adds no pessimism."""

    def both():
        merged = Analysis(MULTI_SITE, entry="driver")
        merged.bound_loop(lo=0, hi=64, function="work")
        ctx = Analysis(MULTI_SITE, entry="driver",
                       context_sensitive=True)
        ctx.bound_loop(lo=0, hi=64, function="work")
        return merged.estimate(), ctx.estimate()

    merged_report, ctx_report = one_shot(benchmark, both)
    assert merged_report.interval == ctx_report.interval


def test_context_ilp_size_cost():
    """Each call site clones the callee's variables: measure the ILP
    growth that precision costs."""
    merged = Analysis(MULTI_SITE, entry="driver")
    merged.bound_loop(lo=0, hi=64, function="work")
    ctx = Analysis(MULTI_SITE, entry="driver", context_sensitive=True)
    ctx.bound_loop(lo=0, hi=64, function="work")
    merged_vars = {v for row in merged._base_system().rows for v in row}
    ctx_vars = {v for row in ctx._base_system().rows for v in row}
    # Three call sites -> three instances of work() instead of one.
    assert len(ctx_vars) > len(merged_vars)
