"""Human-readable WCET report generation.

Produces the artifact a timing-analysis tool hands to an engineer: the
estimated bound, the solver evidence (constraint sets, LP behaviour),
per-block worst-case accounting, and a concrete worst-case path —
rendered as Markdown.
"""

from __future__ import annotations

from ..constraints import qualified
from ..hw import cost_table
from .ipet import Analysis
from .path_extract import extract_path
from .report import BoundReport


def markdown_report(analysis: Analysis,
                    report: BoundReport | None = None,
                    max_blocks: int = 20) -> str:
    """A Markdown WCET/BCET report for `analysis`.

    `report` may be passed to avoid re-estimating.
    """
    if report is None:
        report = analysis.estimate()
    entry = analysis.entry
    lines = [
        f"# Timing report: `{entry}()`",
        "",
        f"* machine: **{report.machine}**",
        f"* estimated bound: **[{report.best:,}, {report.worst:,}]** "
        "cycles",
        f"* constraint sets: {report.sets_solved} solved "
        f"({len(report.refuted_sets)} refuted before the LP), "
        f"{report.sets_pruned} pruned as null "
        f"(of {report.sets_total} expanded)",
        f"* LP calls: {report.lp_calls}; every first relaxation "
        f"integral: {report.all_first_relaxations_integral}",
        "",
        "## Worst-case block accounting",
        "",
        "| block | function | count | worst cost | contribution |",
        "|-------|----------|------:|-----------:|-------------:|",
    ]

    rows = []
    for scope, function in analysis._scopes():
        costs = cost_table(analysis.cfgs[function], analysis.machine)
        for block_id, cost in costs.items():
            var = qualified(scope, f"x{block_id}")
            count = int(report.worst_counts.get(var, 0))
            if count:
                rows.append((count * cost.worst, scope, block_id,
                             count, cost.worst))
    rows.sort(reverse=True)
    total = sum(r[0] for r in rows) or 1
    for contribution, scope, block_id, count, worst in rows[:max_blocks]:
        share = contribution / total
        lines.append(f"| B{block_id} | {scope} | {count:,} | "
                     f"{worst:,} | {contribution:,} ({share:.0%}) |")
    if len(rows) > max_blocks:
        rest = sum(r[0] for r in rows[max_blocks:])
        lines.append(f"| ... | {len(rows) - max_blocks} more | | | "
                     f"{rest:,} |")

    lines += ["", "## Worst-case path", ""]
    try:
        trace = extract_path(analysis.cfgs[entry], report.worst_counts,
                             scope=_entry_scope(analysis))
        lines.append("Source-line trace (line x repeats):")
        lines.append("")
        chunk = ", ".join(
            f"{line}" + (f"x{n}" if n > 1 else "")
            for line, n in trace.line_trace())
        lines.append(f"`{chunk}`")
    except Exception as error:  # pragma: no cover - diagnostic path
        lines.append(f"(path extraction unavailable: {error})")

    lines += ["", "## Loops and bounds", ""]
    for loop in analysis.loops:
        bound = analysis._bounds.get(loop.key)
        text = f"[{bound.lo}, {bound.hi}]" if bound else "(unbounded!)"
        lines.append(f"* {loop}: {text}")
    if not analysis.loops:
        lines.append("* no loops reachable from the entry")

    lines += _provenance_section(analysis, report)
    return "\n".join(lines)


def _provenance_section(analysis: Analysis,
                        report: BoundReport) -> list[str]:
    """Where the worst bound comes from: winning set, binding
    constraints, degradations (see :mod:`repro.obs.explain`)."""
    from ..obs.explain import explain_bound

    lines = ["", "## Bound provenance", ""]
    try:
        explanation = explain_bound(analysis, report)
    except Exception as error:  # pragma: no cover - diagnostic path
        lines.append(f"(explanation unavailable: {error})")
        return lines
    lines.append(f"* winning constraint set: #{explanation.set_index} "
                 f"of {explanation.sets_solved}")
    binding = [c for c in explanation.constraints if c.binding]
    if binding:
        lines.append("* binding constraints at the optimum "
                     "(slack ≈ 0):")
        for constraint in binding:
            lines.append(f"  * `{constraint.label or constraint.text}` "
                         f"({constraint.kind})")
    if explanation.relaxed_sets:
        lines.append(f"* sets degraded to LP relaxation: "
                     f"{explanation.relaxed_sets} (bound is sound but "
                     "possibly loose)")
    lines.append(f"* breakdown check: per-block cycles sum to "
                 f"{explanation.total:,.0f} "
                 f"({'=' if explanation.consistent else '!='} reported "
                 f"bound {explanation.bound:,})")
    return lines


def _entry_scope(analysis: Analysis) -> str:
    # In context mode the entry instance's scope is its instance id,
    # which equals the entry function name.
    return analysis.entry
