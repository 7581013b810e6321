"""The bound explainer: *why* is the estimate what it is?

A WCET number nobody can audit is a number nobody should trust (the
paper's interactive tool showed its users the extreme path for exactly
this reason).  :func:`explain_bound` augments a
:class:`~repro.analysis.BoundReport` with provenance:

* the **winning constraint set** — which DNF set of the functionality
  constraints produced the max (worst) / min (best) bound;
* the **witness** — the optimal nonzero execution counts (``x_i``
  block counts, ``d_i`` edge counts, per-context ``scope::x_i``
  counts) that realize the bound;
* the **binding constraints** — loop-bound and functionality
  constraints with slack ≈ 0 at the optimum, i.e. the user-supplied
  facts that actually limited the bound (structural flow equalities
  bind by definition and are only counted);
* the **cycle breakdown** — per-block ``c_i * x_i`` contributions that
  sum exactly to the reported bound.

Sets that timed out and degraded to their LP relaxation are flagged:
their bound is sound but possibly not tight, and an explanation built
on one says so.  Sets that bound propagation refuted before any LP
are named too: they hold no integer point, so no bound comes from
them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import AnalysisError, SchemaMismatchError

#: Slack at or below this is "binding" (IPET data is integral; the
#: simplex tolerance is far tighter than this).
BINDING_TOL = 1e-6

#: Version stamped into :func:`explanation_to_dict` output; dumps
#: without the key predate versioning and are treated as version 1.
EXPLANATION_SCHEMA = 1


@dataclass
class ConstraintLine:
    """One non-structural constraint evaluated at the witness."""

    kind: str                # "loop" | "functionality"
    label: str               # e.g. "loop check_data:5 hi" or the text
    text: str                # rendered constraint
    slack: float
    binding: bool


@dataclass
class BreakdownRow:
    """One objective term's contribution: ``cycles = unit * count``."""

    var: str                 # qualified count variable
    kind: str                # "block" | "edge"
    count: float
    unit: float              # cycles per execution
    cycles: float


@dataclass
class Explanation:
    """Full provenance for one direction of a bound."""

    entry: str
    machine: str
    direction: str                       # "worst" | "best"
    bound: int
    set_index: int
    sets_solved: int
    set_constraints: list[str] = field(default_factory=list)
    witness: dict = field(default_factory=dict)
    constraints: list[ConstraintLine] = field(default_factory=list)
    structural_equalities: int = 0
    breakdown: list[BreakdownRow] = field(default_factory=list)
    total: float = 0.0
    #: False when the winning set degraded to its LP relaxation
    #: (sound, but possibly looser than the integer optimum).
    tight: bool = True
    #: Indices of every set in the report that degraded to a
    #: relaxation bound.
    relaxed_sets: list[int] = field(default_factory=list)
    #: Indices of every set in the report that propagation refuted.
    refuted_sets: list[int] = field(default_factory=list)

    @property
    def binding(self) -> list[ConstraintLine]:
        return [c for c in self.constraints if c.binding]

    @property
    def consistent(self) -> bool:
        """Does the breakdown sum reproduce the reported bound?"""
        return abs(self.total - self.bound) < 0.5


def _slack(constraint, counts) -> float:
    """Distance from the constraint boundary at `counts` (>= 0 when
    satisfied; equalities are at 0 whenever they hold)."""
    value = constraint.expr.evaluate(counts)
    if constraint.sense == "<=":
        return -value
    if constraint.sense == ">=":
        return value
    return abs(value)


def _numeric_key(name: str):
    return tuple(int(p) if p.isdigit() else p
                 for p in re.split(r"(\d+)", name))


def explain_set(task, result, direction: str = "worst",
                relaxed_sets=(), entry: str = "", machine: str = "",
                sets_solved: int = 0, refuted_sets=()) -> Explanation:
    """Build the explanation for one solved constraint set."""
    if direction not in ("worst", "best"):
        raise AnalysisError(f"unknown direction {direction!r}")
    if direction == "worst":
        objective, counts = task.worst_obj, result.worst_counts
        bound = result.worst
        relaxed = getattr(result, "worst_relaxed", result.timed_out)
    else:
        objective, counts = task.best_obj, result.best_counts
        bound = result.best
        relaxed = getattr(result, "best_relaxed", result.timed_out)

    lines: list[ConstraintLine] = []
    structural = 0
    for constraint in task.base:
        name = constraint.name or ""
        if name.startswith("loop "):
            slack = _slack(constraint, counts)
            lines.append(ConstraintLine(
                "loop", name, repr(constraint), slack,
                slack <= BINDING_TOL))
        else:
            structural += 1
    for constraint in task.resolved:
        slack = _slack(constraint, counts)
        lines.append(ConstraintLine(
            "functionality", constraint.name or repr(constraint),
            repr(constraint), slack, slack <= BINDING_TOL))

    rows: list[BreakdownRow] = []
    total = objective.const
    for var in sorted(objective.coefs, key=_numeric_key):
        unit = objective.coefs[var]
        count = counts.get(var, 0.0)
        cycles = unit * count
        total += cycles
        if count and unit:
            local = var.rsplit("::", 1)[-1]
            kind = "block" if local.startswith("x") else "edge"
            rows.append(BreakdownRow(var, kind, count, unit, cycles))

    witness = {name: counts[name]
               for name in sorted(counts, key=_numeric_key)
               if counts[name]}
    texts = [c.name or repr(c) for c in task.resolved]
    return Explanation(
        entry=entry, machine=machine, direction=direction,
        bound=int(round(bound)), set_index=result.index,
        sets_solved=sets_solved, set_constraints=texts,
        witness=witness, constraints=lines,
        structural_equalities=structural, breakdown=rows, total=total,
        tight=not relaxed, relaxed_sets=list(relaxed_sets),
        refuted_sets=list(refuted_sets))


def explain_bound(analysis, report=None,
                  direction: str = "worst") -> Explanation:
    """Explain one direction of an :class:`~repro.Analysis` bound.

    Rebuilds the (deterministically ordered) constraint-set tasks and
    pairs the winning set's task with its solved result from `report`
    (estimating first when no report is passed).
    """
    if report is None:
        report = analysis.estimate()
    tasks = analysis.set_tasks()
    feasible = [r for r in report.set_results if r.feasible]
    if not feasible:
        raise AnalysisError("no feasible constraint set to explain")
    if direction == "worst":
        winner = max(feasible, key=lambda r: r.worst)
    elif direction == "best":
        winner = min(feasible, key=lambda r: r.best)
    else:
        raise AnalysisError(f"unknown direction {direction!r}")
    if winner.index >= len(tasks):
        raise AnalysisError(
            "report does not match this analysis "
            f"(set {winner.index} of {len(tasks)} tasks)")
    return explain_set(tasks[winner.index], winner, direction,
                       relaxed_sets=report.relaxed_sets,
                       entry=report.entry, machine=report.machine,
                       sets_solved=report.sets_solved,
                       refuted_sets=report.refuted_sets)


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_explanation(expl: Explanation, max_rows: int = 30) -> str:
    """The plain-text explanation ``repro explain`` prints."""
    arrow = "maximized" if expl.direction == "worst" else "minimized"
    lines = [
        f"{expl.direction}-case bound: {expl.bound:,} cycles for "
        f"{expl.entry}() on {expl.machine}",
        f"winning constraint set: #{expl.set_index} of "
        f"{expl.sets_solved} ({arrow} over all sets)",
    ]
    if not expl.tight:
        lines.append("  ** this set timed out and reports its LP "
                     "relaxation — sound but possibly not tight **")
    if expl.set_constraints:
        lines.append("  functionality constraints of this set:")
        for text in expl.set_constraints:
            lines.append(f"    {text}")
    else:
        lines.append("  (no functionality constraints; the set is "
                     "purely structural)")

    lines.append("")
    lines.append("witness (nonzero execution counts):")
    for name, value in expl.witness.items():
        lines.append(f"  {name} = {value:g}")

    lines.append("")
    binding = expl.binding
    lines.append(f"binding constraints at the optimum "
                 f"(slack <= {BINDING_TOL:g}):")
    for line in binding:
        lines.append(f"  [{line.kind:<13}] {line.label}")
    if not binding:
        lines.append("  (none beyond the structural equalities)")
    lines.append(f"  (+ {expl.structural_equalities} structural "
                 "flow/link equalities, binding by definition)")
    loose = [c for c in expl.constraints if not c.binding]
    if loose:
        lines.append("non-binding constraints (slack shown):")
        for line in loose:
            lines.append(f"  [{line.kind:<13}] {line.label} "
                         f"(slack {line.slack:g})")

    lines.append("")
    lines.append(f"per-block cycle breakdown ({expl.direction} costs):")
    lines.append(f"  {'variable':<28} {'count':>8} {'unit':>8} "
                 f"{'cycles':>12}")
    shown = sorted(expl.breakdown, key=lambda r: -abs(r.cycles))
    for row in shown[:max_rows]:
        lines.append(f"  {row.var:<28} {row.count:>8g} {row.unit:>8g} "
                     f"{row.cycles:>12,.0f}")
    if len(shown) > max_rows:
        rest = sum(r.cycles for r in shown[max_rows:])
        lines.append(f"  {'... ' + str(len(shown) - max_rows) + ' more':<46} "
                     f"{rest:>12,.0f}")
    check = "=" if expl.consistent else "!="
    lines.append(f"  {'total':<46} {expl.total:>12,.0f}")
    lines.append(f"  ({check} reported {expl.direction} bound "
                 f"{expl.bound:,})")
    if expl.relaxed_sets:
        lines.append("")
        lines.append(f"relaxation-bound (not-tight) sets in this run: "
                     f"{expl.relaxed_sets}")
    if expl.refuted_sets:
        lines.append("")
        lines.append(f"sets refuted before the LP (no integer point): "
                     f"{expl.refuted_sets}")
    return "\n".join(lines)


def _delta_tag(value: float) -> str:
    return f"{value:+,.0f}"


@dataclass
class DeltaRow:
    """One breakdown variable whose contribution changed."""

    var: str
    kind: str                       # "block" | "edge"
    before_count: float
    after_count: float
    before_cycles: float
    after_cycles: float

    @property
    def delta_cycles(self) -> float:
        return self.after_cycles - self.before_cycles


@dataclass
class ExplanationDelta:
    """What changed between two explanations of the same routine.

    Built from the dict form (:func:`explanation_to_dict`) so a live
    run can diff against a saved ``repro explain --json`` file —
    the workflow behind ``repro explain --against other.json``.
    """

    entry: str
    machine: str
    direction: str
    before_bound: int
    after_bound: int
    #: (before, after) when the winning DNF set changed, else None.
    set_index_change: tuple | None = None
    binding_added: list = field(default_factory=list)
    binding_removed: list = field(default_factory=list)
    rows: list = field(default_factory=list)      # DeltaRow, |delta| desc
    #: Identity mismatches (different entry/machine/direction) — the
    #: diff is still computed but should be read with suspicion.
    notes: list = field(default_factory=list)

    @property
    def bound_delta(self) -> int:
        return self.after_bound - self.before_bound

    @property
    def unchanged(self) -> bool:
        return (not self.bound_delta and self.set_index_change is None
                and not self.binding_added and not self.binding_removed
                and not self.rows)


def check_explanation_schema(expl, label: str = "explanation") -> None:
    """Validate one :func:`explanation_to_dict`-shaped dump.

    Raises :class:`~repro.errors.SchemaMismatchError` (a clear,
    non-zero CLI exit) instead of letting a malformed or
    wrong-versioned dump surface later as a ``KeyError``.
    """
    if not isinstance(expl, dict):
        raise SchemaMismatchError(f"{label}: not a JSON object")
    schema = expl.get("schema", 1)
    if schema != EXPLANATION_SCHEMA:
        raise SchemaMismatchError(
            f"{label}: explanation schema version {schema!r} is not "
            f"supported (this build reads version "
            f"{EXPLANATION_SCHEMA}); re-export it with `repro explain "
            "--json` from a matching build")
    if "bound" not in expl:
        raise SchemaMismatchError(
            f"{label}: not an explanation dump (missing 'bound'; "
            "expected the JSON written by `repro explain --json`)")
    for row in expl.get("breakdown", []):
        if not isinstance(row, dict) or not {"var", "count",
                                             "cycles"} <= row.keys():
            raise SchemaMismatchError(
                f"{label}: malformed breakdown row {row!r} (expected "
                "var/count/cycles keys)")
    for line in expl.get("binding", []):
        if not isinstance(line, dict) or not {"kind",
                                              "label"} <= line.keys():
            raise SchemaMismatchError(
                f"{label}: malformed binding line {line!r} (expected "
                "kind/label keys)")


def diff_explanations(before: dict, after: dict) -> ExplanationDelta:
    """Diff two :func:`explanation_to_dict` dicts (before -> after).

    Both dumps are schema-checked first; an incompatible dump raises
    :class:`~repro.errors.SchemaMismatchError` rather than a
    ``KeyError`` mid-diff.
    """
    check_explanation_schema(before, "before")
    check_explanation_schema(after, "after")
    notes = []
    for key in ("entry", "machine", "direction"):
        if before.get(key) != after.get(key):
            notes.append(f"{key} differs: {before.get(key)!r} vs "
                         f"{after.get(key)!r}")

    def binding_map(expl: dict) -> dict:
        return {(line["kind"], line["label"]): line
                for line in expl.get("binding", [])}

    bound_before = binding_map(before)
    bound_after = binding_map(after)
    added = [bound_after[key] for key in sorted(bound_after)
             if key not in bound_before]
    removed = [bound_before[key] for key in sorted(bound_before)
               if key not in bound_after]

    def breakdown_map(expl: dict) -> dict:
        return {row["var"]: row for row in expl.get("breakdown", [])}

    rows_before = breakdown_map(before)
    rows_after = breakdown_map(after)
    rows = []
    for var in sorted(set(rows_before) | set(rows_after),
                      key=_numeric_key):
        b = rows_before.get(var)
        a = rows_after.get(var)
        kind = (a or b).get("kind", "block")
        b_count = b["count"] if b else 0.0
        a_count = a["count"] if a else 0.0
        b_cycles = b["cycles"] if b else 0.0
        a_cycles = a["cycles"] if a else 0.0
        if (abs(a_cycles - b_cycles) > 1e-9
                or abs(a_count - b_count) > 1e-9):
            rows.append(DeltaRow(var, kind, b_count, a_count,
                                 b_cycles, a_cycles))
    rows.sort(key=lambda r: -abs(r.delta_cycles))

    set_change = None
    if before.get("set_index") != after.get("set_index"):
        set_change = (before.get("set_index"), after.get("set_index"))

    return ExplanationDelta(
        entry=after.get("entry", ""), machine=after.get("machine", ""),
        direction=after.get("direction", "worst"),
        before_bound=int(before.get("bound", 0)),
        after_bound=int(after.get("bound", 0)),
        set_index_change=set_change, binding_added=added,
        binding_removed=removed, rows=rows, notes=notes)


def render_explanation_delta(delta: ExplanationDelta,
                             max_rows: int = 30) -> str:
    """The plain-text diff ``repro explain --against`` prints."""
    lines = [
        f"{delta.direction}-case bound: {delta.before_bound:,} -> "
        f"{delta.after_bound:,} cycles "
        f"({_delta_tag(delta.bound_delta)}) for {delta.entry}() on "
        f"{delta.machine}",
    ]
    for note in delta.notes:
        lines.append(f"  ** {note} **")
    if delta.set_index_change is not None:
        b, a = delta.set_index_change
        lines.append(f"winning constraint set: #{b} -> #{a}")
    if delta.unchanged:
        lines.append("(no differences)")
        return "\n".join(lines)

    if delta.binding_added or delta.binding_removed:
        lines.append("")
        lines.append("binding-constraint changes:")
        for line in delta.binding_added:
            lines.append(f"  + [{line['kind']:<13}] {line['label']}")
        for line in delta.binding_removed:
            lines.append(f"  - [{line['kind']:<13}] {line['label']}")

    if delta.rows:
        lines.append("")
        lines.append("per-block breakdown changes (cycles):")
        lines.append(f"  {'variable':<28} {'before':>10} {'after':>10} "
                     f"{'delta':>10}")
        for row in delta.rows[:max_rows]:
            lines.append(f"  {row.var:<28} {row.before_cycles:>10,.0f} "
                         f"{row.after_cycles:>10,.0f} "
                         f"{_delta_tag(row.delta_cycles):>10}")
        if len(delta.rows) > max_rows:
            rest = sum(r.delta_cycles for r in delta.rows[max_rows:])
            lines.append(f"  ... {len(delta.rows) - max_rows} more rows "
                         f"({_delta_tag(rest)} cycles)")
        total = sum(r.delta_cycles for r in delta.rows)
        lines.append(f"  {'total change':<28} {'':>10} {'':>10} "
                     f"{_delta_tag(total):>10}")
    return "\n".join(lines)


def explanation_delta_to_dict(delta: ExplanationDelta) -> dict:
    """JSON-safe form (for ``repro explain --against ... --json``)."""
    return {
        "entry": delta.entry,
        "machine": delta.machine,
        "direction": delta.direction,
        "before_bound": delta.before_bound,
        "after_bound": delta.after_bound,
        "bound_delta": delta.bound_delta,
        "set_index_change": (list(delta.set_index_change)
                             if delta.set_index_change else None),
        "binding_added": list(delta.binding_added),
        "binding_removed": list(delta.binding_removed),
        "rows": [{"var": r.var, "kind": r.kind,
                  "before_count": r.before_count,
                  "after_count": r.after_count,
                  "before_cycles": r.before_cycles,
                  "after_cycles": r.after_cycles,
                  "delta_cycles": r.delta_cycles}
                 for r in delta.rows],
        "notes": list(delta.notes),
        "unchanged": delta.unchanged,
    }


def explanation_to_dict(expl: Explanation) -> dict:
    """JSON-safe form of an explanation (for ``repro explain --json``)."""
    return {
        "schema": EXPLANATION_SCHEMA,
        "entry": expl.entry,
        "machine": expl.machine,
        "direction": expl.direction,
        "bound": expl.bound,
        "set_index": expl.set_index,
        "sets_solved": expl.sets_solved,
        "set_constraints": list(expl.set_constraints),
        "witness": dict(expl.witness),
        "binding": [{"kind": c.kind, "label": c.label, "slack": c.slack}
                    for c in expl.binding],
        "structural_equalities": expl.structural_equalities,
        "breakdown": [{"var": r.var, "kind": r.kind, "count": r.count,
                       "unit": r.unit, "cycles": r.cycles}
                      for r in expl.breakdown],
        "total": expl.total,
        "tight": expl.tight,
        "relaxed_sets": list(expl.relaxed_sets),
        "refuted_sets": list(expl.refuted_sets),
        "consistent": expl.consistent,
    }
