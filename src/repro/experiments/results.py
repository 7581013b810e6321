"""Machine-readable experiment results (JSON).

`python -m repro.experiments all --json results.json` dumps every
table and the solver stats as one JSON document, for regression
tracking and external plotting.
"""

from __future__ import annotations

import json

from .tables import Experiments


def collect_results(experiments: Experiments) -> dict:
    """All tables as plain dictionaries."""
    table1 = [
        {"function": r.function, "description": r.description,
         "lines": r.lines, "sets": r.sets, "refuted": r.refuted,
         "lp_calls": r.lp_calls,
         "simplex_iterations": r.simplex_iterations,
         "solve_seconds": round(r.solve_seconds, 6)}
        for r in experiments.table1()
    ]

    def bound_rows(rows):
        return [
            {"function": r.function,
             "estimated": list(r.estimated),
             "reference": list(r.reference),
             "pessimism": [round(p, 4) for p in r.pessimism],
             "sound": r.sound}
            for r in rows
        ]

    solver = []
    for name in experiments.benchmarks:
        report = experiments.report(name)
        solver.append({
            "function": name,
            "sets_total": report.sets_total,
            "sets_pruned": report.sets_pruned,
            "sets_solved": report.sets_solved,
            "lp_calls": report.lp_calls,
            "simplex_iterations": sum(
                r.stats.simplex_iterations for r in report.set_results),
            "nodes": sum(r.stats.nodes for r in report.set_results),
            "nodes_pruned": sum(
                r.stats.nodes_pruned for r in report.set_results),
            "relaxed_sets": report.relaxed_sets,
            "refuted_sets": report.refuted_sets,
            "first_relaxations_integral":
                report.all_first_relaxations_integral,
        })
    tightness = [
        {"function": r.function, "estimated": r.estimated,
         "realized": r.realized, "reference": r.reference,
         "ratio": round(r.ratio, 6), "agreement": r.agreement,
         "exact": r.exact, "sound": r.sound,
         "sim_runs": r.sim_runs}
        for r in experiments.tightness()
    ]

    return {
        "machine": experiments.machine.name,
        "table1": table1,
        "table2": bound_rows(experiments.table2()),
        "table3": bound_rows(experiments.table3()),
        "tightness": tightness,
        "solver": solver,
    }


def write_results(experiments: Experiments, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(collect_results(experiments), handle, indent=2)
        handle.write("\n")
