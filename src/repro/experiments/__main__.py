"""Command line entry: ``python -m repro.experiments [table1|table2|
table3|ablations|all]``."""

from __future__ import annotations

import argparse
import sys

from . import (Experiments, cache_split_study, context_study,
               enumeration_blowup, information_value_study,
               render_fig1, render_table1, render_table2,
               render_table3, render_tightness, solver_study)


def _print_ablations() -> None:
    print("Ablation A: explicit enumeration vs IPET (branchy loop)")
    print(f"{'bound':>6} {'paths':>10} {'enum s':>9} "
          f"{'LP calls':>8} {'ipet s':>8} {'agree':>6}")
    for row in enumeration_blowup():
        paths = "blow-up" if row.explicit_paths is None \
            else f"{row.explicit_paths:,}"
        secs = "-" if row.explicit_seconds is None \
            else f"{row.explicit_seconds:.3f}"
        agree = "-" if row.worst_agrees is None else str(row.worst_agrees)
        print(f"{row.loop_bound:>6} {paths:>10} {secs:>9} "
              f"{row.ipet_lp_calls:>8} {row.ipet_seconds:>8.3f} {agree:>6}")

    print("\nAblation B: first-iteration cache split (worst-case cycles)")
    for row in cache_split_study():
        print(f"  {row.function:<18} {row.plain_worst:>10,} -> "
              f"{row.split_worst:>10,}  ({row.improvement:.1%} tighter)")

    print("\nAblation C: context sensitivity (worst-case cycles)")
    for row in context_study():
        print(f"  {row.model:<40} {row.worst:>10,}")

    print("\nAblation G: value of functionality constraints "
          "(interval shrink)")
    for row in information_value_study():
        print(f"  {row.function:<18} {row.minimal} -> "
              f"{row.constrained}  ({row.tightening:.1%} tighter)")

    print("\nAblation D: ILP solver behaviour across the suite")
    for row in solver_study():
        print(f"  {row.function:<18} sets={row.sets:>2} "
              f"lp_calls={row.lp_calls:>3} "
              f"simplex_iters={row.simplex_iterations:>6} "
              f"first_LP_integral={row.first_relaxation_integral}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables on the simulator.")
    parser.add_argument("what", nargs="?", default="all",
                        choices=["table1", "table2", "table3",
                                 "tightness", "fig1", "ablations",
                                 "all"])
    parser.add_argument("--json", metavar="PATH",
                        help="also dump all tables as JSON")
    parser.add_argument("--workers", type=int, metavar="N",
                        help="estimate the suite through the batch "
                             "engine with N pool workers")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="engine result cache (implies the engine)")
    parser.add_argument("--trace", metavar="PATH",
                        help="write a Chrome trace_event JSON of every "
                             "estimate (pipeline + solver spans)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from ..obs import Tracer

        tracer = Tracer()
    engine = None
    if args.workers or args.cache_dir:
        from ..engine import AnalysisEngine

        engine = AnalysisEngine(workers=args.workers,
                                cache_dir=args.cache_dir,
                                tracer=tracer)
    experiments = Experiments(engine=engine, tracer=tracer)
    if engine is not None:
        experiments.prefetch()
    if args.what in ("table1", "all"):
        print("TABLE I: SET OF BENCHMARK EXAMPLES")
        print(render_table1(experiments.table1()))
        print()
    if args.what in ("table2", "all"):
        print("TABLE II: PESSIMISM IN PATH ANALYSIS "
              "(estimated vs calculated)")
        print(render_table2(experiments.table2()))
        print()
    if args.what in ("table3", "all"):
        print("TABLE III: DISCREPANCY BETWEEN THE ESTIMATED BOUND AND "
              "THE MEASURED BOUND")
        print(render_table3(experiments.table3()))
        print()
    if args.what in ("tightness", "all"):
        print("TIGHTNESS: REALIZED vs ESTIMATED WORST CASE "
              "(witness-guided input search)")
        print(render_tightness(experiments.tightness()))
        print()
    if args.what in ("fig1", "all"):
        print("FIG 1: ESTIMATED vs MEASURED BOUND NESTING")
        print(render_fig1(experiments.table3()))
        print()
    if args.what in ("ablations", "all"):
        _print_ablations()
    if args.json:
        from .results import write_results

        write_results(experiments, args.json)
        print(f"JSON results written to {args.json}")
    if tracer is not None:
        from ..obs import write_chrome_trace

        write_chrome_trace(tracer.records(), args.trace)
        print(f"trace written to {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
