"""Command-line front end — the cinderella workflow from a shell.

Subcommands mirror §V of the paper:

* ``annotate``  — print the annotated source listing (x_i / f_k labels);
* ``analyze``   — estimate the [best, worst] bound of a routine;
* ``run``       — execute a routine on the simulator (optionally with
  cycle accounting);
* ``disasm``    — show the compiled IR960 code.

Examples
--------
::

    python -m repro annotate prog.c
    python -m repro analyze prog.c --entry check_data \\
        --bound check_data:8:1:10 \\
        --constraint "(x4 = 0 & x6 = 1) | (x4 = 1 & x6 = 0)"
    python -m repro analyze prog.c --entry f --auto-bounds --machine dsp3210
    python -m repro run prog.c --entry f --arg 5 --set "data=1,2,3" --cycles
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import Analysis, annotate_program
from .codegen import compile_source, disassemble
from .errors import ReproError
from .hw import MACHINES
from .sim import CycleModel, Interpreter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="IPET timing analysis for MiniC programs "
                    "(Li & Malik, DAC 1995).")
    sub = parser.add_subparsers(dest="command", required=True)

    annotate = sub.add_parser(
        "annotate", help="print the annotated source listing")
    annotate.add_argument("file")
    annotate.add_argument("--functions",
                          help="comma-separated subset of functions")

    analyze = sub.add_parser(
        "analyze", help="estimate [best, worst] execution bounds")
    analyze.add_argument("file")
    analyze.add_argument("--entry", required=True,
                         help="routine to bound")
    analyze.add_argument("--bound", action="append", default=[],
                         metavar="[FN:][LINE:]LO:HI",
                         help="loop bound; FN defaults to the entry, "
                              "LINE may be omitted for a single loop")
    analyze.add_argument("--constraint", action="append", default=[],
                         metavar='TEXT[@FN]',
                         help="functionality constraint, optionally "
                              "scoped to function FN")
    analyze.add_argument("--auto-bounds", action="store_true",
                         help="derive counted-loop bounds automatically")
    analyze.add_argument("--machine", choices=sorted(MACHINES),
                         default="i960kb")
    analyze.add_argument("--context", action="store_true",
                         help="per-call-site callee instances")
    analyze.add_argument("--cache-split", action="store_true",
                         help="first-iteration cache refinement (par. IV)")
    analyze.add_argument("--show-counts", action="store_true",
                         help="print the extreme-case block counts")
    analyze.add_argument("--optimize", action="store_true",
                         help="constant folding + peephole before analysis")
    analyze.add_argument("--trace", metavar="PATH",
                         help="write a Chrome trace_event JSON of the "
                              "analysis (chrome://tracing / Perfetto)")

    explain = sub.add_parser(
        "explain", help="explain where a routine's bound comes from: "
                        "winning constraint set, witness counts, "
                        "binding constraints, cycle breakdown")
    explain.add_argument("target",
                         help="Table-I benchmark name or MiniC file")
    explain.add_argument("--entry",
                         help="routine to bound (file targets)")
    explain.add_argument("--bound", action="append", default=[],
                         metavar="[FN:][LINE:]LO:HI",
                         help="loop bound (file targets)")
    explain.add_argument("--constraint", action="append", default=[],
                         metavar="TEXT[@FN]",
                         help="functionality constraint (file targets)")
    explain.add_argument("--auto-bounds", action="store_true",
                         help="derive counted-loop bounds automatically")
    explain.add_argument("--machine", choices=sorted(MACHINES),
                         default="i960kb")
    explain.add_argument("--direction", choices=("worst", "best"),
                         default="worst",
                         help="explain the worst- or best-case bound")
    explain.add_argument("--json", action="store_true",
                         help="emit the explanation as JSON")
    explain.add_argument("--against", metavar="PATH",
                         help="diff against a saved `explain --json` "
                              "file: bound, binding-constraint and "
                              "per-block breakdown changes")
    explain.add_argument("--trace", metavar="PATH",
                         help="also write a Chrome trace of the run")

    obs = sub.add_parser(
        "obs", help="metrics snapshots: dump, diff or diff-trace")
    osub = obs.add_subparsers(dest="obs_command", required=True)
    odump = osub.add_parser(
        "dump", help="render a metrics snapshot (any --metrics file)")
    odump.add_argument("snapshot", metavar="PATH")
    odiff = osub.add_parser(
        "diff", help="per-metric delta between two snapshots")
    odiff.add_argument("before", metavar="BEFORE")
    odiff.add_argument("after", metavar="AFTER")
    otrace = osub.add_parser(
        "diff-trace", help="align two Chrome traces span-by-span and "
                           "report wall-time / solver-effort "
                           "regressions")
    otrace.add_argument("before", metavar="BEFORE")
    otrace.add_argument("after", metavar="AFTER")
    otrace.add_argument("--all", action="store_true",
                        help="include unchanged span groups")

    run = sub.add_parser("run", help="execute a routine on the simulator")
    run.add_argument("file")
    run.add_argument("--entry", required=True)
    run.add_argument("--arg", action="append", default=[], type=float,
                     help="scalar argument (repeatable)")
    run.add_argument("--set", action="append", default=[],
                     metavar="NAME=V[,V...]",
                     help="initialize a global scalar or array")
    run.add_argument("--cycles", action="store_true",
                     help="cycle-accurate timing (cold cache)")
    run.add_argument("--machine", choices=sorted(MACHINES),
                     default="i960kb")
    run.add_argument("--optimize", action="store_true")

    disasm = sub.add_parser("disasm", help="print compiled IR960 code")
    disasm.add_argument("file")
    disasm.add_argument("--optimize", action="store_true")

    report = sub.add_parser(
        "report", help="full Markdown WCET report (auto bounds)")
    report.add_argument("file")
    report.add_argument("--entry", required=True)
    report.add_argument("--bound", action="append", default=[],
                        metavar="[FN:][LINE:]LO:HI")
    report.add_argument("--machine", choices=sorted(MACHINES),
                        default="i960kb")
    report.add_argument("--optimize", action="store_true")

    engine = sub.add_parser(
        "engine", help="batch analysis engine (pool + result cache)")
    esub = engine.add_subparsers(dest="engine_command", required=True)
    erun = esub.add_parser(
        "run", help="run benchmark jobs through the solver pool")
    erun.add_argument("benchmarks", nargs="*", metavar="NAME",
                      help="Table-I benchmark names (default: the "
                           "whole suite)")
    erun.add_argument("--workers", type=int, metavar="N",
                      help="pool size (default: CPU count)")
    erun.add_argument("--machine", choices=sorted(MACHINES),
                      default="i960kb")
    erun.add_argument("--backend", choices=("simplex", "exact"),
                      default="simplex")
    erun.add_argument("--set-timeout", type=float, metavar="SECONDS",
                      help="per-constraint-set budget; a set that "
                           "exceeds it reports its (sound) LP "
                           "relaxation bound and is marked partial")
    erun.add_argument("--cache-dir", metavar="DIR",
                      help="result cache location (default: "
                           "$REPRO_CACHE_DIR or ~/.cache/repro/engine)")
    erun.add_argument("--no-cache", action="store_true",
                      help="disable the result cache")
    erun.add_argument("--metrics", metavar="PATH",
                      help="write the run's metrics registry snapshot "
                           "as JSON")
    erun.add_argument("--trace", metavar="PATH",
                      help="write a Chrome trace_event JSON of the "
                           "whole run (pipeline + per-set solver "
                           "spans, workers included)")
    estats = esub.add_parser(
        "stats", help="inspect the result cache / a saved metrics file")
    estats.add_argument("--cache-dir", metavar="DIR")
    estats.add_argument("--metrics", metavar="PATH",
                        help="render the engine.* summary of a metrics "
                             "file (engine run, serve or synth fuzz "
                             "--metrics)")
    estats.add_argument("--clear", action="store_true",
                        help="empty the cache")
    estats.add_argument("--journal", metavar="DIR",
                        help="inspect a service job journal instead: "
                             "WAL size, replayed frames, duplicates "
                             "folded, torn-tail drops, jobs by state")

    serve = sub.add_parser(
        "serve", help="run the analysis service (async HTTP job queue)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8787)
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="analysis workers (default: CPU count)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       metavar="N",
                       help="admission cap; beyond it submissions get "
                            "429 + Retry-After (0: unbounded)")
    serve.add_argument("--executor", choices=("process", "thread"),
                       default="process",
                       help="worker isolation (process: parallel + "
                            "crash-isolated; thread: low overhead)")
    serve.add_argument("--set-timeout", type=float, metavar="SECONDS",
                       help="default per-constraint-set solver budget")
    serve.add_argument("--max-iterations", type=int, metavar="N",
                       help="default simplex-pivot budget per ILP")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="result cache location (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro/engine)")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache")
    serve.add_argument("--metrics", metavar="PATH",
                       help="flush the metrics registry snapshot here "
                            "on graceful drain")
    serve.add_argument("--journal", metavar="DIR",
                       help="append every job transition to a "
                            "write-ahead log under DIR; on restart, "
                            "queued and in-flight jobs are recovered "
                            "and re-dispatched")
    serve.add_argument("--chaos", metavar="SCHEDULE",
                       default=os.environ.get("REPRO_CHAOS"),
                       help="deterministic fault injection: "
                            "'seed=N,POINT=COUNT[@PROB][~SECONDS],"
                            "...' (default $REPRO_CHAOS; see "
                            "'repro chaos points' and docs/chaos.md)")

    submit = sub.add_parser(
        "submit", help="submit benchmark jobs to a running service")
    submit.add_argument("benchmarks", nargs="*", metavar="NAME",
                        help="Table-I benchmark names (default: the "
                             "whole suite)")
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=8787)
    submit.add_argument("--machine", choices=sorted(MACHINES),
                        default="i960kb")
    submit.add_argument("--backend", choices=("simplex", "exact"),
                        default="simplex")
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline", type=float, metavar="SECONDS",
                        help="per-job deadline from admission; the "
                             "remainder at dispatch becomes the "
                             "solver budget")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="client-side wait budget per job")
    submit.add_argument("--no-wait", action="store_true",
                        help="submit and print ids without waiting")
    submit.add_argument("--json", action="store_true",
                        help="emit the final job records as JSON")
    submit.add_argument("--corpus", metavar="DIR",
                        help="submit synthesized programs from this "
                             "corpus directory (repro synth gen/fuzz "
                             "--corpus) instead of Table-I benchmarks")
    submit.add_argument("--limit", type=int, metavar="N",
                        help="with --corpus: submit at most N entries")
    submit.add_argument("--trace-out", metavar="PATH",
                        help="after the jobs finish, fetch each job's "
                             "spans from GET "
                             "/v1/jobs/{id}/trace and write the Chrome "
                             "trace JSON here (several jobs: the name "
                             "is suffixed per benchmark)")

    chaos = sub.add_parser(
        "chaos", help="deterministic fault injection: inspect "
                      "schedules and verify soundness invariants")
    csub = chaos.add_subparsers(dest="chaos_command", required=True)
    cshow = csub.add_parser(
        "show", help="parse a fault schedule and print its plan")
    cshow.add_argument("schedule", metavar="SCHEDULE",
                       help="'seed=N,POINT=COUNT[@PROB][~SECONDS],...'")
    csub.add_parser("points",
                    help="list the named injection points")
    cverify = csub.add_parser(
        "verify", help="audit a job journal: no job lost or "
                       "duplicated, bounds bit-identical to a serial "
                       "re-solve, witnesses satisfy their ILP "
                       "constraints")
    cverify.add_argument("--journal", required=True, metavar="DIR",
                         help="journal directory of the run to audit")
    cverify.add_argument("--no-serial", action="store_true",
                         help="skip the serial re-solve bound "
                              "comparison (structural audit only)")
    cverify.add_argument("--no-witness", action="store_true",
                         help="skip witness-vector validation")
    cverify.add_argument("--allow-pending", action="store_true",
                         help="tolerate non-terminal jobs (journal "
                              "from a live or undrained service)")
    cverify.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")

    synth = sub.add_parser(
        "synth", help="tightness lab: generate MiniC programs, hunt "
                      "worst-case inputs, fuzz analysis soundness")
    ysub = synth.add_subparsers(dest="synth_command", required=True)
    grades = ("tiny", "small", "medium", "large")
    ygen = ysub.add_parser(
        "gen", help="generate seeded random MiniC programs")
    ygen.add_argument("--seed", type=int, default=0)
    ygen.add_argument("--count", type=int, default=10, metavar="N")
    ygen.add_argument("--grade", choices=grades, default="small")
    ygen.add_argument("--corpus", metavar="DIR",
                      help="store the programs in this "
                           "content-addressed corpus directory")
    ygen.add_argument("--show", action="store_true",
                      help="print each program's source")
    yhunt = ysub.add_parser(
        "hunt", help="witness-guided worst-case input search on the "
                     "cycle-accurate simulator")
    yhunt.add_argument("benchmarks", nargs="*", metavar="NAME",
                       help="Table-I benchmark names (default: the "
                            "whole suite)")
    yhunt.add_argument("--machine", choices=sorted(MACHINES),
                       default="i960kb")
    yhunt.add_argument("--iterations", type=int, default=24,
                       metavar="N", help="hill-climb budget per "
                                         "benchmark (default 24)")
    yhunt.add_argument("--seed", type=int, default=0)
    yhunt.add_argument("--json", action="store_true")
    yfuzz = ysub.add_parser(
        "fuzz", help="differential soundness campaign: generate, "
                     "analyze (serial + engine), measure, assert "
                     "best <= measured <= worst, shrink violations")
    yfuzz.add_argument("--seed", type=int, default=0)
    yfuzz.add_argument("--count", type=int, default=100, metavar="N")
    yfuzz.add_argument("--grade", choices=grades, default="small")
    yfuzz.add_argument("--inputs", type=int, default=6, metavar="N",
                       help="input vectors measured per program "
                            "(default 6)")
    yfuzz.add_argument("--machine", choices=sorted(MACHINES),
                       default="i960kb")
    yfuzz.add_argument("--no-engine", action="store_true",
                       help="skip the serial-vs-engine differential")
    yfuzz.add_argument("--corpus", metavar="DIR",
                       help="store every generated program here")
    yfuzz.add_argument("--max-violations", type=int, default=5,
                       metavar="N")
    yfuzz.add_argument("--reproducer", metavar="PATH",
                       help="write the first violation's minimized "
                            "source here")
    yfuzz.add_argument("--metrics", metavar="PATH",
                       help="dump the campaign's synth.* metrics "
                            "snapshot as JSON")
    yfuzz.add_argument("--json", action="store_true",
                       help="machine-readable campaign report")
    ytight = ysub.add_parser(
        "tightness", help="realized-vs-estimated tightness table "
                          "(the experiments table next to Table III)")
    ytight.add_argument("benchmarks", nargs="*", metavar="NAME",
                        help="Table-I benchmark names (default: the "
                             "whole suite)")
    ytight.add_argument("--machine", choices=sorted(MACHINES),
                        default="i960kb")
    ytight.add_argument("--iterations", type=int, default=24,
                        metavar="N")
    ytight.add_argument("--seed", type=int, default=0)
    ytight.add_argument("--json", action="store_true")
    return parser


def _load(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _parse_bound(spec: str, entry: str):
    """[FN:][LINE:]LO:HI -> (function, line, lo, hi)."""
    parts = spec.split(":")
    if len(parts) == 2:
        fn, line = entry, None
    elif len(parts) == 3:
        if parts[0].isdigit():
            fn, line = entry, int(parts[0])
        else:
            fn, line = parts[0], None
    elif len(parts) == 4:
        fn, line = parts[0], int(parts[1])
    else:
        raise ReproError(f"bad --bound {spec!r}; use [FN:][LINE:]LO:HI")
    lo, hi = int(parts[-2]), int(parts[-1])
    return fn, line, lo, hi


def _apply_sets(interp: Interpreter, specs: list[str]) -> None:
    for spec in specs:
        name, _, values = spec.partition("=")
        if not values:
            raise ReproError(f"bad --set {spec!r}; use NAME=V[,V...]")
        parsed = [float(v) if "." in v else int(v)
                  for v in values.split(",")]
        interp.set_global(name.strip(),
                          parsed if len(parsed) > 1 else parsed[0])


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


def _make_tracer(path: str | None):
    """(tracer or None, finish callback writing the Chrome trace)."""
    if not path:
        return None, lambda records=None: None
    from .obs import Tracer, write_chrome_trace

    tracer = Tracer()

    def finish(records=None):
        write_chrome_trace(records if records is not None
                           else tracer.records(), path)
        print(f"trace written to {path}")

    return tracer, finish


def _cmd_obs(args) -> int:
    from .obs import MetricsRegistry, load_snapshot

    if args.obs_command == "dump":
        print(MetricsRegistry.load(args.snapshot).render())
        return 0
    if args.obs_command == "diff-trace":
        from .obs import diff_traces, load_trace_events, \
            render_trace_diff

        before = load_trace_events(args.before)
        after = load_trace_events(args.after)
        print(render_trace_diff(diff_traces(before, after),
                                show_all=args.all))
        return 0
    assert args.obs_command == "diff"
    before = load_snapshot(args.before)
    after = load_snapshot(args.after)
    print(MetricsRegistry.render_diff(MetricsRegistry.diff(before,
                                                           after)))
    return 0


def _cmd_explain(args) -> int:
    import json

    from .obs import (explain_bound, explanation_to_dict,
                      render_explanation)

    machine = MACHINES[args.machine]()
    tracer, finish_trace = _make_tracer(args.trace)
    if os.path.exists(args.target):
        program = compile_source(_load(args.target))
        if not args.entry:
            raise ReproError("--entry is required for file targets")
        analysis = Analysis(program, entry=args.entry, machine=machine,
                            tracer=tracer)
        if args.auto_bounds:
            analysis.auto_bound_loops()
        for spec in args.bound:
            fn, line, lo, hi = _parse_bound(spec, args.entry)
            analysis.bound_loop(lo, hi, function=fn, line=line)
        missing = analysis.loops_needing_bounds()
        if missing:
            print("loops still needing --bound:", file=sys.stderr)
            for loop in missing:
                print(f"  {loop}", file=sys.stderr)
            return 2
        for spec in args.constraint:
            text, _, fn = spec.partition("@")
            analysis.add_constraint(text, function=fn or None)
    else:
        from .programs import get_benchmark

        try:
            bench = get_benchmark(args.target)
        except KeyError:
            raise ReproError(
                f"{args.target!r} is neither a file nor a Table-I "
                "benchmark name")
        analysis = bench.make_analysis(machine=machine, tracer=tracer)

    report = analysis.estimate()
    explanation = explain_bound(analysis, report,
                                direction=args.direction)
    if args.against:
        from .obs import (check_explanation_schema, diff_explanations,
                          explanation_delta_to_dict,
                          render_explanation_delta)

        with open(args.against) as handle:
            before = json.load(handle)
        check_explanation_schema(before, label=args.against)
        delta = diff_explanations(before,
                                  explanation_to_dict(explanation))
        if args.json:
            print(json.dumps(explanation_delta_to_dict(delta),
                             indent=2))
        else:
            print(render_explanation_delta(delta))
    elif args.json:
        print(json.dumps(explanation_to_dict(explanation), indent=2))
    else:
        print(render_explanation(explanation))
    finish_trace(report.trace or None)
    return 0


def _cmd_engine(args) -> int:
    from pathlib import Path

    from .engine import (AnalysisEngine, AnalysisJob, ResultCache,
                         default_cache_dir)
    from .engine.metrics import render
    from .obs import MetricsRegistry, Tracer, write_chrome_trace

    if args.engine_command == "stats":
        if args.journal:
            return _journal_stats(args.journal)
        if args.metrics:
            print(render(MetricsRegistry.load(args.metrics)))
            return 0
        root = Path(args.cache_dir or default_cache_dir()).expanduser()
        if not root.is_dir():
            raise ReproError(f"no cache at {root}")
        cache = ResultCache(root)
        if args.clear:
            print(f"removed {cache.clear()} entries")
            return 0
        stats = cache.stats()
        print(f"cache: {stats.root}")
        print(f"entries: {stats.entries}, {stats.total_bytes:,} bytes")
        print(f"quarantined: {stats.quarantined}")
        return 0

    assert args.engine_command == "run"
    from .programs import all_benchmarks

    names = args.benchmarks or list(all_benchmarks())
    machine = MACHINES[args.machine]()
    try:
        jobs = [AnalysisJob.from_benchmark(name, machine=machine,
                                           backend=args.backend)
                for name in names]
    except KeyError as error:
        raise ReproError(str(error.args[0]))
    cache_dir = None if args.no_cache \
        else (args.cache_dir or default_cache_dir())
    # Always traced: the stage rows are the jobs' pipeline spans;
    # --trace only decides whether they are also written out.
    tracer = Tracer()
    engine = AnalysisEngine(workers=args.workers, cache_dir=cache_dir,
                            set_timeout=args.set_timeout,
                            tracer=tracer)
    results = engine.run(jobs)
    for result in results:
        print(result)
    print()
    print(render(engine.registry))
    if args.metrics:
        engine.registry.dump(args.metrics)
        print(f"metrics written to {args.metrics}")
    if args.trace:
        write_chrome_trace(tracer.records(), args.trace)
        print(f"trace written to {args.trace}")
    return 0 if all(result.ok for result in results) else 1


def _journal(journal_dir: str):
    """The journal in `journal_dir`, unopened.  A path holding neither
    a WAL nor a snapshot is an error, so a mistyped one never reads as
    an empty journal (every journal a service opened has a WAL)."""
    from .service.durable.journal import JobJournal

    journal = JobJournal(journal_dir)
    if not (journal.wal_path.is_file()
            or journal.snapshot_path.is_file()):
        raise ReproError(f"no journal at {journal.root}")
    return journal


def _journal_stats(journal_dir: str) -> int:
    """``engine stats --journal DIR``: read-only journal health."""
    journal = _journal(journal_dir)
    state = journal.inspect()
    by_state: dict = {}
    for data in state.jobs.values():
        key = data.get("state", "?")
        by_state[key] = by_state.get(key, 0) + 1
    print(f"journal: {journal.root}")
    print(f"wal bytes: {journal.wal_bytes:,}")
    print(f"frames replayed: {state.records}")
    print(f"duplicates folded: {state.duplicates}")
    print(f"torn tail dropped: {'yes' if state.tail_dropped else 'no'}")
    jobs = ", ".join(f"{name}={count}" for name, count
                     in sorted(by_state.items())) or "none"
    print(f"jobs: {len(state.jobs)} ({jobs})")
    return 0


def _cmd_serve(args) -> int:
    from .engine import default_cache_dir
    from .service import AnalysisService

    cache_dir = None if args.no_cache \
        else (args.cache_dir or default_cache_dir())
    workers = args.workers or max(1, os.cpu_count() or 1)
    chaos = None
    if args.chaos:
        from .chaos import FaultPlan, FaultScheduleError

        try:
            chaos = FaultPlan.parse(args.chaos)
        except FaultScheduleError as error:
            raise ReproError(f"--chaos: {error}")
    service = AnalysisService(
        host=args.host, port=args.port, workers=workers,
        queue_depth=args.queue_depth, executor=args.executor,
        cache_dir=cache_dir, set_timeout=args.set_timeout,
        max_iterations=args.max_iterations,
        metrics_path=args.metrics,
        journal_dir=args.journal, chaos=chaos)
    return service.run()


def _cmd_chaos(args) -> int:
    if args.chaos_command == "show":
        from .chaos import FaultPlan, FaultScheduleError

        try:
            plan = FaultPlan.parse(args.schedule)
        except FaultScheduleError as error:
            raise ReproError(str(error))
        print(plan.describe())
        return 0

    if args.chaos_command == "points":
        from .chaos.inject import POINT_HELP

        width = max(len(point) for point in POINT_HELP)
        for point, help_text in POINT_HELP.items():
            print(f"{point:<{width}}  {help_text}")
        return 0

    assert args.chaos_command == "verify"
    import json

    from .chaos import verify_journal

    report = verify_journal(
        _journal(args.journal).root, serial=not args.no_serial,
        witnesses=not args.no_witness,
        require_terminal=not args.allow_pending)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_submit(args) -> int:
    import json

    from .service import JobFailed, ServiceClient

    if args.corpus:
        if args.benchmarks:
            raise ReproError(
                "--corpus replays synthesized programs; drop the "
                "benchmark name arguments")
        from .synth import Corpus

        corpus = Corpus(args.corpus)
        ids = corpus.ids()
        if args.limit is not None:
            ids = ids[:args.limit]
        if not ids:
            raise ReproError(f"corpus {args.corpus!r} is empty")
        jobs = []
        for digest in ids:
            prog = corpus.get(digest)
            spec = prog.job_spec(machine=args.machine,
                                 backend=args.backend,
                                 priority=args.priority,
                                 deadline_seconds=args.deadline)
            jobs.append((prog.name, spec))
    else:
        names = args.benchmarks
        if not names:
            from .programs import all_benchmarks

            names = list(all_benchmarks())
        jobs = [(name, {"benchmark": name, "machine": args.machine,
                        "backend": args.backend,
                        "priority": args.priority,
                        "deadline_seconds": args.deadline})
                for name in names]
    with ServiceClient(host=args.host, port=args.port) as client:
        submitted = [(name, client.submit_retry(spec)["id"])
                     for name, spec in jobs]
        if args.no_wait:
            for name, job_id in submitted:
                print(f"{name}: submitted as {job_id}")
            return 0
        records, failures = [], 0
        for _, job_id in submitted:
            try:
                record = client.wait(job_id, timeout=args.timeout)
            except JobFailed as error:
                record = error.record
                failures += 1
            records.append(record)
        if args.trace_out:
            _write_job_traces(args.trace_out, client, submitted)
    if args.json:
        print(json.dumps(records, indent=2))
    else:
        for record in records:
            if record.get("state") == "done":
                flag = " (partial)" if record.get("status") == \
                    "partial" else ""
                hit = " [cached]" if record.get("cache_hit") else ""
                print(f"{record['name']}: [{record['best']:,}, "
                      f"{record['worst']:,}]{flag}{hit}")
            else:
                print(f"{record.get('name')}: FAILED "
                      f"({record.get('error')})")
    return 0 if not failures else 1


def _write_job_traces(path: str, client, submitted) -> None:
    """``submit --trace-out``: write each finished job's spans."""
    import json

    from .service import ClientError

    for name, job_id in submitted:
        out = path
        if len(submitted) > 1:
            stem, dot, ext = path.rpartition(".")
            out = f"{stem}.{name}.{ext}" if dot else f"{path}.{name}"
        try:
            doc = client.trace(job_id)
        except ClientError as error:
            print(f"{name}: trace unavailable ({error})",
                  file=sys.stderr)
            continue
        with open(out, "w") as handle:
            json.dump(doc, handle, indent=2)
        spans = doc.get("repro", {}).get("spans", 0)
        print(f"{name}: trace written to {out} ({spans} spans)",
              file=sys.stderr)


def _cmd_synth(args) -> int:
    import json

    from .hw import MACHINES as machines
    from .obs import MetricsRegistry

    if args.synth_command == "gen":
        from .synth import Corpus, generate_many

        corpus = Corpus(args.corpus) if args.corpus else None
        registry = MetricsRegistry()
        for prog in generate_many(args.seed, args.count,
                                  grade=args.grade,
                                  registry=registry):
            if corpus is not None:
                corpus.add(prog)
            lines = len(prog.source.splitlines())
            loops = len(prog.loop_bounds)
            print(f"{prog.digest}  seed={prog.seed} "
                  f"grade={prog.grade} lines={lines} loops={loops}")
            if args.show:
                print(prog.source)
        if corpus is not None:
            print(f"{args.count} programs in corpus {args.corpus} "
                  f"({len(corpus)} total)")
        return 0

    if args.synth_command == "hunt":
        from .programs import all_benchmarks, get_benchmark
        from .synth import hunt_benchmark

        names = args.benchmarks or list(all_benchmarks())
        machine = machines[args.machine]()
        registry = MetricsRegistry()
        results = []
        for name in names:
            result = hunt_benchmark(get_benchmark(name),
                                    machine=machine,
                                    iterations=args.iterations,
                                    seed=args.seed,
                                    registry=registry)
            results.append(result)
            if not args.json:
                agree = (f"{result.agreement:.2f}"
                         if result.agreement is not None else "n/a")
                print(f"{result.name}: realized {result.realized:,} "
                      f"of estimated {result.estimated:,} "
                      f"({result.ratio:.1%}, witness agreement "
                      f"{agree}, {result.sim_runs} sim runs)")
        if args.json:
            print(json.dumps(
                [{"function": r.name, "estimated": r.estimated,
                  "realized": r.realized, "reference": r.reference,
                  "ratio": round(r.ratio, 6),
                  "agreement": r.agreement, "exact": r.exact,
                  "sim_runs": r.sim_runs, "inputs": r.inputs}
                 for r in results], indent=2))
        return 0

    if args.synth_command == "fuzz":
        from .synth import Corpus, run_campaign

        corpus = Corpus(args.corpus) if args.corpus else None
        machine = machines[args.machine]()
        registry = MetricsRegistry()

        def progress(done, total, violations) -> None:
            if not args.json and (done % 25 == 0 or done == total):
                print(f"  {done}/{total} programs, "
                      f"{violations} violation(s)", file=sys.stderr)

        report = run_campaign(
            args.seed, args.count, grade=args.grade,
            machine=machine, inputs_per_program=args.inputs,
            engine=not args.no_engine, corpus=corpus,
            max_violations=args.max_violations, registry=registry,
            progress=progress)
        if args.metrics:
            registry.dump(args.metrics)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(report.render())
        if report.violations and args.reproducer:
            worst = report.violations[0]
            reproducer = worst.minimized or worst.program
            with open(args.reproducer, "w") as handle:
                handle.write(f"// {worst.kind}: {worst.detail}\n")
                if worst.inputs is not None:
                    handle.write(f"// inputs: {worst.inputs}\n")
                handle.write(reproducer.source)
            print(f"minimized reproducer written to "
                  f"{args.reproducer}", file=sys.stderr)
        return 0 if report.ok else 1

    # tightness
    from .experiments import Experiments, render_tightness
    from .programs import get_benchmark

    machine = machines[args.machine]()
    selected = None
    if args.benchmarks:
        selected = {name: get_benchmark(name)
                    for name in args.benchmarks}
    experiments = Experiments(machine=machine, benchmarks=selected)
    rows = experiments.tightness(iterations=args.iterations,
                                 seed=args.seed)
    if args.json:
        print(json.dumps(
            [{"function": r.function, "estimated": r.estimated,
              "realized": r.realized, "reference": r.reference,
              "ratio": round(r.ratio, 6),
              "agreement": r.agreement, "exact": r.exact,
              "sound": r.sound, "sim_runs": r.sim_runs}
             for r in rows], indent=2))
    else:
        print(render_tightness(rows))
    unsound = [r.function for r in rows if not r.sound]
    if unsound:
        print(f"UNSOUND: measured worst case escapes the estimate for "
              f"{', '.join(unsound)}", file=sys.stderr)
        return 1
    return 0


def _dispatch(args) -> int:
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "synth":
        return _cmd_synth(args)

    source = _load(args.file)

    if args.command == "disasm":
        print(disassemble(compile_source(source,
                                         optimize=args.optimize)))
        return 0

    if args.command == "annotate":
        program = compile_source(source)
        from .cfg import build_cfgs

        cfgs = build_cfgs(program)
        functions = (args.functions.split(",")
                     if args.functions else None)
        print(annotate_program(cfgs, source, functions))
        return 0

    if args.command == "run":
        machine = MACHINES[args.machine]()
        model = CycleModel(machine) if args.cycles else None
        if model is not None:
            model.flush()
        program = compile_source(source, optimize=args.optimize)
        interp = Interpreter(program, cycle_model=model)
        _apply_sets(interp, args.set)
        numbers = [int(a) if a == int(a) else a for a in args.arg]
        result = interp.run(args.entry, *numbers)
        print(f"return value: {result.value}")
        print(f"instructions: {result.steps:,}")
        if args.cycles:
            print(f"cycles ({machine.name}): {result.cycles:,}")
        return 0

    if args.command == "report":
        from .analysis import markdown_report

        machine = MACHINES[args.machine]()
        program = compile_source(source, optimize=args.optimize)
        analysis = Analysis(program, entry=args.entry, machine=machine)
        analysis.auto_bound_loops()
        for spec in args.bound:
            fn, line, lo, hi = _parse_bound(spec, args.entry)
            analysis.bound_loop(lo, hi, function=fn, line=line)
        missing = analysis.loops_needing_bounds()
        if missing:
            print("loops still needing --bound:", file=sys.stderr)
            for loop in missing:
                print(f"  {loop}", file=sys.stderr)
            return 2
        print(markdown_report(analysis))
        return 0

    assert args.command == "analyze"
    machine = MACHINES[args.machine]()
    tracer, finish_trace = _make_tracer(args.trace)
    program = compile_source(source, optimize=args.optimize)
    analysis = Analysis(program, entry=args.entry, machine=machine,
                        context_sensitive=args.context,
                        cache_split=args.cache_split,
                        tracer=tracer)
    if args.auto_bounds:
        for derived in analysis.auto_bound_loops():
            flavor = "exact" if derived.exact else "upper"
            print(f"auto bound: {derived.function}() line "
                  f"{derived.line}: [{derived.lo}, {derived.hi}] "
                  f"({flavor})")
    for spec in args.bound:
        fn, line, lo, hi = _parse_bound(spec, args.entry)
        analysis.bound_loop(lo, hi, function=fn, line=line)
    missing = analysis.loops_needing_bounds()
    if missing:
        print("loops still needing --bound:", file=sys.stderr)
        for loop in missing:
            print(f"  {loop}", file=sys.stderr)
        return 2
    for spec in args.constraint:
        text, _, fn = spec.partition("@")
        analysis.add_constraint(text, function=fn or None)

    report = analysis.estimate()
    print(report)
    print(f"constraint sets: {report.sets_solved} solved "
          f"({len(report.refuted_sets)} refuted before the LP), "
          f"{report.sets_pruned} pruned of {report.sets_total}")
    print(f"LP calls: {report.lp_calls}; first relaxation integral: "
          f"{report.all_first_relaxations_integral}")
    if args.show_counts:
        print("\nworst-case block counts (nonzero):")
        for name in sorted(report.worst_counts):
            value = report.worst_counts[name]
            if value and "::x" in name:
                print(f"  {name} = {value:g}")
    finish_trace(report.trace or None)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
