"""Worker process for the in-process workloads and layer probes.

Run by ``run.py``, never by hand::

    python3 perfbench/inproc.py --inputs IN.json --out OUT.json \\
        --seconds S --mode analyze|dnf-fanout|probe [--trace]

Protocol: the worker imports ``repro``, builds its jobs and runs one
untimed warm-up pass, prints ``READY`` and waits for a line on stdin.
``GO`` starts the timed phase (results go to ``--out``, then ``DONE``
is printed); anything else exits at once, which is how the orchestrator
takes extra set-up samples.

Workloads (a job is one bound request; jobs run one at a time):

* ``analyze`` -- each job is compile_source + Analysis + estimate(),
  serial, in-process, no cache and no pool;
* ``dnf-fanout`` -- each job runs alone through
  ``AnalysisEngine(workers=2).run([job])`` with the cache off, which
  picks the set grain;
* ``probe`` -- no timed loop: one traced pass of every in-process layer
  over the given jobs (used by the service-mix traced run).
"""

from __future__ import annotations

import argparse
import json
import pickle
import resource
import sys
import time

import inputs
from refkernel import HostClock
from spans import Recorder

#: Passes are cut into chunks of about this many seconds, each between
#: two kernel runs, so a host-speed shift inside a pass is caught.
CHUNK_SECONDS = 0.5


class Runner:
    def __init__(self, data: dict, mode: str, cpus: int):
        from repro.engine import AnalysisEngine

        self.mode = mode
        self.jobs = data["jobs"]
        self.oracle = data["oracle"]
        self.engine = AnalysisEngine(workers=2)
        self.engine_jobs = {job["name"]: inputs.engine_job(job)
                            for job in self.jobs}
        self.attempted = 0
        self.failures: list[str] = []
        self.clock = HostClock(cpus)
        self.rec = Recorder()
        self.passes: list[dict] = []
        self.last_tasks: dict = {}
        self._job_ids = 0

    # -- one job, each way ----------------------------------------------
    def serial(self, job):
        analysis = inputs.build_analysis(job)
        return analysis.estimate().interval

    def engine_run(self, job):
        result = self.engine.run([self.engine_jobs[job["name"]]])[0]
        if not result.ok:
            raise RuntimeError(result.error)
        return result.report.interval

    def split(self, job):
        """estimate() split into its public calls, one span each."""
        from repro import Analysis, compile_source
        from repro.analysis.setsolve import solve_set

        rec = self.rec
        source, entry, context = inputs.job_source(job)
        with rec.span("compile_source"):
            program = compile_source(source)
        with rec.span("Analysis") as args:
            analysis = Analysis(program, entry, context_sensitive=context)
            inputs.configure(analysis, job)
            args["blocks"] = sum(len(analysis.cfgs[name].blocks)
                                 for name in analysis.reachable)
        with rec.span("set_tasks") as args:
            tasks = analysis.set_tasks()
            expansion = analysis._last_expansion
            args["sets"] = len(tasks)
            args["pruned"] = expansion.pruned
        results = []
        for task in tasks:
            with rec.span("solve_set") as args:
                result = solve_set(task)
                args.update(pivots=result.stats.simplex_iterations,
                            lp_calls=result.stats.lp_calls,
                            nodes=result.stats.nodes,
                            feasible=result.feasible)
            results.append(result)
        with rec.span("assemble_report"):
            report = analysis.assemble_report(results, expansion)
        self.last_tasks[job["name"]] = tasks
        return report.interval

    def traced_engine_run(self, job):
        with self.rec.span("AnalysisEngine.run"):
            return self.engine_run(job)

    # -- passes -------------------------------------------------------------
    def run_one(self, fn, job, root: str | None = None) -> float | None:
        """Run and check one job; its wall seconds, or None if failed."""
        self.attempted += 1
        self._job_ids += 1
        started = time.perf_counter()
        try:
            if root is None:
                interval = fn(job)
            else:
                with self.rec.span(root, job=self._job_ids,
                                   routine=job["name"]):
                    interval = fn(job)
        except Exception as error:      # a failed job is a result
            self.failures.append(f"{job['name']}: {error!r}")
            return None
        elapsed = time.perf_counter() - started
        expected = self.oracle[job["name"]]
        if list(interval) != expected:
            self.failures.append(f"{job['name']}: bound {list(interval)} "
                                 f"!= HiGHS {expected}")
            return None
        return elapsed

    def one_pass(self, fn, kind: str, root: str | None = None) -> dict:
        """Every job once, in chunks with a kernel sample between them.

        Each chunk records its raw job seconds and ``ref``, the index
        of the kernel sample that closes it; the orchestrator turns
        those into host-speed factors.
        """
        record = {"kind": kind, "chunks": []}
        latencies: list = []
        self.rec.ref = len(self.clock.samples)
        started = time.perf_counter()
        for n, job in enumerate(self.jobs):
            latencies.append(self.run_one(fn, job, root))
            elapsed = time.perf_counter() - started
            if elapsed >= CHUNK_SECONDS or n == len(self.jobs) - 1:
                record["chunks"].append({
                    "ref": self.clock.bracket(), "raw": elapsed,
                    "latencies": [t for t in latencies if t is not None]})
                latencies = []
                self.rec.ref = len(self.clock.samples)
                started = time.perf_counter()
        self.passes.append(record)
        return record

    def primary(self):
        return self.serial if self.mode == "analyze" else self.engine_run

    def warm_up(self) -> None:
        for job in self.jobs:
            self.run_one(self.primary(), job)

    def measure(self, seconds: float, trace: bool) -> dict:
        self.clock.bracket()
        deadline = time.perf_counter() + seconds
        if not trace:
            while time.perf_counter() < deadline:
                self.one_pass(self.primary(), "timed")
            return self.result()
        # Traced run: untraced and traced passes alternate over most of
        # the budget (their difference is the tracing overhead), then
        # one probe pass per layer the primary loop does not split.
        traced = (self.split if self.mode == "analyze"
                  else self.traced_engine_run)
        probe_from = time.perf_counter() + 0.6 * seconds
        while time.perf_counter() < probe_from or len(self.passes) < 2:
            self.one_pass(self.primary(), "untraced")
            self.one_pass(traced, "traced", root="job")
        self.probe(split=self.mode != "analyze",
                   engine=self.mode != "dnf-fanout")
        return self.result()

    def probe(self, split: bool = True, engine: bool = True) -> None:
        """One pass through each layer the primary loop did not split."""
        if split:
            self.one_pass(self.split, "probe", root="job")
        if engine:
            self.one_pass(self.traced_engine_run, "probe", root="job")
        # Lowering and the set-cache key are timed in loops of their
        # own, so the job spans stay exactly the work of estimate().
        self.rec.ref = len(self.clock.samples)
        started = time.perf_counter()
        for name, tasks in self.last_tasks.items():
            for task in tasks:
                worst, best = task.problems()
                with self.rec.span("to_arrays", job=name) as args:
                    arrays = worst.to_arrays()
                    best.to_arrays()
                    args["rows"], args["cols"] = arrays[1].shape
                with self.rec.span("signature", job=name):
                    task.signature()
                self.rec.add("pickle", 0.0, 0.0, job=name,
                             bytes=len(pickle.dumps(task)))
        raw = time.perf_counter() - started
        self.passes.append({"kind": "layers", "chunks": [
            {"ref": self.clock.bracket(), "raw": raw, "latencies": []}]})

    def result(self) -> dict:
        return {"attempted": self.attempted, "failures": self.failures,
                "passes": self.passes, "spans": self.rec.spans,
                "samples": self.clock.samples,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("analyze", "dnf-fanout", "probe"))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cpus", type=int, default=1)
    args = parser.parse_args(argv)
    with open(args.inputs) as handle:
        data = json.load(handle)

    started = time.perf_counter()
    import repro  # noqa: F401  (set-up cost: the program's import)
    imported = time.perf_counter()
    runner = Runner(data, "analyze" if args.mode == "probe" else args.mode,
                    args.cpus)
    ready = time.perf_counter()
    if args.mode != "probe":
        runner.warm_up()
    warm = time.perf_counter()
    print(f"READY {imported - started} {ready - imported} "
          f"{warm - ready}", flush=True)
    try:
        if sys.stdin.readline().strip() != "GO":
            return 0
        if args.mode == "probe":
            runner.clock.bracket()
            runner.probe()
            result = runner.result()
        else:
            result = runner.measure(args.seconds, args.trace)
    finally:
        runner.clock.close()
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    print("DONE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
