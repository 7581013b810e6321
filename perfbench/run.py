"""The repro benchmark: three seeded workloads, one command.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analyze|dnf-fanout|service-mix|all \\
        [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` it measures the end-to-end metrics with tracing off;
with ``--trace 1`` it makes the separate traced run and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every job's ``[best, worst]`` is checked
against the independent HiGHS backend; a mismatch, an error or a
refused request counts as a failed operation.  ``--workload all`` runs
the three workloads in turn and ends with one summary line.

See ``perfbench/README.md`` for the workloads, the metrics and the
host-speed normalization every time metric goes through.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from refkernel import HostClock, factor
from service import child_pids

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5

WORKLOADS = ("analyze", "dnf-fanout", "service-mix")

#: CPUs each workload keeps busy, and so the CPUs the reference kernel
#: runs on to measure the host's speed for it (see refkernel.py).
CPUS = {"analyze": 1, "dnf-fanout": 2, "service-mix": 2}

#: The server keeps every job record, so its memory grows with the jobs
#: it has seen; reading the peak after a fixed number of timed passes
#: keeps ``peak_rss_mb`` independent of how fast the host ran.
RSS_PASSES = 8

#: Pass kinds whose samples give the end-to-end metrics (a traced run
#: interleaves "untraced" passes with traced ones).
UNTRACED = ("timed", "untraced")

#: prctl(2) option that makes orphaned descendants this process's children.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds the run waits for its descendants to end before killing them.
REAP_SECONDS = 30.0


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Context:
    """Paths, environment and the host clock of one run."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.trace = bool(args.trace)
        self.state = ROOT / ".perfbench"
        self.dir = self.state / f"run-{os.getpid()}"
        (self.dir / "tmp").mkdir(parents=True, exist_ok=True)
        # Everything a run writes stays in the checkout, and nothing is
        # shared between runs: serve's default cache directory would
        # otherwise hand one commit the reports another one computed.
        tempfile.tempdir = str(self.dir / "tmp")
        self.env = dict(os.environ,
                        PYTHONPATH=str(ROOT / "src"),
                        REPRO_CACHE_DIR=str(self.dir / "repro-cache"),
                        TMPDIR=str(self.dir / "tmp"))
        self.clock = HostClock(CPUS[self.workload])
        self.attempted = 0
        self.failures: list[str] = []
        self.setups: list[dict] = []
        self.spans: dict[str, list] = {}
        #: Kernel samples taken inside the worker process, if any.
        self.worker_samples: list[float] = []
        self._paths = 0

    def fresh_path(self, prefix: str) -> Path:
        self._paths += 1
        return self.dir / f"{prefix}-{self._paths}"

    def timed_setup(self, start_fn):
        """Run one set-up between two kernel samples."""
        self.clock.bracket()
        started = time.perf_counter()
        handle, parts = start_fn()
        raw = time.perf_counter() - started
        self.setups.append({"raw": raw, **parts,
                            "ref": self.clock.bracket()})
        return handle

    def setup_factor(self, setup: dict) -> float:
        return factor(self.clock.samples, setup["ref"])


# ----------------------------------------------------------------------
# In-process workloads: a worker process per set-up
# ----------------------------------------------------------------------
class Worker:
    def __init__(self, ctx: Context, data: dict, mode: str, trace: bool,
                 cpus: int):
        self.path = ctx.fresh_path("worker")
        inputs_path = self.path.with_suffix(".in.json")
        inputs_path.write_text(json.dumps(data))
        self.out = self.path.with_suffix(".out.json")
        command = [sys.executable, str(HERE / "inproc.py"),
                   "--inputs", str(inputs_path), "--out", str(self.out),
                   "--seconds", str(ctx.seconds), "--mode", mode,
                   "--cpus", str(cpus)]
        if trace:
            command.append("--trace")
        self.proc = subprocess.Popen(command, cwd=ROOT, env=ctx.env,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline().split()
        if not line or line[0] != "READY":
            self.kill()
            raise RuntimeError(f"{mode} worker failed during set-up")
        self.parts = {"import": float(line[1]), "build": float(line[2]),
                      "warmup": float(line[3])}

    def finish(self, go: bool) -> dict | None:
        self.proc.stdin.write("GO\n" if go else "EXIT\n")
        self.proc.stdin.close()
        if go:
            self.proc.stdout.readline()
        code = self.proc.wait()
        if code != 0:
            raise RuntimeError(f"worker exited with {code}")
        return json.loads(self.out.read_text()) if go else None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_inproc(ctx: Context, data: dict) -> dict:
    worker = None
    try:
        for _ in range(SETUPS):
            if worker is not None:
                worker.finish(go=False)
            worker = ctx.timed_setup(lambda: _start_worker(ctx, data))
        out = worker.finish(go=True)
    finally:
        if worker is not None:
            worker.kill()
    ctx.attempted += out["attempted"]
    ctx.failures += out["failures"]
    ctx.worker_samples = out["samples"]
    ctx.spans["worker"] = normalized_spans(out["spans"], out["samples"])
    out["passes"] = normalize(out["passes"], out["samples"])
    return out


def _start_worker(ctx, data):
    worker = Worker(ctx, data, ctx.workload, ctx.trace, CPUS[ctx.workload])
    return worker, worker.parts


def inproc_metrics(ctx: Context, out: dict) -> dict:
    timed = [p for p in out["passes"] if p["kind"] in UNTRACED]
    latencies = [t for p in timed for t in p["latencies"]]
    ctx.raw_job_ms = [t * 1000 for p in timed for t in p["raw_latencies"]]
    rates = [len(p["latencies"]) / p["seconds"] for p in timed]
    # No result cache in process: a repeated request costs a full
    # analysis, so the repeat ("hit") latency is the job latency.
    return end_to_end(ctx, rates, latencies, latencies,
                      out["peak_rss_mb"])


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def service_items(data: dict, pass_index: int) -> list:
    """One pass: the Table-I hits interleaved with fresh misses."""
    import inputs

    salt = inputs.service_salt(pass_index)
    misses = [{"kind": "miss", "name": job["name"],
               "spec": _spec(job, [salt])} for job in data["misses"]]
    hits = [{"kind": "hit", "name": job["name"], "spec": _spec(job)}
            for job in data["hits"]]
    order = sorted(
        [((i + 0.5) / len(hits), item) for i, item in enumerate(hits)]
        + [((i + 0.5) / len(misses), item)
           for i, item in enumerate(misses)], key=lambda pair: pair[0])
    return [item for _, item in order]


def _spec(job: dict, extra=()) -> dict:
    if job["kind"] == "table1":
        return {"benchmark": job["name"]}
    return {"name": job["name"], "source": job["source"],
            "entry": job["entry"], "bounds": job["bounds"],
            "constraints": list(job["constraints"]) + list(extra)}


class Session:
    """A server, its load generator, and the pass counter."""

    def __init__(self, ctx: Context, items_fn):
        from service import LoadGen, Server

        self.ctx = ctx
        self.items_fn = items_fn
        self.passes: list[dict] = []
        self.pass_index = 0
        self.gen = None
        started = time.perf_counter()
        self.server = Server(ROOT, ctx.fresh_path("serve"), ctx.env)
        try:
            self.gen = LoadGen(self.server.host, self.server.port)
            ready = time.perf_counter()
            outcomes = self.gen.run_pass(items_fn(self.pass_index))
        except BaseException:
            self.close()
            raise
        self.check(outcomes, expect_hits=False)
        self.parts = {"build": ready - started,
                      "warmup": time.perf_counter() - ready}

    def check(self, outcomes: list, expect_hits: bool) -> list:
        """Count and verify outcomes; return the good ones."""
        good = []
        for outcome in outcomes:
            self.ctx.attempted += 1
            problem = outcome.get("error")
            event = outcome.get("event") or {}
            expected = self.ctx.oracle[outcome["name"]]
            if problem is None and event.get("type") != "job_done":
                problem = f"job failed: {event.get('error')}"
            if problem is None and \
                    [event.get("best"), event.get("worst")] != expected:
                problem = (f"bound [{event.get('best')}, "
                           f"{event.get('worst')}] != HiGHS {expected}")
            want_hit = expect_hits and outcome["kind"] == "hit"
            if problem is None and bool(event.get("cache_hit")) != want_hit:
                problem = (f"cache_hit={event.get('cache_hit')} on a "
                           f"{outcome['kind']}")
            if problem is None:
                good.append(outcome)
            else:
                self.ctx.failures.append(f"{outcome['name']}: {problem}")
        return good

    def one_pass(self, kind: str, items=None) -> dict:
        self.pass_index += 1
        started = time.perf_counter()
        outcomes = self.gen.run_pass(items or
                                     self.items_fn(self.pass_index))
        raw = time.perf_counter() - started
        record = {"kind": kind, "raw": raw, "ref": self.ctx.clock.bracket(),
                  "completed": len(outcomes),
                  "outcomes": self.check(outcomes, expect_hits=True)}
        self.passes.append(record)
        return record

    def close(self) -> None:
        if self.gen is not None:
            self.gen.close()
        self.server.stop()


def run_service(ctx: Context, data: dict) -> dict:
    session = None
    for _ in range(SETUPS):
        if session is not None:
            session.close()
        session = ctx.timed_setup(
            lambda: _start_session(ctx, lambda p: service_items(data, p)))
    try:
        deadline = time.perf_counter() + ctx.seconds
        rss = None
        if not ctx.trace:
            while time.perf_counter() < deadline:
                session.one_pass("timed")
                if len(session.passes) == RSS_PASSES:
                    rss = session.server.peak_rss_mb()
        else:
            import layers

            layers.trace_service_passes(ctx, session, deadline)
        if rss is None:
            rss = session.server.peak_rss_mb()
    finally:
        session.close()
    return {"session": session, "peak_rss_mb": rss}


def _start_session(ctx, items_fn):
    session = Session(ctx, items_fn)
    return session, session.parts


def service_metrics(ctx: Context, out: dict) -> dict:
    timed = [p for p in out["session"].passes if p["kind"] in UNTRACED]
    miss, hit = [], []
    ctx.raw_job_ms = []
    rates = []
    for p in timed:
        f = factor(ctx.clock.samples, p["ref"])
        rates.append(p["completed"] / (p["raw"] * f))
        for o in p["outcomes"]:
            seconds = o["end"] - o["start"]
            (hit if o["kind"] == "hit" else miss).append(seconds * f)
            if o["kind"] == "miss":
                ctx.raw_job_ms.append(seconds * 1000)
    return end_to_end(ctx, rates, miss, hit, out["peak_rss_mb"])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(ctx, rates, job_latencies, hit_latencies, rss) -> dict:
    """The end-to-end metrics from normalized samples.

    ``ctx.raw`` gets the un-normalized job p50 and set-up median, kept
    as diagnostics so the self-check can show what normalization buys.
    """
    setup = [s["raw"] * ctx.setup_factor(s) for s in ctx.setups]
    ms = [t * 1000 for t in job_latencies]
    hit_ms = [t * 1000 for t in hit_latencies]
    ctx.raw = {
        "raw.setup_s": statistics.median(s["raw"] for s in ctx.setups),
        "raw.job_ms_p50": percentile(ctx.raw_job_ms, 50),
        "host.ref_ms": statistics.median(ctx.clock.samples
                                         + ctx.worker_samples) * 1000,
    }
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "jobs_per_s": metric(statistics.median(rates), "1/s"),
        "job_ms_p50": metric(percentile(ms, 50), "ms"),
        "job_ms_p90": metric(percentile(ms, 90), "ms"),
        "hit_ms_p50": metric(percentile(hit_ms, 50), "ms"),
        "hit_ms_p90": metric(percentile(hit_ms, 90), "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }


def normalize(passes: list, samples: list) -> list:
    """Worker passes with host-speed-normalized seconds and latencies."""
    out = []
    for p in passes:
        record = {"kind": p["kind"], "seconds": 0.0, "latencies": [],
                  "raw_latencies": []}
        for chunk in p["chunks"]:
            f = factor(samples, chunk["ref"])
            record["seconds"] += chunk["raw"] * f
            record["latencies"] += [t * f for t in chunk["latencies"]]
            record["raw_latencies"] += chunk["latencies"]
        out.append(record)
    return out


def normalized_spans(spans: list, samples: list) -> list:
    """Spans with normalized ``ms`` and ``self_ms`` added."""
    from spans import self_seconds

    own = self_seconds(spans)
    out = []
    for span in spans:
        f = factor(samples, span["ref"]) * 1000
        out.append({**span, "ms": (span["end"] - span["start"]) * f,
                    "self_ms": own[span["id"]] * f})
    return out


def run_all(args) -> int:
    """Every workload in turn, each in its own run; one summary line
    whose metrics are named ``<workload>.<metric>``."""
    summary = {"correct": True, "attempted": 0, "failed": 0,
               "metrics": {}}
    for workload in WORKLOADS:
        lines = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, capture_output=True, text=True).stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update(
            {f"{workload}.{name}": entry
             for name, entry in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------
def become_subreaper() -> None:
    """Adopt orphaned descendants, so :func:`reap_descendants` can wait
    for them: the server's pool leaves a multiprocessing resource
    tracker that ends only after the server has exited."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_descendants(timeout: float = REAP_SECONDS) -> None:
    """Wait until this process has no children left; after ``timeout``
    seconds kill those still running.  With :func:`become_subreaper`
    this covers every descendant, not only direct children."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in child_pids(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def main(argv=None) -> int:
    become_subreaper()
    # SIGTERM unwinds like an error, so every clean-up below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        reap_descendants()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="repro benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    ctx = Context(args)
    try:
        data = inputs.make_inputs(args.workload, args.seed)
        if args.workload == "service-mix":
            ctx.oracle = {**inputs.oracle(data["hits"]),
                          **inputs.oracle(data["misses"],
                                          [inputs.service_salt(0)])}
            out = run_service(ctx, data)
            metrics = service_metrics(ctx, out)
        else:
            data["oracle"] = ctx.oracle = inputs.oracle(data["jobs"])
            out = run_inproc(ctx, data)
            metrics = inproc_metrics(ctx, out)
        if ctx.trace:
            import layers

            metrics = layers.traced_metrics(ctx, data, out)
    finally:
        ctx.clock.close()
        shutil.rmtree(ctx.dir, ignore_errors=True)

    for failure in ctx.failures:
        print(f"FAILED {failure}")
    if not ctx.trace:               # the traced run printed its table
        for name, entry in metrics.items():
            print(f"{name:32s} {entry['value']:14.4f} {entry['unit']}")
    for name, value in ctx.raw.items():
        print(f"diag {name} {value:.4f}")
    print(json.dumps({"correct": not ctx.failures,
                      "attempted": ctx.attempted,
                      "failed": len(ctx.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # layers.py imports this module by name; let it find this instance
    # instead of executing the file a second time.
    sys.modules.setdefault("run", sys.modules[__name__])
    sys.exit(main())
