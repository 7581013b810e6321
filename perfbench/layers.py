"""The traced run: per-layer metrics from the benchmark's own spans.

Spans wrap the public entry points of each layer from outside the
program (``compile_source``, the ``Analysis`` constructor,
``set_tasks``, ``solve_set``, ``assemble_report``,
``AnalysisEngine.run``, and for the service the POST and the wait for
the terminal event).  Every layer is measured on the workload's own
inputs: the workload's primary loop covers the layers it crosses, and
one probe pass covers the rest (an in-process pass for service-mix, a
short service session for the in-process workloads).

``ATTRIBUTION`` is the per-layer -> end-to-end table: which end-to-end
metric, on which workload, each layer metric should move.
"""

from __future__ import annotations

import json
import statistics
import time

from refkernel import factor

ATTRIBUTION = (
    # (metric, unit, moves)
    ("codegen.compile_ms_per_job", "ms",
     "job_ms_p50 on analyze and service-mix; about nil on dnf-fanout"),
    ("cfg.build_ms_per_job", "ms", "job_ms_p50 on analyze, service-mix"),
    ("cfg.blocks_per_job", "count", "job_ms_p50 on analyze, service-mix"),
    ("constraints.ms_per_job", "ms", "job_ms_p50 on dnf-fanout"),
    ("constraints.sets_per_job", "count", "job_ms_p50 on dnf-fanout"),
    ("constraints.pruned_per_job", "count", "job_ms_p50 on dnf-fanout"),
    ("ilp.lower_ms_per_set", "ms",
     "job_ms_p50 on dnf-fanout; small on analyze"),
    ("ilp.rows_per_set", "count", "job_ms_p50 on dnf-fanout"),
    ("ilp.cols_per_set", "count", "job_ms_p50 on dnf-fanout"),
    ("ilp.solve_ms_per_set", "ms", "job_ms_p90, jobs_per_s on analyze"),
    ("ilp.pivots_per_set", "count", "job_ms_p90, jobs_per_s on analyze"),
    ("ilp.lp_calls_per_set", "count",
     "job_ms_p90, jobs_per_s on analyze"),
    ("ilp.nodes_per_set", "count", "job_ms_p90 on dnf-fanout"),
    ("ilp.infeasible_share", "ratio", "job_ms_p90 on dnf-fanout"),
    ("analysis.signature_ms_per_set", "ms",
     "job_ms_p50 on service-mix (misses)"),
    ("engine.vs_serial_ms_per_job", "ms", "job_ms_p50 on dnf-fanout"),
    ("engine.task_kb_per_set", "KiB", "job_ms_p50 on dnf-fanout"),
    ("engine.cache_hit_ratio", "ratio",
     "hit_ms_p50, jobs_per_s on service-mix"),
    ("service.submit_ms_p50", "ms",
     "hit_ms_p50, job_ms_p90 on service-mix"),
    ("service.queue_ms_p50", "ms", "hit_ms_p50, job_ms_p90 on service-mix"),
    ("service.run_ms_p50", "ms", "hit_ms_p50, job_ms_p90 on service-mix"),
    ("service.hit_run_ms_p50", "ms",
     "hit_ms_p50, job_ms_p90 on service-mix"),
    ("service.notify_ms_p50", "ms",
     "hit_ms_p50, job_ms_p90 on service-mix"),
    ("service.journal_us_per_frame", "us", "hit_ms_p50 on service-mix"),
    ("service.journal_frames_per_job", "count",
     "hit_ms_p50 on service-mix"),
    ("setup.import_s", "s", "setup_s, all workloads"),
    ("setup.ready_s", "s", "setup_s, all workloads"),
    ("setup.warmup_s", "s", "setup_s, all workloads"),
    ("host.ref_ms", "ms", "none; explains the normalization"),
    ("host.raw_job_ms_p50", "ms", "none; explains the normalization"),
    ("trace.overhead_pct", "%", "none; must stay small"),
)


# ----------------------------------------------------------------------
# Service spans
# ----------------------------------------------------------------------
def record_service_pass(rec, session, record: dict) -> None:
    """Spans for one finished pass: POST, then the terminal event.

    Queue and run seconds come from ``GET /v1/jobs/{id}`` after the
    pass, so the timed pass itself does exactly the untraced work.
    """
    rec.ref = record["ref"]
    for outcome in record["outcomes"]:
        _, job = session.gen.request("GET", f"/v1/jobs/{outcome['id']}")
        root = rec.add("service.job", outcome["start"], outcome["end"],
                       job=outcome["id"], routine=outcome["name"],
                       kind=outcome["kind"],
                       queue_s=job.get("queue_seconds") or 0.0,
                       run_s=job.get("run_seconds") or 0.0)
        rec.add("POST", outcome["start"], outcome["accepted"],
                parent=root)
        rec.add("terminal event", outcome["accepted"], outcome["end"],
                parent=root)


def trace_service_passes(ctx, session, deadline: float) -> None:
    """service-mix traced run: untraced and traced passes alternate."""
    from spans import Recorder
    from service import metric_delta

    rec = ctx.service_rec = Recorder()
    before = session.gen.metricz()
    probe_from = deadline - 0.4 * ctx.seconds
    while time.perf_counter() < probe_from or len(session.passes) < 2:
        session.one_pass("untraced")
        record_service_pass(rec, session, session.one_pass("traced"))
    ctx.service_diff = _service_diff(session, before, metric_delta)


def _service_diff(session, before: dict, delta) -> dict:
    after = session.gen.metricz()
    jobs = sum(p["completed"] for p in session.passes)
    return {name: delta(before, after, name) for name in (
        "engine.cache.hits.job", "engine.cache.misses.job",
        "service.journal.records", "service.journal.write_seconds")} | {
        "jobs": jobs}


def service_probe(ctx, data: dict) -> None:
    """A short service session over an in-process workload's jobs:
    every job once as a miss, then once again as a hit."""
    import inputs
    from spans import Recorder
    from service import metric_delta
    import run

    jobs = data["jobs"]
    synth = [job for job in jobs if job["kind"] == "source"][:2]
    warm = [{"kind": "miss", "name": job["name"],
             "spec": run._spec(job, [inputs.service_salt(0)])}
            for job in synth]
    session = run.Session(ctx, lambda p: warm)
    rec = ctx.service_rec = Recorder()
    try:
        before = session.gen.metricz()
        for kind in ("miss", "hit"):
            items = [{"kind": kind, "name": job["name"],
                      "spec": run._spec(job)} for job in jobs]
            record = session.one_pass("traced", items=items)
            record_service_pass(rec, session, record)
        ctx.service_diff = _service_diff(session, before, metric_delta)
        ctx.service_passes = session.passes
    finally:
        session.close()


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _p50(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def traced_metrics(ctx, data: dict, out: dict) -> dict:
    import run

    if ctx.workload == "service-mix":
        session = out["session"]
        worker = _probe_worker(ctx, data)
        ctx.spans["worker"] = run.normalized_spans(worker["spans"],
                                                   worker["samples"])
        service_passes = session.passes
        primary = _service_latencies(service_passes, ctx.clock.samples)
        import_s = worker["import_s"]
    else:
        service_probe(ctx, data)
        service_passes = ctx.service_passes
        primary = {kind: [t for p in out["passes"] if p["kind"] == kind
                          for t in p["latencies"]]
                   for kind in ("untraced", "traced")}
        import_s = _p50(s["import"] * ctx.setup_factor(s)
                        for s in ctx.setups)
    ctx.spans["service"] = run.normalized_spans(ctx.service_rec.spans,
                                                ctx.clock.samples)
    spans = ctx.spans["worker"]
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def ms(name):
        return [span["ms"] for span in by_name.get(name, ())]

    def arg(name, key):
        return [span["args"][key] for span in by_name.get(name, ())]

    sets = by_name.get("solve_set", [])
    service_jobs = [s for s in ctx.spans["service"]
                    if s["name"] == "service.job"]
    scale = {s["id"]: factor(ctx.clock.samples, s["ref"]) * 1000
             for s in service_jobs}
    post = {s["parent"]: s["ms"] for s in ctx.spans["service"]
            if s["name"] == "POST"}

    def service_ms(kind, key):
        return [s["args"][key] * scale[s["id"]]
                for s in service_jobs if kind in (None, s["args"]["kind"])]

    diff = ctx.service_diff
    lookups = diff["engine.cache.hits.job"] + \
        diff["engine.cache.misses.job"]
    frames = diff["service.journal.records"]
    mean_factor = _mean(factor(ctx.clock.samples, p["ref"])
                        for p in service_passes)
    values = {
        "codegen.compile_ms_per_job": _mean(ms("compile_source")),
        "cfg.build_ms_per_job": _mean(ms("Analysis")),
        "cfg.blocks_per_job": _mean(arg("Analysis", "blocks")),
        "constraints.ms_per_job": _mean(ms("set_tasks")),
        "constraints.sets_per_job": _mean(arg("set_tasks", "sets")),
        "constraints.pruned_per_job": _mean(arg("set_tasks", "pruned")),
        "ilp.lower_ms_per_set": _mean(ms("to_arrays")),
        "ilp.rows_per_set": _mean(arg("to_arrays", "rows")),
        "ilp.cols_per_set": _mean(arg("to_arrays", "cols")),
        "ilp.solve_ms_per_set": _mean(ms("solve_set")),
        "ilp.pivots_per_set": _mean(arg("solve_set", "pivots")),
        "ilp.lp_calls_per_set": _mean(arg("solve_set", "lp_calls")),
        "ilp.nodes_per_set": _mean(arg("solve_set", "nodes")),
        "ilp.infeasible_share": _mean(0.0 if s["args"]["feasible"]
                                      else 1.0 for s in sets),
        "analysis.signature_ms_per_set": _mean(ms("signature")),
        "engine.vs_serial_ms_per_job": _vs_serial(spans),
        "engine.task_kb_per_set": _mean(
            b / 1024 for b in arg("pickle", "bytes")),
        "engine.cache_hit_ratio": (diff["engine.cache.hits.job"]
                                   / lookups if lookups else 0.0),
        "service.submit_ms_p50": _p50(post.values()),
        "service.queue_ms_p50": _p50(service_ms(None, "queue_s")),
        "service.run_ms_p50": _p50(service_ms("miss", "run_s")),
        "service.hit_run_ms_p50": _p50(service_ms("hit", "run_s")),
        "service.notify_ms_p50": _p50(
            s["ms"] - post[s["id"]] - (s["args"]["queue_s"]
                                       + s["args"]["run_s"])
            * scale[s["id"]] for s in service_jobs),
        "service.journal_us_per_frame": (
            diff["service.journal.write_seconds"] / frames * 1e6
            * mean_factor if frames else 0.0),
        "service.journal_frames_per_job": (frames / diff["jobs"]
                                           if diff["jobs"] else 0.0),
        "setup.import_s": import_s,
        "setup.ready_s": _p50((s["raw"] - s["warmup"])
                              * ctx.setup_factor(s) for s in ctx.setups),
        "setup.warmup_s": _p50(s["warmup"] * ctx.setup_factor(s)
                               for s in ctx.setups),
        "host.ref_ms": ctx.raw["host.ref_ms"],
        "host.raw_job_ms_p50": ctx.raw["raw.job_ms_p50"],
        "trace.overhead_pct": (
            _p50(primary["traced"]) / _p50(primary["untraced"]) - 1)
        * 100,
    }
    path = ctx.state / "spans" / f"{ctx.workload}-seed{ctx.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"schema": 1, "workload": ctx.workload,
                   "seed": ctx.seed, "unit": "ms at reference host speed",
                   "spans": ctx.spans}, handle)
    print(f"spans written to {path}")
    print(f"{'per-layer metric':32s} {'value':>12s} unit   moves")
    for name, unit, moves in ATTRIBUTION:
        print(f"{name:32s} {values[name]:12.4f} {unit:6s} {moves}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in ATTRIBUTION}


def _vs_serial(spans: list) -> float:
    """Mean over jobs of engine ``run()`` wall minus serial wall."""
    serial: dict[str, list] = {}
    engine: dict[str, list] = {}
    roots = {s["id"]: s for s in spans if s["name"] == "job"}
    for span in spans:
        if span["name"] == "compile_source":
            root = roots[span["parent"]]
            serial.setdefault(root["args"]["routine"],
                              []).append(root["ms"])
        elif span["name"] == "AnalysisEngine.run":
            root = roots[span["parent"]]
            engine.setdefault(root["args"]["routine"],
                              []).append(span["ms"])
    names = serial.keys() & engine.keys()
    return _mean(_mean(engine[n]) - _mean(serial[n]) for n in names)


def _service_latencies(passes: list, samples: list) -> dict:
    return {kind: [(o["end"] - o["start"]) * factor(samples, p["ref"])
                   for p in passes if p["kind"] == kind
                   for o in p["outcomes"] if o["kind"] == "miss"]
            for kind in ("untraced", "traced")}


def _probe_worker(ctx, data: dict) -> dict:
    """The in-process layers, measured on the service-mix inputs."""
    import inputs
    import run

    salt = inputs.service_salt(0)
    jobs = data["hits"] + [
        {**job, "constraints": list(job["constraints"]) + [salt]}
        for job in data["misses"]]
    worker = run.Worker(ctx, {"jobs": jobs, "oracle": ctx.oracle},
                        "probe", trace=True, cpus=1)
    out = worker.finish(go=True)
    ctx.attempted += out["attempted"]
    ctx.failures += out["failures"]
    out["import_s"] = worker.parts["import"]
    return out
