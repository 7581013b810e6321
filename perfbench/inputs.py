"""Seeded workload inputs and their HiGHS oracle.

Everything a run feeds the program is made here from ``--seed`` and
written to plain JSON, so worker processes rebuild jobs without
``repro.synth`` and the program sees only generated inputs.

Seed-to-seed steadiness
-----------------------
Runs made with *different* seeds are compared with each other, so a
workload's cost must not depend on which programs a seed happens to
draw.  The analysis time of a ``repro.synth`` program tracks its
basic-block count closely (log-log correlation 0.96 over 120 medium and
40 large programs), so synthetic programs are drawn on a size *ladder*:
each slot takes the first seeded candidate whose size lies within a
narrow band of the slot's target.  Seeds then change the programs but
not the size profile of the corpus.  The size is read off the
generator's statement tree (:func:`ir_size`, which predicts the block
count within 3) rather than the compiled CFG, so a change to the
compiler cannot change which programs a seed selects.
"""

from __future__ import annotations

import random

#: Table I of the paper, in the paper's row order.
TABLE1 = ("check_data", "fft", "piksrt", "des", "line", "circle",
          "jpeg_fdct_islow", "jpeg_idct_islow", "recon", "fullsearch",
          "whetstone", "dhry", "matgen")

#: Size ladders: (grade, target sizes, half band width).
ANALYZE_LADDERS = (("medium", tuple(range(12, 48)) * 2, 1),
                   ("large", (40, 46, 52), 2))
DNF_LADDER = ("medium", tuple(range(14, 34)) + tuple(range(15, 34, 2)), 1)
SERVICE_LADDER = ("medium", tuple(range(14, 45, 2)), 1)

#: Give up on a ladder after this many candidates (a generator change
#: that can no longer reach the targets should fail loudly).
MAX_CANDIDATES = 4000


def table1_job(name: str) -> dict:
    return {"kind": "table1", "name": name}


def synth_job(program, constraints=()) -> dict:
    return {"kind": "source", "name": program.name,
            "source": program.source, "entry": program.entry,
            "bounds": [list(row) for row in program.loop_bounds],
            "constraints": list(constraints)}


def ir_size(ir) -> int:
    """Basic blocks a generated program compiles to, roughly: every
    function, if, else and call opens about one block, a loop three."""
    from repro.synth.gen import Call, If, Loop

    size = len(ir.functions)

    def walk(body):
        nonlocal size
        for stmt in body:
            if isinstance(stmt, If):
                size += 2 + bool(stmt.orelse)
                walk(stmt.then)
                walk(stmt.orelse)
            elif isinstance(stmt, Loop):
                size += 3
                walk(stmt.body)
            elif isinstance(stmt, Call):
                size += 1

    for function in ir.functions:
        walk(function.body)
    return size


def top_blocks(program) -> list:
    """Blocks of the entry routine outside every loop (each runs at
    most once), except the entry block itself."""
    from repro.cfg import build_cfgs, find_loops

    cfg = build_cfgs(program.program)[program.entry]
    in_loops = set()
    for loop in find_loops(cfg):
        in_loops.update(loop.blocks)
    return sorted(b for b in cfg.blocks if b not in in_loops
                  and b != cfg.entry_block)


def ladder(seed: int, stream: int, grade: str, targets, band: int,
           min_top: int = 0) -> list:
    """One seeded program per target block count (see module doc)."""
    from repro.synth import generate

    slots: list = [None] * len(targets)
    for n in range(MAX_CANDIDATES):
        if all(slot is not None for slot in slots):
            return slots
        program = generate((seed * 1_000_003 + stream) * 10_007 + n, grade)
        size = ir_size(program.ir)
        free = [i for i, target in enumerate(targets)
                if slots[i] is None and abs(size - target) <= band]
        if not free:
            continue
        top = top_blocks(program) if min_top else []
        if len(top) >= min_top:
            slots[free[0]] = (program, top)
    raise RuntimeError(f"{grade} ladder {targets} not filled after "
                       f"{MAX_CANDIDATES} candidates")


def dnf_constraints(top: list, k: int, rng: random.Random) -> list:
    """k disjunctions over block counts of the entry routine: 2**k sets.

    Every disjunction pairs a redundant alternative (a top-level block
    runs at most once) with one that is either infeasible against the
    structural constraints or has a fractional LP optimum, so most sets
    die in phase 1 and a few need branch and bound.
    """
    out = []
    for j in range(k):
        a, b, c = (f"x{n}" for n in rng.sample(top, 3))
        safe = f"{a} <= {j + 1}"
        other = (f"x1 = 0",                         # entry runs once
                 f"2 {b} + 2 {c} <= 3",             # LP optimum 1.5
                 f"x1 + {a} >= 3",
                 f"{b} >= 2")[j % 4]
        out.append([f"{safe} | {other}", None])
    return out


def service_salt(pass_index: int) -> list:
    """A redundant constraint that makes a job new to every cache.

    The entry block runs exactly once, so ``x1 <= 2 + p`` never binds:
    the bound stays the base program's, while the job fingerprint and
    the LP text (both cache keys) change with the pass.
    """
    return [f"x1 <= {2 + pass_index}", None]


def make_inputs(workload: str, seed: int) -> dict:
    """The job lists of one workload for one seed."""
    rng = random.Random(seed)
    if workload == "analyze":
        jobs = [table1_job(name) for name in TABLE1]
        for stream, (grade, targets, band) in enumerate(ANALYZE_LADDERS):
            jobs += [synth_job(program) for program, _ in
                     ladder(seed, stream, grade, targets, band)]
        rng.shuffle(jobs)
        return {"workload": workload, "seed": seed, "jobs": jobs}
    if workload == "dnf-fanout":
        grade, targets, band = DNF_LADDER
        jobs = []
        for i, (program, top) in enumerate(
                ladder(seed, 7, grade, targets, band, min_top=3)):
            k = 3 if i % 2 == 0 else 4
            jobs.append(synth_job(program, dnf_constraints(top, k, rng)))
        rng.shuffle(jobs)
        return {"workload": workload, "seed": seed, "jobs": jobs}
    if workload == "service-mix":
        grade, targets, band = SERVICE_LADDER
        misses = [synth_job(program) for program, _ in
                  ladder(seed, 11, grade, targets, band)]
        rng.shuffle(misses)
        hits = [table1_job(name) for name in TABLE1]
        rng.shuffle(hits)
        return {"workload": workload, "seed": seed, "hits": hits,
                "misses": misses}
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# Building analyses from job dicts (shared by workers and the oracle)
# ----------------------------------------------------------------------
def job_source(job: dict) -> tuple[str, str, bool]:
    """(source, entry, context_sensitive) of a job."""
    if job["kind"] == "table1":
        from repro.programs import get_benchmark

        bench = get_benchmark(job["name"])
        return bench.source, bench.entry, bench.context_sensitive
    return job["source"], job["entry"], False


def configure(analysis, job: dict, extra=()) -> None:
    """Apply a job's loop bounds and functionality constraints."""
    if job["kind"] == "table1":
        from repro.programs import get_benchmark

        bench = get_benchmark(job["name"])
        bench.apply_loop_bounds(analysis)
        if bench.add_constraints is not None:
            bench.add_constraints(analysis)
    else:
        for function, line, lo, hi in job["bounds"]:
            analysis.bound_loop(lo, hi, function=function, line=line)
        for text, function in job["constraints"]:
            analysis.add_constraint(text, function=function)
    for text, function in extra:
        analysis.add_constraint(text, function=function)


def build_analysis(job: dict, backend: str = "simplex", extra=()):
    """compile_source + Analysis + bounds, as one job pays them."""
    from repro import Analysis, compile_source

    source, entry, context = job_source(job)
    analysis = Analysis(compile_source(source), entry,
                        context_sensitive=context, backend=backend)
    configure(analysis, job, extra)
    return analysis


def engine_job(job: dict):
    """The job as a :class:`repro.engine.AnalysisJob`."""
    from repro.engine import AnalysisJob

    if job["kind"] == "table1":
        return AnalysisJob.from_benchmark(job["name"])
    return AnalysisJob(
        name=job["name"], source=job["source"], entry=job["entry"],
        bounds=tuple(tuple(row) for row in job["bounds"]),
        constraints=tuple(tuple(c) for c in job["constraints"]))


def oracle(jobs: list, extra=()) -> dict:
    """{job name: [best, worst]} from the independent HiGHS backend."""
    return {job["name"]: list(build_analysis(job, "scipy",
                                             extra).estimate().interval)
            for job in jobs}
