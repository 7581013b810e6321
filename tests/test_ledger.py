"""The identity ledger: every set of a fixed corpus, pinned.

``tests/golden/ledger.json`` holds, for each job of a fixed corpus
(the thirteen Table-I routines and seeded ``repro.synth`` programs
with dnf-fanout-style disjunctions: most of their sets are
infeasible, a few branch), a digest of the job's input, its
``[best, worst]`` bound, and two groups of fields per constraint set:

* ``sets`` never change: the status, the rounded worst and best
  objectives and the first-relaxation flag;
* ``effort`` changes only with ``SOLVER_VERSION``: LP calls, simplex
  pivots, branch & bound nodes and a digest of both witnesses.

The serial path (:meth:`repro.Analysis.estimate`) must reproduce
every field, and so must the engine's process pool, where each job
crosses a process boundary as an :class:`~repro.engine.AnalysisJob`,
and the service, where each job is an HTTP-submitted
:class:`~repro.service.JobSpec` run by process workers and journaled,
and then served again by a second service recovering the journal
(CI runs this file under two ``PYTHONHASHSEED`` values, so output
that follows the iteration order of a ``set`` of names fails there).
A change to the second group comes with a
``SOLVER_VERSION`` bump and the regenerated file.  Regenerate with
``PYTHONPATH=src python tests/test_ledger.py --write COMMIT``; the file
records COMMIT, the commit whose solver first wrote the never-changing
fields (keep it when regenerating the effort fields), and the solver
version that wrote the effort fields.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import replace
from pathlib import Path

from repro.cfg import build_cfgs, find_loops
from repro.engine import AnalysisEngine, AnalysisJob
from repro.engine.cache import SOLVER_VERSION, report_from_dict
from repro.programs import all_benchmarks
from repro.service import JobSpec, ServiceClient, ServiceThread
from repro.synth import generate

LEDGER = Path(__file__).parent / "golden" / "ledger.json"

#: Synthetic programs in the corpus, and the seeds they are drawn from.
SYNTH_PROGRAMS = 40
SYNTH_GRADE = "medium"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _top_blocks(program) -> list:
    """Blocks of the entry routine outside every loop (each runs at
    most once), except the entry block itself."""
    cfg = build_cfgs(program.program)[program.entry]
    looped = set()
    for loop in find_loops(cfg):
        looped.update(loop.blocks)
    return sorted(b for b in cfg.blocks
                  if b not in looped and b != cfg.entry_block)


def _disjunctions(top: list, k: int, rng: random.Random) -> list[str]:
    """k disjunctions, 2**k sets: each pairs a redundant alternative (a
    top-level block runs at most once) with one that is infeasible
    against the structural constraints or has a fractional LP
    optimum."""
    out = []
    for j in range(k):
        a, b, c = (f"x{n}" for n in rng.sample(top, 3))
        other = ("x1 = 0", f"2 {b} + 2 {c} <= 3", f"x1 + {a} >= 3",
                 f"{b} >= 2")[j % 4]
        out.append(f"{a} <= {j + 1} | {other}")
    return out


def corpus() -> dict:
    """{job name: (input digest, analysis factory, the same analysis
    as an engine job)}, in a fixed order."""
    jobs = {}
    for name, bench in all_benchmarks().items():
        jobs[name] = (_digest(f"{bench.entry}\n{bench.source}"),
                      bench.make_analysis, AnalysisJob.from_benchmark(name))
    seed = 0
    while len(jobs) < len(all_benchmarks()) + SYNTH_PROGRAMS:
        program = generate(seed, SYNTH_GRADE)
        seed += 1
        top = _top_blocks(program)
        if len(top) < 3:
            continue
        rng = random.Random(seed)
        texts = _disjunctions(top, 3 + len(jobs) % 2, rng)

        def make(program=program, texts=texts):
            analysis = program.analysis()
            for text in texts:
                analysis.add_constraint(text)
            return analysis

        material = json.dumps([program.entry, program.source,
                               [list(row) for row in program.loop_bounds],
                               texts])
        job = replace(program.analysis_job(),
                      constraints=tuple((text, None) for text in texts))
        jobs[f"{SYNTH_GRADE}{seed - 1}"] = (_digest(material), make, job)
    return jobs


def _rounded(value):
    return None if value is None else round(value)


def ledger_record(report) -> dict:
    """One job's ledger entry, from its :class:`BoundReport`."""
    sets, effort = [], []
    for result in report.set_results:
        stats = result.stats
        sets.append([result.status.value, _rounded(result.worst),
                     _rounded(result.best),
                     stats.first_relaxation_integral])
        witness = repr((sorted(result.worst_counts.items()),
                        sorted(result.best_counts.items())))
        effort.append([stats.lp_calls, stats.simplex_iterations,
                       stats.nodes, _digest(witness)])
    return {"interval": list(report.interval), "sets": sets,
            "effort": effort}


def _write_ledger(commit: str) -> None:
    """Record the serial path's output as the ledger, one job a line."""
    jobs = [json.dumps(name) + ": " + json.dumps(
                {"input": digest, **ledger_record(make().estimate())},
                separators=(",", ":"))
            for name, (digest, make, _) in corpus().items()]
    head = json.dumps({"commit": commit, "solver_version": SOLVER_VERSION})
    LEDGER.write_text(head[:-1] + ', "jobs": {\n' + ",\n".join(jobs)
                      + "\n}}\n")


def _check_against_ledger(jobs: dict, records: dict) -> None:
    """Every field of `records` ({job name: ledger entry}) is the
    ledger's, and the corpus is the one the ledger was written from."""
    ledger = json.loads(LEDGER.read_text())
    assert ledger["solver_version"] == SOLVER_VERSION, (
        "SOLVER_VERSION moved: regenerate the ledger's effort fields")
    changed = [name for name, (digest, *_) in jobs.items()
               if ledger["jobs"].get(name, {}).get("input") != digest]
    assert list(jobs) == list(ledger["jobs"]) and not changed, \
        f"the corpus changed, not the solver: {changed[:5]}"
    mismatches = []
    for name in jobs:
        want, got = ledger["jobs"][name], records[name]
        if got["interval"] != want["interval"]:
            mismatches.append(f"{name}: bound {got['interval']} != "
                              f"{want['interval']}")
        if len(got["sets"]) != len(want["sets"]):
            mismatches.append(f"{name}: {len(got['sets'])} sets != "
                              f"{len(want['sets'])}")
            continue
        for group in ("sets", "effort"):
            for index, (mine, theirs) in enumerate(
                    zip(got[group], want[group])):
                if mine != theirs:
                    mismatches.append(f"{name} set {index} {group}: "
                                      f"{mine} != {theirs}")
    assert not mismatches, "\n".join(mismatches[:20])


def test_serial_path_matches_ledger():
    jobs = corpus()
    _check_against_ledger(jobs, {
        name: ledger_record(make().estimate())
        for name, (_, make, _) in jobs.items()})


def test_engine_pool_matches_ledger():
    """Each job as an AnalysisJob through a two-worker process pool,
    cache off."""
    jobs = corpus()
    results = AnalysisEngine(workers=2).run([job for *_, job in
                                             jobs.values()])
    failed = [f"{result.name}: {result.error}" for result in results
              if not result.ok]
    assert not failed, failed[:5]
    _check_against_ledger(jobs, {
        name: ledger_record(result.report)
        for name, result in zip(jobs, results)})


def _job_spec(job: AnalysisJob) -> JobSpec:
    """A corpus job as a service submission."""
    if job.benchmark is not None:
        return JobSpec(name=job.name, benchmark=job.benchmark)
    return JobSpec(name=job.name, source=job.source, entry=job.entry,
                   bounds=job.bounds, constraints=job.constraints)


def _served(client: ServiceClient, ids: dict) -> dict:
    """{job name: ledger entry} of the reports the service serves."""
    records = {name: client.wait(job_id, timeout=300)
               for name, job_id in ids.items()}
    return {name: ledger_record(report_from_dict(record["report"]))
            for name, record in records.items()}


def test_service_and_journal_recovery_match_ledger(tmp_path):
    """Each job as a JobSpec through a two-worker process-pool service
    with a journal and no cache, then the same jobs as a second
    service recovers them from that journal."""
    jobs = corpus()
    with ServiceThread(workers=2, executor="process",
                       journal_dir=tmp_path, series=False) as handle, \
            ServiceClient(port=handle.port) as client:
        ids = {name: client.submit(_job_spec(job))["id"]
               for name, (*_, job) in jobs.items()}
        _check_against_ledger(jobs, _served(client, ids))
    with ServiceThread(workers=2, executor="process",
                       journal_dir=tmp_path, series=False) as handle, \
            ServiceClient(port=handle.port) as client:
        assert all(client.job(job_id)["recovered"]
                   for job_id in ids.values())
        _check_against_ledger(jobs, _served(client, ids))


def test_corpus_has_infeasible_and_branching_sets():
    ledger = json.loads(LEDGER.read_text())["jobs"]
    sets = [row for job in ledger.values() for row in job["sets"]]
    effort = [row for job in ledger.values() for row in job["effort"]]
    assert sum(status == "infeasible" for status, *_ in sets) >= 100
    assert any(nodes > 2 for _, _, nodes, _ in effort)


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or len(sys.argv) != 3:
        sys.exit("usage: test_ledger.py --write COMMIT")
    _write_ledger(sys.argv[2])
