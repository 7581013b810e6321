"""Differential soundness fuzzing over generated programs.

The campaign runner generates N seeded MiniC programs
(:mod:`repro.synth.gen`), analyzes each one twice — serially through
:class:`repro.Analysis` and through the engine's
:func:`~repro.engine.core.execute_job` worker path — measures it on
the cycle-accurate simulator across sampled boundary + random inputs,
and asserts the paper's core soundness contract on every run:

    ``best_bound <= measured cycles <= worst_bound``

and, differentially, that the engine path reproduces the serial
interval bit for bit.

Any violating program is **delta-debugged** down to a minimal
reproducer: the shrinker greedily removes statements, hoists branch
arms, unwraps loops and collapses trip counts on the generator's
statement IR, re-checking the violation after each reduction, until no
single edit preserves it (ddmin's 1-minimality, specialized to trees).

Campaign progress is observable: ``synth.fuzz.*`` counters and a
``synth.fuzz`` span flow through the usual MetricsRegistry/Tracer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..engine.core import execute_job
from ..hw import Machine
from ..obs import NULL_TRACER
from .gen import (GeneratedProgram, If, Loop, ProgramIR, copy_ir,
                  from_ir, generate)


# ----------------------------------------------------------------------
# Findings
# ----------------------------------------------------------------------
@dataclass
class Violation:
    """One soundness failure, with its minimized reproducer."""

    kind: str                      # "worst" | "best" | "engine" | "error"
    detail: str
    program: GeneratedProgram
    inputs: dict | None = None
    measured: int | None = None
    best: int | None = None
    worst: int | None = None
    minimized: GeneratedProgram | None = None
    shrink_steps: int = 0

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "detail": self.detail,
            "seed": self.program.seed,
            "grade": self.program.grade,
            "source": self.program.source,
            "inputs": self.inputs,
            "measured": self.measured,
            "best": self.best,
            "worst": self.worst,
            "minimized": (self.minimized.source
                          if self.minimized else None),
            "shrink_steps": self.shrink_steps,
        }


@dataclass
class FuzzReport:
    """Campaign totals."""

    seed: int
    grade: str
    programs: int = 0
    sim_runs: int = 0
    analyses: int = 0
    wall_seconds: float = 0.0
    engine: bool = True
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "grade": self.grade,
            "programs": self.programs,
            "sim_runs": self.sim_runs,
            "analyses": self.analyses,
            "wall_seconds": round(self.wall_seconds, 3),
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
        }

    def render(self) -> str:
        lines = [
            f"fuzz campaign: {self.programs} programs "
            f"(grade {self.grade}, seed {self.seed}), "
            f"{self.analyses} analyses, {self.sim_runs} simulator "
            f"runs in {self.wall_seconds:.1f}s",
        ]
        if self.ok:
            differential = (" ; engine == serial on every program"
                            if self.engine else "")
            lines.append("soundness: OK "
                         "(best <= measured <= worst on every run"
                         f"{differential})")
        else:
            lines.append(f"soundness: {len(self.violations)} "
                         "VIOLATION(S)")
            for v in self.violations:
                lines.append(f"  [{v.kind}] {v.detail}")
                if v.minimized is not None:
                    lines.append(
                        f"  minimized to "
                        f"{len(v.minimized.source.splitlines())} lines "
                        f"in {v.shrink_steps} shrink steps")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Single-program check
# ----------------------------------------------------------------------
def check_program(prog: GeneratedProgram, *,
                  machine: Machine | None = None,
                  inputs_per_program: int = 6, engine: bool = True,
                  bound_fn=None, registry=None) -> Violation | None:
    """Analyze + measure one program; None means it passed.

    `bound_fn` maps a BoundReport to the ``(best, worst)`` interval to
    check against — the default uses the report's own interval; tests
    inject an artificially broken bound here to exercise the shrinker.
    """
    try:
        analysis = prog.analysis(machine=machine)
        report = analysis.estimate()
    except Exception as error:
        return Violation(kind="error", program=prog,
                         detail=f"analysis failed: {error}")
    if registry is not None:
        registry.counter("synth.fuzz.analyses").inc()
    best, worst = report.best, report.worst
    if bound_fn is not None:
        best, worst = bound_fn(report)

    if engine:
        result = execute_job(
            (prog.analysis_job(machine=machine), None, None, False))
        if registry is not None:
            registry.counter("synth.fuzz.analyses").inc()
        if not result.ok or result.report is None:
            return Violation(kind="engine", program=prog,
                             detail=f"engine job failed: "
                                    f"{result.error}")
        if (result.report.best, result.report.worst) \
                != (report.best, report.worst):
            return Violation(
                kind="engine", program=prog,
                best=report.best, worst=report.worst,
                detail=(f"engine interval "
                        f"[{result.report.best}, "
                        f"{result.report.worst}] != serial "
                        f"[{report.best}, {report.worst}]"))

    for inputs in prog.sample_inputs(inputs_per_program):
        try:
            measured = prog.run(inputs, machine=machine).cycles
        except Exception as error:
            return Violation(kind="error", program=prog,
                             inputs=inputs,
                             detail=f"simulation failed: {error}")
        if registry is not None:
            registry.counter("synth.fuzz.sim_runs").inc()
        if measured > worst:
            return Violation(
                kind="worst", program=prog, inputs=inputs,
                measured=measured, best=best, worst=worst,
                detail=f"measured {measured} > worst bound {worst}")
        if measured < best:
            return Violation(
                kind="best", program=prog, inputs=inputs,
                measured=measured, best=best, worst=worst,
                detail=f"measured {measured} < best bound {best}")
    return None


# ----------------------------------------------------------------------
# Delta-debugging shrinker
# ----------------------------------------------------------------------
def _reductions(ir: ProgramIR):
    """Yield candidate IRs, each one structural edit smaller.

    Edits, in decreasing aggressiveness: delete a statement, replace
    an ``if`` by one of its arms (or drop the ``else``), splice a
    loop's body in place of the loop, collapse a loop to one trip.
    """
    def bodies(stmts, path):
        """Every (container, path) list in the tree, outermost first."""
        yield stmts, path
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, If):
                yield from bodies(stmt.then, path + ((index, "then"),))
                yield from bodies(stmt.orelse,
                                  path + ((index, "orelse"),))
            elif isinstance(stmt, Loop):
                yield from bodies(stmt.body, path + ((index, "body"),))

    def resolve(root, path):
        stmts = root
        for index, attr in path:
            stmts = getattr(stmts[index], attr)
        return stmts

    for fi, fn in enumerate(ir.functions):
        for stmts, path in bodies(fn.body, ()):
            for index, stmt in enumerate(stmts):
                # 1. delete the statement outright
                copy = copy_ir(ir)
                resolve(copy.functions[fi].body, path).pop(index)
                yield copy
                # 2. structural unwraps
                if isinstance(stmt, If):
                    for arm in ("then", "orelse"):
                        if not getattr(stmt, arm):
                            continue
                        copy = copy_ir(ir)
                        target = resolve(copy.functions[fi].body,
                                         path)
                        target[index:index + 1] = \
                            getattr(target[index], arm)
                        yield copy
                    if stmt.orelse:
                        copy = copy_ir(ir)
                        target = resolve(copy.functions[fi].body,
                                         path)
                        target[index].orelse = []
                        yield copy
                elif isinstance(stmt, Loop):
                    copy = copy_ir(ir)
                    target = resolve(copy.functions[fi].body, path)
                    target[index:index + 1] = target[index].body
                    yield copy
                    if stmt.trips > 1:
                        copy = copy_ir(ir)
                        target = resolve(copy.functions[fi].body,
                                         path)
                        target[index].trips = 1
                        yield copy


def shrink(prog: GeneratedProgram, is_violating, *,
           max_steps: int = 400,
           registry=None) -> tuple[GeneratedProgram, int]:
    """Greedy 1-minimal reduction preserving ``is_violating``.

    `is_violating` takes a candidate :class:`GeneratedProgram` and
    returns truthy while the bug reproduces; exceptions count as "does
    not reproduce" (e.g. a reduction produced an uncompilable or
    unanalyzable program).  Returns ``(minimal_program, steps_used)``.
    """
    if prog.ir is None:
        return prog, 0
    current = prog
    steps = 0
    reduced = True
    while reduced and steps < max_steps:
        reduced = False
        for candidate_ir in _reductions(current.ir):
            steps += 1
            if registry is not None:
                registry.counter("synth.fuzz.shrink_steps").inc()
            candidate = from_ir(candidate_ir, seed=current.seed,
                                grade=current.grade,
                                domain=current.domain)
            try:
                still_bad = bool(is_violating(candidate))
            except Exception:
                still_bad = False
            if still_bad:
                current = candidate
                reduced = True
                break
            if steps >= max_steps:
                break
    return current, steps


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
def run_campaign(seed: int, count: int, grade: str = "small", *,
                 machine: Machine | None = None,
                 inputs_per_program: int = 6, engine: bool = True,
                 bound_fn=None, corpus=None, max_violations: int = 5,
                 shrink_violations: bool = True, registry=None,
                 tracer=None, progress=None) -> FuzzReport:
    """Run a seeded N-program differential soundness campaign.

    Stops collecting after `max_violations` failures (each one costs a
    shrink).  `corpus` (a :class:`repro.synth.corpus.Corpus`) receives
    every generated program.  `progress` is an optional callable
    ``(index, count, violations)`` for live reporting.
    """
    tracer = tracer or NULL_TRACER
    report = FuzzReport(seed=seed, grade=grade, engine=engine)
    started = time.perf_counter()
    with tracer.span("synth.fuzz", cat="synth", seed=seed,
                     count=count, grade=grade) as span:
        for index in range(count):
            prog = generate(seed * 1_000_003 + index, grade=grade,
                            registry=registry)
            report.programs += 1
            if registry is not None:
                registry.counter("synth.fuzz.programs").inc()
            if corpus is not None:
                corpus.add(prog)
            violation = check_program(
                prog, machine=machine,
                inputs_per_program=inputs_per_program, engine=engine,
                bound_fn=bound_fn, registry=registry)
            report.analyses += 1 + (1 if engine else 0)
            report.sim_runs += inputs_per_program
            if violation is not None:
                if registry is not None:
                    registry.counter("synth.fuzz.violations").inc()
                if shrink_violations and violation.kind != "error":
                    kind = violation.kind

                    def reproduces(candidate) -> bool:
                        found = check_program(
                            candidate, machine=machine,
                            inputs_per_program=inputs_per_program,
                            engine=engine, bound_fn=bound_fn)
                        return (found is not None
                                and found.kind == kind)

                    violation.minimized, violation.shrink_steps = \
                        shrink(prog, reproduces, registry=registry)
                report.violations.append(violation)
            if progress is not None:
                progress(index + 1, count, len(report.violations))
            if len(report.violations) >= max_violations:
                break
        report.wall_seconds = time.perf_counter() - started
        span.set("programs", report.programs)
        span.set("violations", len(report.violations))
    return report
