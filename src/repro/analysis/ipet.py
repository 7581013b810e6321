"""The IPET estimator — the paper's core contribution (§III).

:class:`Analysis` ties everything together: compile (or accept) a
program, build CFGs and the call graph, extract structural constraints,
take loop bounds and functionality constraints from the user, expand
disjunctions into constraint sets, and solve one ILP per set for the
worst case (maximize) and the best case (minimize).  The estimated
bound is the max/min over all sets.  :meth:`Analysis.estimate` solves
every set in this process and keeps nothing on disk; the batch engine
and the service cache whole reports (:mod:`repro.engine.cache`).

Example
-------
>>> from repro import Analysis
>>> src = '''
... int data[10];
... int f() {
...     int i; int s; s = 0;
...     for (i = 0; i < 10; i++) s += data[i];
...     return s;
... }'''
>>> analysis = Analysis(src, entry="f")
>>> analysis.bound_loop(lo=10, hi=10)
>>> report = analysis.estimate()
>>> report.best <= report.worst
True
"""

from __future__ import annotations

from ..cfg import (CFG, CallGraph, Loop, build_cfgs, expand_contexts,
                   find_loops, instances_of, loops_by_key)
from ..codegen import Program, compile_source
from ..constraints import (BaseSystem, Formula, LoopBound, Relation,
                           SymExpr, VarRef, base_system, combine,
                           parse_constraint, qualified)
from ..errors import (AnalysisError, InfeasibleError,
                      MissingLoopBoundError)
from ..hw import Machine, cost_table, i960kb, lines_touched
from ..ilp import LinExpr
from .report import BoundReport, SetResult
from .setsolve import SetTask, presolve_base, solve_set


class Analysis:
    """IPET bound estimation for one entry routine.

    Parameters
    ----------
    program:
        MiniC source text or an already compiled
        :class:`~repro.codegen.Program`.
    entry:
        Name of the routine to bound (the paper analyzes routines, not
        whole applications).
    machine:
        Hardware model; defaults to the i960KB preset.
    context_sensitive:
        Create per-call-site callee instances (needed for scoped
        constraints like ``x8.f1``; paper Fig. 6).
    cache_split:
        §IV refinement: blocks inside loops whose code is
        conflict-free in the I-cache pay their miss penalties once per
        loop *entry* instead of once per iteration in the worst case.
    backend:
        ILP backend: ``"simplex"`` (ours, the default), ``"exact"``
        (ours over rational arithmetic) or ``"scipy"`` (HiGHS oracle).
    tracer:
        A :class:`repro.obs.Tracer`; compilation, CFG construction,
        constraint generation, DNF expansion and every solver call emit
        spans into it.  Defaults to the no-op tracer.
    """

    def __init__(self, program: str | Program, entry: str,
                 machine: Machine | None = None,
                 context_sensitive: bool = False,
                 cache_split: bool = False,
                 backend: str = "simplex",
                 tracer=None):
        from ..obs.trace import NULL_TRACER

        self.tracer = NULL_TRACER if tracer is None else tracer
        if isinstance(program, str):
            with self.tracer.span("compile", cat="pipeline") as span:
                program = compile_source(program)
                span.set("functions", len(program.functions))
        if entry not in program.functions:
            raise AnalysisError(f"no function named {entry!r}")
        if cache_split and context_sensitive:
            raise AnalysisError(
                "cache_split is only implemented for the merged "
                "(context-insensitive) model")
        self.program = program
        self.entry = entry
        self.machine = machine or i960kb()
        self.context_sensitive = context_sensitive
        self.cache_split = cache_split
        self.backend = backend

        with self.tracer.span("cfg", cat="pipeline", entry=entry) as span:
            self.cfgs: dict[str, CFG] = build_cfgs(program)
            self.callgraph = CallGraph(self.cfgs)
            self.reachable: list[str] = self.callgraph.reachable_from(entry)
            self.instances = (expand_contexts(self.callgraph, entry)
                              if context_sensitive else None)
            span.set("cfgs", len(self.cfgs))
            span.set("reachable", len(self.reachable))

        self._loops: dict[tuple[str, int], Loop] = loops_by_key(
            {name: self.cfgs[name] for name in self.reachable})

        self._bounds: dict[tuple[str, int], LoopBound] = {}
        self._formulas: list[Formula] = []
        self._locals_cache: dict[str, set[str]] = {}
        self._last_expansion = None

    # ------------------------------------------------------------------
    # User information (the paper's interactive prompts, as an API)
    # ------------------------------------------------------------------
    @property
    def loops(self) -> list[Loop]:
        """All loops reachable from the entry, needing bounds."""
        return sorted(self._loops.values(), key=lambda l: l.key)

    def loops_needing_bounds(self) -> list[Loop]:
        return [loop for loop in self.loops
                if loop.key not in self._bounds]

    def bound_loop(self, lo: int, hi: int, function: str | None = None,
                   line: int | None = None) -> None:
        """Supply the iteration bound for one loop.

        The loop is addressed by (function, header source line); both
        default when unambiguous — ``function`` to the entry routine,
        ``line`` to the only loop of that function.
        """
        function = function or self.entry
        candidates = [loop for loop in self._loops.values()
                      if loop.function == function
                      and (line is None or loop.header_line == line)]
        if not candidates:
            where = f"line {line} of " if line is not None else ""
            raise AnalysisError(f"no loop at {where}{function}()")
        if len(candidates) > 1:
            lines = sorted(l.header_line for l in candidates)
            raise AnalysisError(
                f"{function}() has loops at lines {lines}; pass line=")
        self._bounds[candidates[0].key] = LoopBound(lo, hi)

    def auto_bound_loops(self) -> list:
        """Derive bounds for counted loops automatically (§VII).

        Applies every derivable constant-trip-count bound (skipping
        loops already bounded by the user) and returns the list of
        :class:`~repro.analysis.autobound.DerivedBound` applied.
        Remaining loops still show up in :meth:`loops_needing_bounds`.
        """
        from .autobound import derive_loop_bounds

        applied = []
        for derived in derive_loop_bounds(self.program.ast):
            if derived.key not in self._loops:
                continue            # unreachable function or no CFG loop
            if derived.key in self._bounds:
                continue            # user knowledge wins
            self.bound_loop(derived.lo, derived.hi,
                            function=derived.function, line=derived.line)
            applied.append(derived)
        return applied

    def bound_loops(self, bounds: dict) -> None:
        """Bulk variant: {(function, line) | line: (lo, hi)}."""
        for key, (lo, hi) in bounds.items():
            if isinstance(key, tuple):
                function, line = key
            else:
                function, line = None, key
            self.bound_loop(lo, hi, function=function, line=line)

    def add_constraint(self, text: str, function: str | None = None) -> None:
        """Add a functionality constraint (paper §III-C).

        Unqualified variables refer to `function` (default: the entry
        routine).
        """
        scope = function or self.entry
        if scope not in self.cfgs:
            raise AnalysisError(f"no function named {scope!r}")
        formula = parse_constraint(text)
        self._formulas.append(_normalize_scope(formula, scope))

    # ------------------------------------------------------------------
    # Variable validation / resolution
    # ------------------------------------------------------------------
    def _locals_of(self, function: str) -> set[str]:
        names = self._locals_cache.get(function)
        if names is None:
            cfg = self.cfgs[function]
            names = {f"x{b}" for b in cfg.blocks}
            names |= {e.name for e in cfg.edges}
            self._locals_cache[function] = names
        return names

    def _validate_local(self, function: str, local: str) -> None:
        if function not in self.cfgs:
            raise AnalysisError(f"constraint names unknown function "
                                f"{function!r}")
        if local not in self._locals_of(function):
            raise AnalysisError(
                f"{function}() has no count variable {local!r} "
                f"(see Analysis.annotated_listing())")

    def _resolve(self, ref: VarRef) -> LinExpr:
        function = ref.function
        assert function is not None  # normalized at add_constraint
        if not self.context_sensitive:
            if ref.path:
                raise AnalysisError(
                    f"{ref} is call-context scoped; construct the "
                    "Analysis with context_sensitive=True")
            self._validate_local(function, ref.local)
            return LinExpr({qualified(function, ref.local): 1.0})

        current = instances_of(self.instances, function)
        if not current:
            raise AnalysisError(
                f"{function}() is not reachable from {self.entry}()")
        for hop in ref.path:
            step = []
            for instance in current:
                child = self.instances.get(f"{instance.id}/{hop}")
                if child is not None:
                    step.append(child)
            if not step:
                raise AnalysisError(
                    f"{ref}: no call edge {hop} in "
                    f"{current[0].function}()")
            current = step
        self._validate_local(current[0].function, ref.local)
        return LinExpr({qualified(inst.id, ref.local): 1.0
                        for inst in current})

    # ------------------------------------------------------------------
    # Constraint-system assembly
    # ------------------------------------------------------------------
    def _base_system(self) -> BaseSystem:
        """The structural constraints and loop bounds, as rows."""
        missing = self.loops_needing_bounds()
        if missing:
            raise MissingLoopBoundError(missing)
        loops = [(loop, self._bounds[key])
                 for key, loop in sorted(self._loops.items())]
        return base_system(self.callgraph, self.entry, self.instances,
                           loops)

    def _scopes(self) -> list[tuple[str, str]]:
        """(variable scope, function) pairs carrying block costs."""
        if not self.context_sensitive:
            return [(name, name) for name in self.reachable]
        return [(inst.id, inst.function)
                for inst in sorted(self.instances.values(),
                                   key=lambda i: i.id)]

    def _objectives(self) -> tuple[LinExpr, LinExpr]:
        """(worst-case maximize, best-case minimize) objectives."""
        overrides, extra = ({}, {})
        if self.cache_split:
            overrides, extra = self._cache_split_adjustments()
        worst: dict[str, float] = dict(extra)
        best: dict[str, float] = {}
        for scope, function in self._scopes():
            costs = cost_table(self.cfgs[function], self.machine)
            for block_id, cost in costs.items():
                var = qualified(scope, f"x{block_id}")
                worst_cost = overrides.get((function, block_id), cost.worst)
                worst[var] = worst.get(var, 0.0) + worst_cost
                best[var] = best.get(var, 0.0) + cost.best
        return LinExpr(worst), LinExpr(best)

    def _cache_split_adjustments(self):
        """First-iteration cache refinement (§IV).

        For a loop whose code has no I-cache conflicts and no calls,
        every line the loop touches misses at most once per loop
        *entry*.  Blocks in such loops get all-hit worst costs and the
        miss penalties move onto the loop's entry-edge counts.
        """
        machine = self.machine
        overrides: dict[tuple[str, int], int] = {}
        extra: dict[str, float] = {}
        if not machine.num_lines or not machine.miss_penalty:
            return overrides, extra
        for function in self.reachable:
            cfg = self.cfgs[function]
            loops = sorted(find_loops(cfg), key=lambda l: len(l.blocks),
                           reverse=True)
            qualifying = [loop for loop in loops
                          if self._loop_fits_cache(cfg, loop)]
            costs = cost_table(cfg, machine)
            for block_id, block in cfg.blocks.items():
                owner = next((loop for loop in qualifying
                              if block_id in loop.blocks), None)
                if owner is None:
                    continue
                lines = lines_touched(block, machine)
                overrides[(function, block_id)] = (
                    costs[block_id].worst - lines * machine.miss_penalty)
                for edge in owner.entry_edges:
                    var = qualified(function, edge.name)
                    extra[var] = (extra.get(var, 0.0)
                                  + lines * machine.miss_penalty)
        return overrides, extra

    def _loop_fits_cache(self, cfg: CFG, loop: Loop) -> bool:
        machine = self.machine
        lines: set[int] = set()
        for block_id in loop.blocks:
            block = cfg.blocks[block_id]
            if any(e.is_call for e in cfg.out_edges(block_id)):
                return False
            first = machine.line_of(block.instrs[0].addr)
            last = machine.line_of(block.instrs[-1].addr)
            lines.update(range(first, last + 1))
        if len(lines) > machine.num_lines:
            return False
        sets = {line % machine.num_lines for line in lines}
        return len(sets) == len(lines)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def expansion(self):
        """DNF expansion of the functionality constraints (Table I)."""
        return combine(self._formulas)

    def set_tasks(self, set_timeout: float | None = None,
                  max_iterations: int | None = None) -> list[SetTask]:
        """The expansion lowered to self-contained solver tasks — one
        per surviving constraint set, in the expansion's canonical
        order.  Raises when every set is null.  The base system every
        set shares is lowered and presolved here, once
        (:class:`~repro.analysis.setsolve.PresolvedBase`)."""
        with self.tracer.span("constraints", cat="pipeline") as span:
            base = self._base_system()
            worst_obj, best_obj = self._objectives()
            presolved = presolve_base(base, worst_obj, best_obj,
                                      self.backend)
            span.set("base", len(base))
        with self.tracer.span("expand", cat="pipeline") as span:
            expansion = self.expansion()
            span.set("sets", len(expansion.sets))
            span.set("pruned", expansion.pruned)
            tasks = [
                SetTask(index, base,
                        [r.resolve(self._resolve) for r in relations],
                        worst_obj, best_obj, backend=self.backend,
                        timeout=set_timeout,
                        max_iterations=max_iterations,
                        presolved=presolved)
                for index, relations in enumerate(expansion.sets)]
        if not tasks:
            raise InfeasibleError(
                "all functionality constraint sets are null")
        self._last_expansion = expansion
        return tasks

    def estimate(self, set_timeout: float | None = None,
                 max_iterations: int | None = None) -> BoundReport:
        """Run the full IPET procedure (§III-D) and return the bound.

        Parameters
        ----------
        set_timeout:
            Wall-clock budget in seconds per constraint set; a set that
            exceeds it reports its LP-relaxation bound (still sound)
            and the report is marked ``partial``.
        max_iterations:
            Cumulative simplex-pivot budget per ILP; exceeding it
            degrades that direction to its LP relaxation, like a
            timeout.
        """
        tasks = self.set_tasks(set_timeout, max_iterations)
        with self.tracer.span("solve", cat="pipeline", sets=len(tasks)):
            results = [solve_set(task, self.tracer) for task in tasks]
        report = self.assemble_report(results, self._last_expansion)
        if self.tracer.enabled:
            report.trace = self.tracer.records()
        return report

    def assemble_report(self, results: list[SetResult],
                        expansion) -> BoundReport:
        """Fold per-set results, in task order, into the max/min
        :class:`BoundReport`."""
        overall_worst: SetResult | None = None
        overall_best: SetResult | None = None
        for result in results:
            if not result.feasible:
                continue
            if overall_worst is None or result.worst > overall_worst.worst:
                overall_worst = result
            if overall_best is None or result.best < overall_best.best:
                overall_best = result

        if overall_worst is None:
            raise InfeasibleError(
                "every functionality constraint set is infeasible "
                "against the structural constraints")
        return BoundReport(
            entry=self.entry,
            machine=self.machine.name,
            best=int(round(overall_best.best)),
            worst=int(round(overall_worst.worst)),
            set_results=results,
            sets_total=expansion.total_before_pruning,
            sets_pruned=expansion.pruned,
            worst_counts=overall_worst.worst_counts,
            best_counts=overall_best.best_counts,
            partial=any(r.timed_out for r in results),
        )


def _normalize_scope(formula: Formula, scope: str) -> Formula:
    """Give every unqualified variable reference an explicit function."""
    new_sets = []
    for conjunct in formula.sets:
        new_relations = []
        for relation in conjunct:
            expr = SymExpr(const=relation.expr.const)
            for ref, coef in relation.expr.terms.items():
                if ref.function is None:
                    ref = VarRef(ref.local, scope, ref.path)
                expr.add(ref, coef)
            new_relations.append(Relation(expr, relation.sense,
                                          relation.text))
        new_sets.append(new_relations)
    return Formula(new_sets, formula.text)
