"""Structural constraints vs. the paper's Figs. 2-4 equations (2)-(13).

The emitter (:func:`repro.constraints.base_system`) writes the base
system as named rows.  :class:`TestEmitterMatchesLinExprLowering` keeps
the ``LinExpr`` builders it replaced as a reference and checks that
the emitter gives the rows, row names and variable-registration order
they gave, in merged and context-sensitive mode.
"""

import pytest

from repro.analysis.setsolve import PresolvedBase
from repro.cfg import CallGraph, build_cfgs, instances_of
from repro.codegen import compile_source
from repro.constraints import base_system, qualified
from repro.ilp import LinExpr, Problem
from repro.ilp.model import Polyhedron
from repro.programs import all_benchmarks
from repro.synth import generate

IF_ELSE = """
int f(int p) {
    int q;
    if (p)
        q = 1;
    else
        q = 2;
    return q;
}
"""

WHILE_LOOP = """
int f(int p) {
    int q;
    q = p;
    while (q < 10)
        q++;
    return q;
}
"""

CALLS = """
int total;
void store(int i) { total = total + i; }
void f() {
    int i; int n;
    i = 10;
    store(i);
    n = 2 * i;
    store(n);
}
"""


def emitted(source: str, entry: str = "f"):
    program = compile_source(source)
    return base_system(CallGraph(build_cfgs(program)), entry)


def forms(system, prefix: str):
    """{(frozenset of (var, coef), sense, rhs)} of the rows whose name
    starts with `prefix`."""
    return {(frozenset(row.items()), sense, rhs)
            for name, row, sense, rhs in zip(system.names, system.rows,
                                             system.senses, system.rhs)
            if name.startswith(prefix)}


def eq(lhs: dict, rhs_const: float = 0.0):
    return (frozenset(lhs.items()), "==", rhs_const)


class TestPaperFig2:
    """if-then-else: x1 = d1 = d2+d3, x2 = d2 = d4, x3 = d3 = d5,
    x4 = d4+d5 = d6 (paper eqs. 2-5)."""

    def test_equations_match(self):
        flows = forms(emitted(IF_ELSE), "flow f:")
        f = "f::"
        expected = [
            eq({f + "x1": 1.0, f + "d1": -1.0}),
            eq({f + "x1": 1.0, f + "d2": -1.0, f + "d3": -1.0}),
            eq({f + "x2": 1.0, f + "d2": -1.0}),
            eq({f + "x2": 1.0, f + "d4": -1.0}),
            eq({f + "x3": 1.0, f + "d3": -1.0}),
            eq({f + "x3": 1.0, f + "d5": -1.0}),
            eq({f + "x4": 1.0, f + "d4": -1.0, f + "d5": -1.0}),
            eq({f + "x4": 1.0, f + "d6": -1.0}),
        ]
        for form in expected:
            assert form in flows, f"missing {form}"
        assert len(flows) == len(expected)

    def test_entry_constraint_is_d1_equals_1(self):
        assert forms(emitted(IF_ELSE), "entry f") == {
            (frozenset({("f::d1", 1.0)}), "==", 1.0)}


class TestPaperFig3:
    """while loop: every block's in-flow = count = out-flow, with the
    back edge closing the cycle (paper eqs. 6-9, up to edge naming)."""

    def test_counts_and_arity(self):
        system = emitted(WHILE_LOOP)
        # 4 blocks, two equalities each, named per block and side.
        names = [name for name in system.names if name.startswith("flow")]
        assert names == [f"flow f:x{block} {side}" for block in range(1, 5)
                         for side in ("in", "out")]
        flows = forms(system, "flow")
        f = "f::"
        # Header B2 receives two edges and emits two edges (eq. 7).
        in_form = [form for form in flows
                   if (f + "x2", 1.0) in form[0] and len(form[0]) == 3]
        assert len(in_form) == 2

    def test_observed_counts_satisfy_all_structural_constraints(self):
        program = compile_source(WHILE_LOOP)
        cfgs = build_cfgs(program)
        system = base_system(CallGraph(cfgs), "f").constraints()
        assignment = _edge_and_block_counts(program, cfgs, "f", 4)
        for constraint in system:
            assert constraint.satisfied_by(assignment), str(constraint)


class TestPaperFig4:
    """function calls: x1 = d1 = f1, x2 = f1 = f2, and the callee link
    d(store entry) = f1 + f2 (paper eqs. 10-12)."""

    def test_caller_equations(self):
        flows = forms(emitted(CALLS), "flow f:")
        f = "f::"
        assert eq({f + "x1": 1.0, f + "d1": -1.0}) in flows
        assert eq({f + "x1": 1.0, f + "f1": -1.0}) in flows
        assert eq({f + "x2": 1.0, f + "f1": -1.0}) in flows
        assert eq({f + "x2": 1.0, f + "f2": -1.0}) in flows

    def test_callee_link_eq12(self):
        assert forms(emitted(CALLS), "link store") == {
            eq({"store::d1": 1.0, "f::f1": -1.0, "f::f2": -1.0})}

    def test_entry_link_eq13(self):
        assert (frozenset({("f::d1", 1.0)}), "==", 1.0) in forms(
            emitted(CALLS), "entry f")

    def test_observed_counts_satisfy_system(self):
        program = compile_source(CALLS)
        cfgs = build_cfgs(program)
        system = base_system(CallGraph(cfgs), "f").constraints()
        assignment = _edge_and_block_counts(program, cfgs, "f")
        for constraint in system:
            assert constraint.satisfied_by(assignment), str(constraint)


# ----------------------------------------------------------------------
# The LinExpr builders the emitter replaced, kept as its reference.
# ----------------------------------------------------------------------
def _sum(names) -> LinExpr:
    return LinExpr({name: 1.0 for name in names})


def _flow_constraints(cfg, scope):
    out = []
    for block_id in sorted(cfg.blocks):
        x = LinExpr({qualified(scope, f"x{block_id}"): 1.0})
        incoming = [qualified(scope, e.name) for e in cfg.in_edges(block_id)]
        outgoing = [qualified(scope, e.name) for e in cfg.out_edges(block_id)]
        flow_in = x == _sum(incoming)
        flow_in.name = f"flow {scope}:x{block_id} in"
        flow_out = x == _sum(outgoing)
        flow_out.name = f"flow {scope}:x{block_id} out"
        out += [flow_in, flow_out]
    return out


def _reference_base(analysis):
    """The base as ``Analysis._structural() + _loop_constraints()``
    built it from LinExpr arithmetic."""
    callgraph, entry = analysis.callgraph, analysis.entry
    constraints = []
    if not analysis.context_sensitive:
        reachable = callgraph.reachable_from(entry)
        for name in reachable:
            constraints += _flow_constraints(callgraph.cfgs[name], name)
        pinned = LinExpr({qualified(entry, callgraph.cfgs[entry]
                                    .entry_edge.name): 1.0}) == 1
        pinned.name = f"entry {entry}"
        constraints.append(pinned)
        for name in reachable[1:]:
            sites = [qualified(caller, edge.name)
                     for caller, edge in callgraph.callers_of(name)
                     if caller in reachable]
            d1 = LinExpr({qualified(name, callgraph.cfgs[name]
                                    .entry_edge.name): 1.0})
            link = d1 == _sum(sites)
            link.name = f"link {name}"
            constraints.append(link)
    else:
        for instance in analysis.instances.values():
            cfg = analysis.cfgs[instance.function]
            constraints += _flow_constraints(cfg, instance.id)
            d1 = LinExpr({qualified(instance.id, cfg.entry_edge.name): 1.0})
            if instance.parent is None:
                constraints.append(d1 == 1)
            else:
                constraints.append(d1 == LinExpr(
                    {qualified(instance.parent, instance.via.name): 1.0}))
    for key, loop in sorted(analysis._loops.items()):
        bound = analysis._bounds[key]
        scopes = ([loop.function] if not analysis.context_sensitive else
                  [inst.id for inst in
                   instances_of(analysis.instances, loop.function)])
        for scope in scopes:
            back = _sum(qualified(scope, e.name) for e in loop.back_edges)
            into = _sum(qualified(scope, e.name) for e in loop.entry_edges)
            where = f"{loop.function}:{loop.header_line}"
            lo = back >= bound.lo * into
            lo.name = f"loop {where} lo"
            hi = back <= bound.hi * into
            hi.name = f"loop {where} hi"
            constraints += [lo, hi]
    return constraints


def _analyses():
    for name, bench in all_benchmarks().items():
        for context in (False, True):
            yield f"{name}-{'context' if context else 'merged'}", \
                lambda b=bench, c=context: b.make_analysis(
                    with_constraints=False, context_sensitive=c)
    for seed in range(12):
        grade = ("small", "medium", "large")[seed % 3]
        for context in (False, True):
            yield f"{grade}{seed}-{'context' if context else 'merged'}", \
                lambda s=seed, g=grade, c=context: generate(s, g).analysis(
                    context_sensitive=c)


ANALYSES = dict(_analyses())


class TestEmitterMatchesLinExprLowering:

    @pytest.mark.parametrize("case", sorted(ANALYSES))
    def test_rows_names_and_registration_order(self, case):
        analysis = ANALYSES[case]()
        system = analysis._base_system()
        reference = _reference_base(analysis)
        # Every row: its name, its terms in key order, sense and rhs.
        assert [(name, list(row.items()), sense, rhs)
                for name, row, sense, rhs in zip(
                    system.names, system.rows, system.senses, system.rhs)
                ] == [(c.name, list(c.expr.coefs.items()), c.sense, c.rhs)
                      for c in reference]
        assert [(c.name, c.sense, c.rhs, list(c.expr.coefs.items()))
                for c in system.constraints()] == [
            (c.name, c.sense, c.rhs, list(c.expr.coefs.items()))
            for c in reference]

        # The base lowered directly, and as a Problem of the reference
        # rows lowers: same columns, tie-break order, rows and presolve.
        worst, best = analysis._objectives()
        problem = Problem("base")
        problem.add_all(reference)
        problem.maximize(worst)
        for name in best.variables():
            problem.add_var(name)
        old = Polyhedron(problem)
        new = PresolvedBase(system, worst, best, "float").polyhedron
        assert list(new.index.items()) == list(old.index.items())
        assert new.integers == old.integers
        assert new.shift == old.shift
        for mine, theirs in ((new._lowered, old._lowered),
                             ((new.rows, new.senses, new._rhs),
                              (old.rows, old.senses, old._rhs))):
            assert [list(row.items()) for row in mine[0]] == \
                [list(row.items()) for row in theirs[0]]
            assert mine[1:] == theirs[1:]
        assert new.substitutions == old.substitutions
        assert new.columns == old.columns


def _edge_and_block_counts(program, cfgs, entry, *args):
    """Observed block *and* edge counts for one run.

    The interpreter counts instruction executions; edges are recovered
    from an instruction-index trace: edge (u, v) is taken whenever v's
    leader executes immediately after an instruction of u.
    """
    from repro.sim import Interpreter

    trace = []

    class Recorder:
        def execute(self, instr):
            trace.append(instr.addr // 4)
            return 0

    interp = Interpreter(program, cycle_model=Recorder())
    interp.run(entry, *args)

    assignment = {}
    index_to_block = {}
    for name, cfg in cfgs.items():
        for block in cfg.blocks.values():
            assignment[f"{name}::x{block.id}"] = 0
            for i in range(block.start, block.end):
                index_to_block[i] = (name, block)
        for edge in cfg.edges:
            assignment[f"{name}::{edge.name}"] = 0

    prev = None
    for index in trace:
        name, block = index_to_block[index]
        if index == block.start:
            assignment[f"{name}::x{block.id}"] += 1
            # Find which edge got us here.
            cfg = cfgs[name]
            if prev is None:
                assignment[f"{name}::{cfg.entry_edge.name}"] += 1
            else:
                pname, pblock = prev
                matched = False
                if pname == name:
                    for edge in cfg.in_edges(block.id):
                        if edge.src == pblock.id:
                            assignment[f"{name}::{edge.name}"] += 1
                            matched = True
                            break
                if not matched:
                    if pname != name:
                        # Entering a callee or returning from one.
                        if index == cfg.blocks[cfg.entry_block].start:
                            assignment[f"{name}::{cfg.entry_edge.name}"] += 1
                        else:
                            for edge in cfg.in_edges(block.id):
                                if edge.is_call:
                                    assignment[f"{name}::{edge.name}"] += 1
                                    break
        prev = (name, block)

    # Exit edges: the block executing RET leaves through its exit edge.
    for name, cfg in cfgs.items():
        for edge in cfg.exit_edges():
            block = cfg.blocks[edge.src]
            # Every execution of a RET-terminated block exits.
            assignment[f"{name}::{edge.name}"] = \
                assignment[f"{name}::x{block.id}"]
    return assignment
