"""Integration tests for the IPET estimator.

Covers the paper's running example (check_data, Figs. 5-6), soundness
against simulation and calculation, agreement with the explicit
path-enumeration baseline, context sensitivity and the §VI-A solver
observation.
"""

import pytest

from repro import (Analysis, Dataset, MissingLoopBoundError, calculated_bound,
                   compile_source, enumerate_paths, measure_bounds, pessimism)
from repro.errors import AnalysisError, InfeasibleError
from repro.ilp import Status
from repro.programs import get_benchmark

CHECK_DATA = """
const int DATASIZE = 10;
int data[10];

int check_data() {
    int i, morecheck, wrongone;
    morecheck = 1; i = 0; wrongone = -1;
    while (morecheck) {
        if (data[i] < 0) {
            wrongone = i; morecheck = 0;
        }
        else
            if (++i >= DATASIZE)
                morecheck = 0;
    }
    if (wrongone >= 0)
        return 0;
    else
        return 1;
}
"""

#: Best case: first element negative, loop runs once.
CHECK_DATA_BEST = Dataset(globals={"data": [-1] + [0] * 9})
#: Worst case: nothing negative, loop runs DATASIZE times.
CHECK_DATA_WORST = Dataset(globals={"data": [1] * 10})

SUM_LOOP = """
int data[8];
int f() {
    int i; int s; s = 0;
    for (i = 0; i < 8; i++) s += data[i];
    return s;
}
"""


def check_data_analysis(**kwargs):
    analysis = Analysis(CHECK_DATA, entry="check_data", **kwargs)
    analysis.bound_loop(lo=1, hi=10)
    return analysis


class TestBasicEstimation:
    def test_fixed_loop_bounds(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        analysis.bound_loop(lo=8, hi=8)
        report = analysis.estimate()
        assert 0 < report.best <= report.worst
        # Exactly one constraint set, no functionality constraints.
        assert report.sets_solved == 1

    def test_missing_loop_bound_raises(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        with pytest.raises(MissingLoopBoundError):
            analysis.estimate()

    def test_loops_needing_bounds(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        assert len(analysis.loops_needing_bounds()) == 1
        analysis.bound_loop(lo=8, hi=8)
        assert analysis.loops_needing_bounds() == []

    def test_straight_line_needs_no_bounds(self):
        analysis = Analysis("int f(int a) { return a * 2 + 1; }", entry="f")
        report = analysis.estimate()
        assert report.best > 0
        assert report.best <= report.worst

    def test_branchy_function_worst_takes_expensive_path(self):
        src = """
        float f(int p, float x) {
            if (p)
                return x + 1.0;        /* cheap */
            return sin(x) * cos(x);    /* expensive */
        }
        """
        analysis = Analysis(src, entry="f")
        report = analysis.estimate()
        # Worst path must include the transcendental block.
        assert report.worst - report.best > 300

    def test_wider_loop_bound_widens_interval(self):
        tight = Analysis(SUM_LOOP, entry="f")
        tight.bound_loop(lo=8, hi=8)
        loose = Analysis(SUM_LOOP, entry="f")
        loose.bound_loop(lo=0, hi=100)
        t, l = tight.estimate(), loose.estimate()
        assert l.best <= t.best
        assert l.worst >= t.worst

    def test_unknown_entry(self):
        with pytest.raises(AnalysisError):
            Analysis(SUM_LOOP, entry="nope")

    def test_bound_loop_bad_function(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        with pytest.raises(AnalysisError):
            analysis.bound_loop(lo=1, hi=2, function="g")

    def test_ambiguous_loop_requires_line(self):
        src = """
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s++;
            for (int j = 0; j < n; j++) s--;
            return s;
        }
        """
        analysis = Analysis(src, entry="f")
        with pytest.raises(AnalysisError, match="lines"):
            analysis.bound_loop(lo=0, hi=5)
        lines = sorted(l.header_line for l in analysis.loops)
        analysis.bound_loop(lo=0, hi=5, line=lines[0])
        analysis.bound_loop(lo=0, hi=5, line=lines[1])
        analysis.estimate()

    def test_bound_loops_bulk(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        line = analysis.loops[0].header_line
        analysis.bound_loops({("f", line): (8, 8)})
        analysis.estimate()


class TestCheckDataPaperExample:
    def test_minimum_info_estimate(self):
        report = check_data_analysis().estimate()
        assert report.sets_solved == 1
        assert report.best < report.worst

    def test_paper_functionality_constraints_give_two_sets(self):
        analysis = check_data_analysis()
        listing = analysis_annotation(analysis)
        # Identify blocks from the annotated listing (paper Fig. 5
        # labels): the wrongone/morecheck block and the return-0 block.
        x_neg = listing["wrongone = i; morecheck = 0;"]
        x_inc = listing["morecheck = 0;"]
        x_ret0 = listing["return 0;"]
        analysis.add_constraint(
            f"({x_neg} = 0 & {x_inc} = 1) | ({x_neg} = 1 & {x_inc} = 0)")
        analysis.add_constraint(f"{x_neg} = {x_ret0}")
        assert analysis.expansion().count == 2   # paper §III-D
        report = analysis.estimate()
        assert report.sets_solved == 2

    def test_constraints_tighten_bound(self):
        plain = check_data_analysis().estimate()
        analysis = check_data_analysis()
        listing = analysis_annotation(analysis)
        x_neg = listing["wrongone = i; morecheck = 0;"]
        x_inc = listing["morecheck = 0;"]
        analysis.add_constraint(
            f"({x_neg} = 0 & {x_inc} = 1) | ({x_neg} = 1 & {x_inc} = 0)")
        tightened = analysis.estimate()
        assert tightened.worst <= plain.worst
        assert tightened.best >= plain.best

    def test_soundness_against_calculation(self):
        # Fig. 1: the estimate must enclose the calculated bound.
        report = check_data_analysis().estimate()
        program = compile_source(CHECK_DATA)
        calc = calculated_bound(program, "check_data",
                                CHECK_DATA_BEST, CHECK_DATA_WORST)
        assert report.encloses(calc.interval)
        assert calc.worst_result.value == 1   # no negatives -> returns 1
        assert calc.best_result.value == 0

    def test_soundness_against_measurement(self):
        report = check_data_analysis().estimate()
        program = compile_source(CHECK_DATA)
        measured = measure_bounds(program, "check_data",
                                  CHECK_DATA_BEST, CHECK_DATA_WORST)
        assert report.encloses(measured.interval)

    def test_pessimism_formula(self):
        # Paper Table III row check_data: E=[32,1039], M=[38,441]
        # gives pessimism [0.16, 1.36].
        lo, hi = pessimism((32, 1039), (38, 441))
        assert lo == pytest.approx(0.158, abs=0.01)
        assert hi == pytest.approx(1.356, abs=0.01)


def analysis_annotation(analysis):
    """Map a source snippet to the x-variable of the block starting
    at its line, using the annotated listing machinery."""
    from repro.analysis import annotate_function

    cfg = analysis.cfgs[analysis.entry]
    source_lines = analysis.program.source.splitlines()
    mapping = {}
    for block in cfg.blocks.values():
        line = block.instrs[0].line
        if not line:
            continue
        text = source_lines[line - 1].strip()
        mapping.setdefault(text, block.var)
    # Sanity: the listing renders.
    assert annotate_function(cfg, analysis.program.source)
    return mapping


class TestAgainstEnumeration:
    """DESIGN.md invariant 3: IPET = explicit enumeration when both
    apply."""

    CASES = {
        "single_loop": ("""
            int f(int n) {
                int s = 0;
                for (int i = 0; i < 6; i++) s += i;
                return s;
            }""", {(None, None): (6, 6)}),
        "branch_in_loop": ("""
            int f(int n) {
                int s = 0;
                for (int i = 0; i < 5; i++) {
                    if (n > i) s += n * n;
                    else s -= 1;
                }
                return s;
            }""", {(None, None): (5, 5)}),
        "loop_then_branch": ("""
            int f(int n) {
                int s = 0;
                int i = 0;
                while (i < 4) { s += i; i++; }
                if (s > 3) return s * 2;
                return s;
            }""", {(None, None): (4, 4)}),
        "call_chain": ("""
            int leaf(int x) { return x * x; }
            int f(int n) {
                int s = 0;
                for (int i = 0; i < 3; i++) s += leaf(i);
                return s;
            }""", {(None, None): (3, 3)}),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equal_bounds(self, name):
        source, raw_bounds = self.CASES[name]
        analysis = Analysis(source, entry="f")
        loops = analysis.loops
        bounds = {}
        for loop, (lo, hi) in zip(loops, raw_bounds.values()):
            bounds[loop.key] = (lo, hi)
            analysis.bound_loop(lo, hi, function=loop.function,
                                line=loop.header_line)
        report = analysis.estimate()
        enum = enumerate_paths(analysis.program, "f", bounds)
        assert report.worst == enum.worst, name
        assert report.best == enum.best, name

    def test_variable_bounds_ipet_superset(self):
        # With loose bounds IPET may only be >= the enumerator's worst
        # (aggregate vs per-entry semantics), never below.
        source = """
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++)
                    for (int j = 0; j < n; j++)
                        s += i * j;
                return s;
            }
        """
        analysis = Analysis(source, entry="f")
        bounds = {}
        for loop in analysis.loops:
            lo, hi = (0, 4)
            bounds[loop.key] = (lo, hi)
            analysis.bound_loop(lo, hi, function=loop.function,
                                line=loop.header_line)
        report = analysis.estimate()
        enum = enumerate_paths(analysis.program, "f", bounds)
        assert report.worst >= enum.worst
        assert report.best <= enum.best


CALLER_CALLEE = """
int data[10];
int flag;

int check(int i) {
    if (data[i] < 0)
        return 0;
    return 1;
}

void clear() {
    int i;
    for (i = 0; i < 10; i++) data[i] = 0;
}

void task() {
    int status;
    status = check(0);
    if (!status)
        clear();
    flag = status;
}
"""


class TestContextSensitivity:
    def test_scoped_constraint_requires_context_mode(self):
        analysis = Analysis(CALLER_CALLEE, entry="task")
        analysis.bound_loop(lo=10, hi=10, function="clear")
        analysis.add_constraint("x1.f1 <= 1")
        with pytest.raises(AnalysisError, match="context_sensitive"):
            analysis.estimate()

    def test_paper_eq18_links_caller_and_callee(self):
        # x(clear called) = x(check returned 0 at site f1).
        analysis = Analysis(CALLER_CALLEE, entry="task",
                            context_sensitive=True)
        analysis.bound_loop(lo=10, hi=10, function="clear")
        base = analysis.estimate()

        # Find check()'s return-0 block: the one executing `return 0;`.
        check_cfg = analysis.cfgs["check"]
        source_lines = CALLER_CALLEE.splitlines()
        ret0 = next(b for b in check_cfg.blocks.values()
                    if any(source_lines[l - 1].strip() == "return 0;"
                           for l in b.lines))
        # task's f-edges: f1 = call to check, f2 = call to clear.
        task_cfg = analysis.cfgs["task"]
        call_edges = task_cfg.call_edges()
        check_edge = next(e for e in call_edges if e.callee == "check")
        clear_edge = next(e for e in call_edges if e.callee == "clear")
        clear_block = task_cfg.blocks[clear_edge.src]

        tightened = Analysis(CALLER_CALLEE, entry="task",
                             context_sensitive=True)
        tightened.bound_loop(lo=10, hi=10, function="clear")
        tightened.add_constraint(
            f"{clear_block.var} = {ret0.var}.{check_edge.name}")
        report = tightened.estimate()
        # With data[0] unconstrained both paths stay feasible, so the
        # constraint must not widen anything.
        assert report.worst <= base.worst
        assert report.best >= base.best

    def test_context_mode_matches_merged_without_constraints(self):
        merged = Analysis(CALLER_CALLEE, entry="task")
        merged.bound_loop(lo=10, hi=10, function="clear")
        ctx = Analysis(CALLER_CALLEE, entry="task", context_sensitive=True)
        ctx.bound_loop(lo=10, hi=10, function="clear")
        assert merged.estimate().interval == ctx.estimate().interval

    def test_context_tightens_multi_site_calls(self):
        # leaf() is called from a cheap site (1 iter) and an expensive
        # site (8 iters); merged mode must assume max at both.
        source = """
        int work(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += i;
            return s;
        }
        int f() {
            int a; int b;
            a = work(1);
            b = work(8);
            return a + b;
        }
        """
        merged = Analysis(source, entry="f")
        merged.bound_loop(lo=0, hi=8, function="work")
        merged_report = merged.estimate()

        ctx = Analysis(source, entry="f", context_sensitive=True)
        ctx.bound_loop(lo=0, hi=8, function="work")
        # Constrain the first call site's loop to one iteration via a
        # scoped constraint on the callee's back-edge count.
        work_cfg = ctx.cfgs["work"]
        loop = ctx.loops[0]
        back = loop.back_edges[0]
        f_cfg = ctx.cfgs["f"]
        first_site = f_cfg.call_edges()[0]
        ctx.add_constraint(f"{back.name}.{first_site.name} <= 1",
                           function="f")
        ctx_report = ctx.estimate()
        assert ctx_report.worst < merged_report.worst


class TestSolverBehaviourClaim:
    def test_first_relaxation_integral_on_ipet_problems(self):
        # §VI-A: the branch-and-bound ILP solver finds the very first
        # LP relaxation integer valued on these flow problems.
        analysis = check_data_analysis()
        report = analysis.estimate()
        assert report.all_first_relaxations_integral
        assert report.lp_calls == 2 * report.sets_solved

    def test_scipy_backend_agrees(self):
        ours = check_data_analysis().estimate()
        scipy_report = check_data_analysis(backend="scipy").estimate()
        assert ours.interval == scipy_report.interval


class TestCacheSplitAblation:
    def test_cache_split_tightens_worst(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        analysis.bound_loop(lo=8, hi=8)
        plain = analysis.estimate()

        split = Analysis(SUM_LOOP, entry="f", cache_split=True)
        split.bound_loop(lo=8, hi=8)
        refined = split.estimate()
        assert refined.worst < plain.worst
        assert refined.best == plain.best

    def test_cache_split_still_sound(self):
        split = Analysis(SUM_LOOP, entry="f", cache_split=True)
        split.bound_loop(lo=8, hi=8)
        report = split.estimate()
        program = compile_source(SUM_LOOP)
        data = Dataset(globals={"data": [3] * 8})
        measured = measure_bounds(program, "f", data, data)
        assert report.encloses(measured.interval)

    def test_cache_split_with_context_rejected(self):
        with pytest.raises(AnalysisError):
            Analysis(SUM_LOOP, entry="f", cache_split=True,
                     context_sensitive=True)


class TestFunctionalityEdgeCases:
    def test_contradictory_constraints_all_sets_infeasible(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        analysis.bound_loop(lo=8, hi=8)
        analysis.add_constraint("x1 = 0")   # entry block must run once
        with pytest.raises(InfeasibleError):
            analysis.estimate()

    def test_trivially_null_sets_pruned_before_solving(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        analysis.bound_loop(lo=8, hi=8)
        analysis.add_constraint("x1 = 1 | x1 = 2")
        analysis.add_constraint("x1 = 1 | x1 = 3")
        expansion = analysis.expansion()
        assert expansion.total_before_pruning == 4
        assert expansion.count == 1
        report = analysis.estimate()
        assert report.sets_pruned == 3

    def test_null_sets_are_pruned_in_two_stages(self):
        # Table I's dhry: the expansion prunes 5 of 8 sets by their own
        # relations; propagation through the structural constraints
        # and loop bounds refutes 2 of the 3 left before any LP.
        report = get_benchmark("dhry").make_analysis().estimate()
        assert (report.sets_total, report.sets_pruned,
                report.sets_solved) == (8, 5, 3)
        assert report.refuted_sets == [1, 2]
        assert report.interval == (6298, 18126)
        for result in report.set_results[1:]:
            assert result.status is Status.INFEASIBLE
            assert (result.stats.lp_calls, result.stats.nodes,
                    result.stats.simplex_iterations) == (0, 0, 0)

    def test_unknown_variable_rejected(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        analysis.bound_loop(lo=8, hi=8)
        analysis.add_constraint("x99 = 1")
        with pytest.raises(AnalysisError, match="x99"):
            analysis.estimate()

    def test_constraint_on_unknown_function(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        with pytest.raises(AnalysisError):
            analysis.add_constraint("x1 = 1", function="ghost")

    def test_edge_variable_constraints(self):
        analysis = Analysis(SUM_LOOP, entry="f")
        analysis.bound_loop(lo=0, hi=20)
        analysis.add_constraint("d1 = 1")    # redundant but legal
        report = analysis.estimate()
        assert report.best <= report.worst
