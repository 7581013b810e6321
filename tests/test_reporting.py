"""Tests for bound reports, pessimism arithmetic, annotated listings,
and the constraint naming/inlining helpers."""

import pytest

from repro import Analysis
from repro.analysis import annotate_function, annotate_program, pessimism
from repro.analysis.report import BoundReport, SetResult
from repro.cfg import CallGraph, build_cfgs, expand_contexts, instances_of
from repro.codegen import compile_source
from repro.constraints import (LoopBound, base_system, local_part,
                               qualified, scope_part, split)
from repro.errors import AnalysisError
from repro.ilp import SolveStats, Status


class TestPessimism:
    def test_identical_bounds_zero(self):
        assert pessimism((10, 20), (10, 20)) == (0.0, 0.0)

    def test_paper_table3_fft_row(self):
        # E = [0.97e6, 3.35e6], M = [1.93e6, 2.05e6] -> [0.50, 0.63].
        lo, hi = pessimism((0.97e6, 3.35e6), (1.93e6, 2.05e6))
        assert lo == pytest.approx(0.497, abs=0.01)
        assert hi == pytest.approx(0.634, abs=0.01)

    def test_zero_reference_guarded(self):
        assert pessimism((0, 10), (0, 0)) == (0.0, 0.0)

    def test_wider_estimate_more_pessimism(self):
        narrow = pessimism((90, 110), (100, 100))
        wide = pessimism((50, 200), (100, 100))
        assert wide[0] > narrow[0] and wide[1] > narrow[1]


def _report(**kwargs):
    defaults = dict(entry="f", machine="m", best=10, worst=100,
                    set_results=[], sets_total=1, sets_pruned=0)
    defaults.update(kwargs)
    return BoundReport(**defaults)


class TestBoundReport:
    def test_interval_and_encloses(self):
        report = _report()
        assert report.interval == (10, 100)
        assert report.encloses((10, 100))
        assert report.encloses((50, 60))
        assert not report.encloses((5, 60))
        assert not report.encloses((50, 101))

    def test_lp_call_aggregation(self):
        results = [
            SetResult(0, Status.OPTIMAL, stats=SolveStats(
                lp_calls=2, first_relaxation_integral=True)),
            SetResult(1, Status.INFEASIBLE, stats=SolveStats(
                lp_calls=1, first_relaxation_integral=False)),
        ]
        report = _report(set_results=results)
        assert report.lp_calls == 3
        assert report.sets_solved == 2
        # Infeasible sets do not count against integrality.
        assert report.all_first_relaxations_integral

    def test_str_mentions_entry_and_sets(self):
        results = [SetResult(0, Status.OPTIMAL)]
        text = str(_report(set_results=results))
        assert "f" in text and "1 constraint sets" in text


SRC = """
int total;
void leaf(int v) { total = total + v; }
void f(int n) {
    if (n > 0)
        leaf(n);
    else
        leaf(-n);
    total = total * 2;
}
"""


class TestAnnotation:
    def test_function_listing_marks_blocks_and_calls(self):
        program = compile_source(SRC)
        cfgs = build_cfgs(program)
        listing = annotate_function(cfgs["f"], SRC)
        assert "x1" in listing
        assert "f1" in listing and "f2" in listing
        # Line numbers are included.
        assert "leaf(n);" in listing

    def test_program_listing_covers_functions(self):
        program = compile_source(SRC)
        cfgs = build_cfgs(program)
        listing = annotate_program(cfgs, SRC)
        assert "// --- f() ---" in listing
        assert "// --- leaf() ---" in listing

    def test_subset(self):
        program = compile_source(SRC)
        cfgs = build_cfgs(program)
        listing = annotate_program(cfgs, SRC, functions=["leaf"])
        assert "leaf()" in listing and "--- f()" not in listing


class TestNames:
    def test_qualified_roundtrip(self):
        name = qualified("check_data", "x3")
        assert split(name) == ("check_data", "x3")
        assert local_part(name) == "x3"
        assert scope_part(name) == "check_data"

    def test_instance_scopes(self):
        name = qualified("task/f1", "d2")
        assert scope_part(name) == "task/f1"


class TestContextExpansion:
    def test_instances_for_each_call_path(self):
        program = compile_source(SRC)
        graph = CallGraph(build_cfgs(program))
        instances = expand_contexts(graph, "f")
        assert set(instances) == {"f", "f/f1", "f/f2"}
        assert instances["f/f1"].function == "leaf"
        assert instances["f/f2"].parent == "f"

    def test_instances_of(self):
        program = compile_source(SRC)
        graph = CallGraph(build_cfgs(program))
        instances = expand_contexts(graph, "f")
        leafs = instances_of(instances, "leaf")
        assert [i.id for i in leafs] == ["f/f1", "f/f2"]

    def test_nested_chain(self):
        nested = """
        int g;
        void c() { g = g + 1; }
        void b() { c(); }
        void a() { b(); b(); }
        """
        program = compile_source(nested)
        graph = CallGraph(build_cfgs(program))
        instances = expand_contexts(graph, "a")
        # a, two b instances, and a c instance under each b.
        assert len(instances) == 5
        assert sum(1 for i in instances.values()
                   if i.function == "c") == 2


class TestLoopBoundRelations:
    def test_generates_paper_14_15_shape(self):
        program = compile_source("""
            int f(int p) {
                int q; q = p;
                while (q < 10) q++;
                return q;
            }
        """)
        from repro.cfg import find_loops

        cfgs = build_cfgs(program)
        loop = find_loops(cfgs["f"])[0]
        system = base_system(CallGraph(cfgs), "f",
                             loops=[(loop, LoopBound(1, 10))])
        low, high = system.constraints()[-2:]
        assert low.name == f"loop f:{loop.header_line} lo"
        assert low.sense == ">=" and high.sense == "<="
        # back - lo*entry >= 0 and back - hi*entry <= 0.
        assert set(low.expr.coefs.values()) == {1.0, -1.0}
        assert set(high.expr.coefs.values()) == {1.0, -10.0}

    def test_invalid_bounds_rejected(self):
        with pytest.raises(AnalysisError):
            LoopBound(-1, 5)
        with pytest.raises(AnalysisError):
            LoopBound(5, 2)


class TestAnalysisMisc:
    def test_expansion_counts_exposed(self):
        analysis = Analysis("int f(int a) { return a; }", entry="f")
        analysis.add_constraint("x1 = 1 | x1 = 2")
        assert analysis.expansion().count == 2

    def test_report_counts_are_integral(self):
        analysis = Analysis(SRC, entry="f")
        report = analysis.estimate()
        for value in report.worst_counts.values():
            assert value == int(value)

    def test_best_counts_differ_from_worst_on_branchy_code(self):
        source = """
        float f(int p) {
            if (p) return 1.0;
            return sin(0.5);
        }
        """
        report = Analysis(source, entry="f").estimate()
        assert report.best_counts != report.worst_counts
