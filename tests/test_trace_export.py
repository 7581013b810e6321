"""Tests for block tracing, the Markdown report, the Fig.-1 renderer
and the report CLI subcommand."""

import pytest

from repro import Analysis
from repro.analysis import markdown_report, worst_case_path
from repro.cfg import build_cfgs
from repro.codegen import compile_source
from repro.constraints import base_system
from repro.cfg import CallGraph
from repro.sim import record_block_trace

LOOPY = """
int data[6];
int f() {
    int s = 0;
    for (int i = 0; i < 6; i++) {
        if (data[i] > 0)
            s += data[i];
        else
            s -= 1;
    }
    return s;
}
"""

CALLS = """
int acc;
int leaf(int v) { return v * v; }
void f() {
    acc = leaf(2);
    acc = acc + leaf(3);
}
"""


class TestBlockTrace:
    def test_sequence_starts_at_entry(self):
        program = compile_source(LOOPY)
        trace = record_block_trace(program, "f",
                                   globals_init={"data": [1] * 6})
        assert trace.sequence[0] == ("f", 1)
        assert trace.result.value == 6

    def test_projection_by_function(self):
        program = compile_source(CALLS)
        trace = record_block_trace(program, "f")
        assert trace.for_function("leaf") == [1, 1]
        assert set(fn for fn, _ in trace.sequence) == {"f", "leaf"}

    def test_edge_counts_satisfy_structural_constraints(self):
        program = compile_source(LOOPY)
        cfgs = build_cfgs(program)
        trace = record_block_trace(program, "f",
                                   globals_init={"data": [1, -1, 2, -2,
                                                          3, -3]})
        counts = trace.edge_counts(cfgs["f"])
        assignment = {f"f::{name}": value
                      for name, value in counts.items()}
        for block in cfgs["f"].blocks.values():
            assignment[f"f::{block.var}"] = \
                trace.for_function("f").count(block.id)
        for constraint in base_system(CallGraph(cfgs), "f").constraints():
            assert constraint.satisfied_by(assignment), str(constraint)

    def test_trace_block_counts_match_instruction_counters(self):
        program = compile_source(LOOPY)
        cfgs = build_cfgs(program)
        trace = record_block_trace(program, "f",
                                   globals_init={"data": [0, 1, 0, 1,
                                                          0, 1]})
        for block in cfgs["f"].blocks.values():
            assert trace.for_function("f").count(block.id) == \
                trace.result.counts[block.start]

    def test_worst_data_trace_realizes_ilp_counts(self):
        """The simulated worst-data path must be *a* feasible path; on
        this simple kernel it matches the ILP's block counts exactly."""
        program = compile_source(LOOPY)
        analysis = Analysis(program, entry="f")
        analysis.bound_loop(lo=6, hi=6)
        ilp = worst_case_path(analysis)
        trace = record_block_trace(program, "f",
                                   globals_init={"data": [1] * 6})
        # Worst case takes the then-branch (heavier: LD + ADD) 6 times.
        assert trace.for_function("f") == ilp.blocks


class TestMarkdownReport:
    def test_contains_sections(self):
        analysis = Analysis(LOOPY, entry="f")
        analysis.bound_loop(lo=6, hi=6)
        text = markdown_report(analysis)
        assert "# Timing report: `f()`" in text
        assert "## Worst-case block accounting" in text
        assert "## Worst-case path" in text
        assert "## Loops and bounds" in text
        assert "[6, 6]" in text

    def test_counts_refuted_sets(self):
        analysis = Analysis(LOOPY, entry="f")
        analysis.bound_loop(lo=6, hi=6)
        analysis.add_constraint("x1 = 0 | x1 = 1")
        assert ("* constraint sets: 2 solved (1 refuted before the LP), "
                "0 pruned as null (of 2 expanded)") in markdown_report(
                    analysis)

    def test_block_table_truncation(self):
        analysis = Analysis(LOOPY, entry="f")
        analysis.bound_loop(lo=6, hi=6)
        text = markdown_report(analysis, max_blocks=2)
        assert "more" in text

    def test_accepts_precomputed_report(self):
        analysis = Analysis(LOOPY, entry="f")
        analysis.bound_loop(lo=6, hi=6)
        report = analysis.estimate()
        text = markdown_report(analysis, report)
        assert f"[{report.best:,}, {report.worst:,}]" in text

    def test_no_loops_case(self):
        analysis = Analysis("int f(int a) { return a + 1; }", entry="f")
        text = markdown_report(analysis)
        assert "no loops reachable" in text


class TestFig1Renderer:
    def test_nesting_bars(self):
        from repro.experiments import render_fig1
        from repro.experiments.tables import BoundRow

        rows = [BoundRow("demo", (0, 100), (25, 75), (0.0, 0.0))]
        text = render_fig1(rows)
        assert "demo" in text
        bar = text.splitlines()[-1]
        assert "[" in bar and "]" in bar and "#" in bar

    def test_tight_row_renders(self):
        from repro.experiments import render_fig1
        from repro.experiments.tables import BoundRow

        rows = [BoundRow("tight", (50, 50), (50, 50), (0.0, 0.0))]
        assert "tight" in render_fig1(rows)


class TestReportCLI:
    def test_report_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.c"
        path.write_text(LOOPY)
        code = main(["report", str(path), "--entry", "f"])
        out = capsys.readouterr().out
        assert code == 0
        assert "# Timing report: `f()`" in out
        assert "derived" not in out     # silent auto-bounding

    def test_report_missing_bounds(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.c"
        path.write_text(
            "int f(int n) { int s = 0; while (s < n) s++; return s; }")
        code = main(["report", str(path), "--entry", "f"])
        assert code == 2
        assert "needing --bound" in capsys.readouterr().err
