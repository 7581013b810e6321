"""Tests for CFG construction, dominance, loops and the call graph."""

import pytest

from repro.codegen import compile_source
from repro.cfg import (CallGraph, build_cfg, build_cfgs, find_loops,
                       immediate_dominators, loops_by_key, reverse_postorder)
from repro.sim import run_program

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


def cfg_of(source, name="f"):
    program = compile_source(source)
    return program, build_cfg(program, program.functions[name])


class TestStructure:
    def test_if_else_diamond_matches_paper_fig2(self):
        # Paper Fig. 2: 4 blocks, edges d1..d6.
        _, cfg = cfg_of(IF_ELSE)
        assert len(cfg.blocks) == 4
        d_edges = [e for e in cfg.edges if e.name.startswith("d")]
        assert len(d_edges) == 6
        # B1 branches to B2 (then) and B3 (else); both join in B4.
        assert sorted(cfg.successors(1)) == [2, 3]
        assert cfg.successors(2) == [4]
        assert cfg.successors(3) == [4]
        assert cfg.successors(4) == []
        assert len(cfg.exit_edges()) == 1

    def test_while_loop_matches_paper_fig3(self):
        # Paper Fig. 3: 4 blocks; B2 is the test, B3 the body, B4 exit.
        _, cfg = cfg_of(WHILE_LOOP)
        assert len(cfg.blocks) == 4
        assert cfg.successors(1) == [2]
        assert sorted(cfg.successors(2)) == [3, 4]
        assert cfg.successors(3) == [2]          # back edge
        assert cfg.successors(4) == []

    def test_entry_edge_is_d1(self):
        _, cfg = cfg_of(IF_ELSE)
        entry = cfg.entry_edge
        assert entry.name == "d1"
        assert entry.dst == cfg.entry_block == 1

    def test_call_edges_split_blocks_like_paper_fig4(self):
        program = compile_source(CALLS)
        cfg = build_cfg(program, program.functions["f"])
        f_edges = cfg.call_edges()
        assert [e.name for e in f_edges] == ["f1", "f2"]
        assert all(e.callee == "store" for e in f_edges)
        # Call sites end their blocks: f1 leaves B1, f2 leaves B2.
        assert f_edges[0].src == 1 and f_edges[0].dst == 2
        assert f_edges[1].src == 2 and f_edges[1].dst == 3

    def test_block_partition_covers_function(self):
        program, cfg = cfg_of(WHILE_LOOP)
        fn = program.functions["f"]
        covered = sorted(
            (b.start, b.end) for b in cfg.blocks.values())
        assert covered[0][0] == fn.entry_index
        assert covered[-1][1] == fn.entry_index + len(fn.instrs)
        for (s1, e1), (s2, e2) in zip(covered, covered[1:]):
            assert e1 == s2

    def test_block_of_instruction(self):
        _, cfg = cfg_of(IF_ELSE)
        for block in cfg.blocks.values():
            for idx in range(block.start, block.end):
                assert cfg.block_of_instruction(idx).id == block.id

    def test_block_at_line(self):
        _, cfg = cfg_of(WHILE_LOOP)
        # Line 5 is `while (q < 10)`.
        blocks = cfg.block_at_line(5)
        assert blocks, "while line must map to a block"

    def test_flow_conservation_observed(self):
        # Simulated block counts satisfy in-flow = count = out-flow.
        program, cfg = cfg_of(WHILE_LOOP)
        result = run_program(program, "f", 3)
        counts = result.block_counts(cfg)
        # Header executes 8 times (q=3..10), body 7, pre/post once.
        assert counts[1] == 1
        assert counts[2] == 8
        assert counts[3] == 7
        assert counts[4] == 1


class TestDominance:
    def test_diamond_dominators(self):
        _, cfg = cfg_of(IF_ELSE)
        idom = immediate_dominators(cfg)
        assert idom[1] == 1
        assert idom[2] == 1
        assert idom[3] == 1
        assert idom[4] == 1     # join dominated by the test, not a branch

    def test_loop_dominators(self):
        _, cfg = cfg_of(WHILE_LOOP)
        idom = immediate_dominators(cfg)
        assert idom[2] == 1
        assert idom[3] == 2
        assert idom[4] == 2

    def test_reverse_postorder_starts_at_entry(self):
        _, cfg = cfg_of(WHILE_LOOP)
        order = reverse_postorder(cfg)
        assert order[0] == cfg.entry_block
        assert set(order) == set(cfg.blocks)


class TestLoops:
    def test_while_loop_found(self):
        _, cfg = cfg_of(WHILE_LOOP)
        loops = find_loops(cfg)
        assert len(loops) == 1
        loop = loops[0]
        assert loop.header == 2
        assert loop.blocks == {2, 3}
        assert len(loop.back_edges) == 1
        assert len(loop.entry_edges) == 1

    def test_nested_loops(self):
        src = """
        int f(int n) {
            int c = 0;
            for (int i = 0; i < n; i++)
                for (int j = 0; j < n; j++)
                    c++;
            return c;
        }
        """
        _, cfg = cfg_of(src)
        loops = find_loops(cfg)
        assert len(loops) == 2
        outer, inner = sorted(loops, key=lambda l: len(l.blocks),
                              reverse=True)
        assert inner.blocks < outer.blocks

    def test_continue_merges_back_edges(self):
        src = """
        int f(int n) {
            int s = 0;
            int i = 0;
            while (i < n) {
                i++;
                if (i % 2) continue;
                s += i;
            }
            return s;
        }
        """
        _, cfg = cfg_of(src)
        loops = find_loops(cfg)
        assert len(loops) == 1
        assert len(loops[0].back_edges) == 2

    def test_do_while_loop(self):
        src = "int f() { int i = 0; do i++; while (i < 3); return i; }"
        _, cfg = cfg_of(src)
        loops = find_loops(cfg)
        assert len(loops) == 1

    def test_break_leaves_extra_exit(self):
        src = """
        int f(int n) {
            int i;
            for (i = 0; i < n; i++)
                if (i == 3) break;
            return i;
        }
        """
        _, cfg = cfg_of(src)
        loops = find_loops(cfg)
        assert len(loops) == 1

    def test_loop_key_uses_source_line(self):
        _, cfg = cfg_of(WHILE_LOOP)
        loop = find_loops(cfg)[0]
        assert loop.key == ("f", 5)

    def test_loops_by_key_across_functions(self):
        src = """
        int a() { int s = 0; for (int i = 0; i < 3; i++) s++; return s; }
        int b() { int s = 0; while (s < 5) s++; return s; }
        """
        program = compile_source(src)
        table = loops_by_key(build_cfgs(program))
        assert len(table) == 2
        assert {key[0] for key in table} == {"a", "b"}


class TestCallGraph:
    def test_sites_and_callers(self):
        program = compile_source(CALLS)
        graph = CallGraph(build_cfgs(program))
        assert graph.callees("f") == {"store"}
        callers = graph.callers_of("store")
        assert [c for c, _ in callers] == ["f", "f"]
        assert [e.name for _, e in callers] == ["f1", "f2"]

    def test_reachable_topological(self):
        src = """
        int c() { return 1; }
        int b() { return c(); }
        int a() { return b() + c(); }
        """
        program = compile_source(src)
        graph = CallGraph(build_cfgs(program))
        order = graph.reachable_from("a")
        assert order[0] == "a"
        assert set(order) == {"a", "b", "c"}
        assert order.index("b") < order.index("c") or "c" in order

    def test_unreachable_excluded(self):
        src = """
        int lonely() { return 9; }
        int a() { return 1; }
        """
        program = compile_source(src)
        graph = CallGraph(build_cfgs(program))
        assert graph.reachable_from("a") == ["a"]
