"""Toolchain performance — compile, CFG-build, and constraint-extract
times per benchmark routine.

Not a paper table, but the substrate the paper's §V tool description
implies: cinderella "first reads the executable ... constructs the CFG
and derives the program structural constraints".  These benches keep
that pipeline honest (and fast) as the library evolves.
"""

import pytest
from conftest import one_shot

from repro.cfg import CallGraph, build_cfgs
from repro.codegen import compile_source
from repro.constraints import base_system
from repro.programs import all_benchmarks

NAMES = list(all_benchmarks())


@pytest.mark.parametrize("name", NAMES)
def test_compile_time(benchmark, benchmarks, name):
    bench = benchmarks[name]
    program = one_shot(benchmark, compile_source, bench.source)
    assert len(program.code) > 10


@pytest.mark.parametrize("name", ["des", "dhry", "whetstone"])
def test_cfg_and_constraints_time(benchmark, benchmarks, name):
    bench = benchmarks[name]
    program = bench.program

    def pipeline():
        cfgs = build_cfgs(program)
        graph = CallGraph(cfgs)
        return base_system(graph, bench.entry)

    system = one_shot(benchmark, pipeline)
    # Two equalities per block plus the linking rows.
    total_blocks = sum(len(cfg.blocks)
                       for cfg in build_cfgs(program).values())
    assert len(system) >= 2 * total_blocks / 2


def test_optimizer_time(benchmark, benchmarks):
    sources = [benchmarks[n].source for n in ("des", "jpeg_idct_islow")]

    def optimize_both():
        return [compile_source(s, optimize=True) for s in sources]

    programs = one_shot(benchmark, optimize_both)
    for program, name in zip(programs, ("des", "jpeg_idct_islow")):
        plain = benchmarks[name].program
        assert len(program.code) <= len(plain.code)
