"""Tests for the hardware model and the cycle-accurate simulator,
including the block-cost bracketing invariant (DESIGN.md invariant 5)."""

import pytest

from repro.cfg import build_cfg, build_cfgs
from repro.codegen import compile_source
from repro.codegen.isa import Op
from repro.hw import (MACHINES, ICache, Machine, block_cost, cost_table,
                      i960kb, i960kb_dcache, lines_touched, no_cache,
                      perfect_cache, pipeline_cycles)
from repro.sim import CycleModel, Dataset, Interpreter, measure_bounds


class TestMachine:
    def test_i960kb_geometry(self):
        machine = i960kb()
        assert machine.icache_bytes == 512
        assert machine.line_bytes == 16
        assert machine.num_lines == 32

    def test_set_mapping_wraps(self):
        machine = i960kb()
        assert machine.set_of(0) == machine.set_of(512)
        assert machine.set_of(16) == 1

    def test_no_cache_has_zero_lines(self):
        assert no_cache().num_lines == 0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            Machine(icache_bytes=100, line_bytes=16)

    @pytest.mark.parametrize("make", [*MACHINES.values(), i960kb_dcache],
                             ids=[*MACHINES, "i960kb_dcache"])
    def test_fingerprint_issue_table_is_sorted_by_opcode_name(self, make):
        # The string names every result-cache entry, so it must stay
        # byte for byte this reference: the issue table sorted by name.
        machine = make()
        issue = ";".join(f"{op.name}={cycles}" for op, cycles in
                         sorted(machine.issue_cycles.items(),
                                key=lambda item: item[0].name))
        assert machine.fingerprint() == (
            f"icache={machine.icache_bytes}/{machine.line_bytes}"
            f"/{machine.miss_penalty}"
            f"|dcache={machine.dcache_words}/{machine.dcache_line_words}"
            f"/{machine.dcache_miss_penalty}"
            f"|stall={machine.load_use_stall}"
            f"|clock={machine.clock_mhz!r}|issue={issue}")


class TestICache:
    def test_miss_then_hit(self):
        cache = ICache(i960kb())
        assert not cache.access(0)
        assert cache.access(4)       # same 16-byte line
        assert cache.access(12)
        assert not cache.access(16)  # next line

    def test_conflict_eviction(self):
        cache = ICache(i960kb())
        cache.access(0)
        assert not cache.access(512)   # same set, different tag
        assert not cache.access(0)     # evicted

    def test_flush(self):
        cache = ICache(i960kb())
        cache.access(0)
        cache.flush()
        assert not cache.access(0)

    def test_resident_is_side_effect_free(self):
        cache = ICache(i960kb())
        assert not cache.resident(0)
        cache.access(0)
        assert cache.resident(0)
        assert cache.resident(8)

    def test_disabled_cache_always_hits(self):
        cache = ICache(no_cache())
        assert cache.access(1234)


class TestBlockCost:
    def _cfg(self, source, name="f"):
        program = compile_source(source)
        return program, build_cfg(program, program.functions[name])

    def test_pipeline_sums_issue_cycles(self):
        program, cfg = self._cfg("int f(int a, int b) { return a + b; }")
        machine = i960kb()
        block = cfg.blocks[1]
        expect = sum(machine.issue(i.op) for i in block.instrs)
        assert pipeline_cycles(block.instrs, machine) == expect

    def test_load_use_stall_counted(self):
        # LD followed immediately by a use of its destination.
        # `g + g` loads g twice; the second load feeds the ADD directly.
        src = "int g; int f() { return g + g; }"
        program, cfg = self._cfg(src)
        machine = i960kb()
        block = cfg.blocks[1]
        ops = [i.op for i in block.instrs]
        assert Op.LD in ops
        base = sum(machine.issue(i.op) for i in block.instrs)
        assert pipeline_cycles(block.instrs, machine) >= base + \
            machine.load_use_stall

    def test_best_le_worst(self):
        src = """
            int f(int n) {
                int s = 0;
                for (int i = 0; i < n; i++) s += i;
                return s;
            }
        """
        _, cfg = self._cfg(src)
        for cost in cost_table(cfg, i960kb()).values():
            assert cost.best <= cost.worst

    def test_perfect_cache_collapses_miss_penalty(self):
        src = "int f(int a) { return a * 2; }"
        _, cfg = self._cfg(src)
        cost = block_cost(cfg.blocks[1], perfect_cache())
        # Without miss penalty, worst = best + (entry stall only).
        assert cost.worst - cost.best <= perfect_cache().load_use_stall

    def test_lines_touched_counts_spanned_lines(self):
        src = "int f(int a) { return a + a * a - 3 * a; }"
        _, cfg = self._cfg(src)
        machine = i960kb()
        block = cfg.blocks[1]
        span_bytes = 4 * len(block.instrs)
        assert 1 <= lines_touched(block, machine) <= \
            span_bytes // machine.line_bytes + 1


PROGRAMS = {
    "loop": ("""
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += i * i;
            return s;
        }""", ("f", 17)),
    "calls": ("""
        int g;
        int leaf(int x) { return x * 3; }
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) s += leaf(i);
            g = s;
            return s;
        }""", ("f", 9)),
    "branches": ("""
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i++) {
                if (i % 3 == 0) s += 5;
                else if (i % 3 == 1) s -= 2;
                else s *= 2;
            }
            return s;
        }""", ("f", 23)),
    "arrays": ("""
        int buf[32];
        int f(int n) {
            int i;
            for (i = 0; i < n; i++) buf[i] = buf[i] + i;
            int s = 0;
            for (i = 0; i < n; i++) s += buf[i];
            return s;
        }""", ("f", 30)),
}


class TestBracketingInvariant:
    """For every block: count*best <= simulated cycles <= count*worst."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_cycle_sim_within_static_bounds(self, name):
        source, (entry, arg) = PROGRAMS[name]
        program = compile_source(source)
        machine = i960kb()
        model = CycleModel(machine)
        model.record_per_instruction()
        model.flush()
        interp = Interpreter(program, cycle_model=model)
        result = interp.run(entry, arg)

        for cfg in build_cfgs(program).values():
            costs = cost_table(cfg, machine)
            for block_id, block in cfg.blocks.items():
                count = result.counts[block.start]
                observed = sum(model.per_index.get(i, 0)
                               for i in range(block.start, block.end))
                assert count * costs[block_id].best <= observed, \
                    f"{name}: block {block_id} best bound violated"
                assert observed <= count * costs[block_id].worst, \
                    f"{name}: block {block_id} worst bound violated"

    def test_total_cycles_positive(self):
        source, (entry, arg) = PROGRAMS["loop"]
        program = compile_source(source)
        model = CycleModel(i960kb())
        interp = Interpreter(program, cycle_model=model)
        assert interp.run(entry, arg).cycles > 0


class TestMeasurementProtocol:
    def test_cold_run_slower_than_warm(self):
        source, (entry, arg) = PROGRAMS["loop"]
        program = compile_source(source)
        data = Dataset(args=(arg,))
        measured = measure_bounds(program, entry, data, data)
        assert measured.best <= measured.worst
        # The flushed (worst) run pays at least one miss more.
        assert measured.worst > measured.best

    def test_dataset_globals_applied(self):
        src = "int data[4]; int f() { return data[0]; }"
        program = compile_source(src)
        measured = measure_bounds(
            program, "f",
            Dataset(globals={"data": [7, 0, 0, 0]}),
            Dataset(globals={"data": [9, 0, 0, 0]}))
        assert measured.best_result.value == 7
        assert measured.worst_result.value == 9
