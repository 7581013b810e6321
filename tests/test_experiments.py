"""Tests for the experiment drivers (table shape, soundness, CLI) and
the DSP3210 portability target (paper §VII)."""

import pytest

from repro.experiments import (Experiments, context_study,
                               enumeration_blowup, render_table1,
                               render_table2, render_table3)
from repro.hw import dsp3210, i960kb
from repro.programs import all_benchmarks, get_benchmark
from repro.sim import measure_bounds

#: A two-routine subset keeps these integration tests quick.
SUBSET = {name: bench for name, bench in all_benchmarks().items()
          if name in ("check_data", "piksrt")}


@pytest.fixture(scope="module")
def experiments():
    return Experiments(benchmarks=SUBSET)


class TestTables:
    def test_table1_rows(self, experiments):
        rows = experiments.table1()
        assert [r.function for r in rows] == ["check_data", "piksrt"]
        assert rows[0].sets == 2
        for row in rows:
            report = experiments.report(row.function)
            assert row.solve_seconds == sum(r.wall_time
                                            for r in report.set_results)
        text = render_table1(rows)
        assert "Lines" in text and "check_data" in text

    def test_table2_rows_sound(self, experiments):
        rows = experiments.table2()
        for row in rows:
            assert row.sound
            assert row.pessimism[0] >= -1e-9
            assert row.pessimism[1] >= -1e-9
        assert "Calculated Bound" in render_table2(rows)

    def test_table3_rows_sound(self, experiments):
        rows = experiments.table3()
        for row in rows:
            assert row.sound
        assert "Measured Bound" in render_table3(rows)

    def test_reports_cached(self, experiments):
        first = experiments.report("check_data")
        assert experiments.report("check_data") is first


class TestAblationDrivers:
    def test_enumeration_blowup_rows(self):
        rows = enumeration_blowup(bounds=(2, 3), max_paths=10_000)
        assert rows[0].explicit_paths == 16
        assert rows[1].explicit_paths == 64
        assert all(r.worst_agrees for r in rows)
        assert all(r.ipet_lp_calls == 2 for r in rows)

    def test_enumeration_blowup_detects_explosion(self):
        rows = enumeration_blowup(bounds=(10,), max_paths=1000)
        assert rows[0].explicit_paths is None

    def test_context_study_orders(self):
        merged, ctx = context_study()
        assert ctx.worst < merged.worst


class TestCLI:
    def test_main_table1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "dhry" in out


class TestDSP3210Port:
    """Paper §VII: 'we have completed a port for the AT&T DSP3210
    processor ... to bound the running times of processes for use in
    scheduling.'"""

    @pytest.mark.parametrize("name", ["check_data", "fft", "recon"])
    def test_bounds_sound_on_dsp(self, name):
        bench = get_benchmark(name)
        report = bench.make_analysis(machine=dsp3210()).estimate()
        measured = measure_bounds(bench.program, bench.entry,
                                  bench.best_data, bench.worst_data,
                                  machine=dsp3210())
        assert report.encloses(measured.interval)

    def test_fp_code_relatively_cheaper_on_dsp(self):
        """The DSP's single-cycle FP pipeline shifts the balance: the
        FP-heavy fft speeds up far more than the integer-only
        check_data when moving from the i960KB."""
        fft = get_benchmark("fft")
        check = get_benchmark("check_data")
        ratio = {}
        for bench in (fft, check):
            i960 = bench.make_analysis(machine=i960kb()).estimate()
            dsp = bench.make_analysis(machine=dsp3210()).estimate()
            # Compare best-case bounds: both assume all-hit fetches, so
            # the ratio isolates the execution-unit timing difference.
            ratio[bench.name] = i960.best / dsp.best
        assert ratio["fft"] > 1.5 * ratio["check_data"]

    def test_dsp_has_deterministic_fetches(self):
        machine = dsp3210()
        assert machine.num_lines == 0
        bench = get_benchmark("jpeg_fdct_islow")
        report = bench.make_analysis(machine=machine).estimate()
        # Without a cache the best/worst gap collapses to pipeline
        # uncertainty only (conservative entry stalls).
        assert report.worst - report.best < 0.15 * report.worst
