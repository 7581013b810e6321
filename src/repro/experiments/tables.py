"""Drivers that regenerate the paper's Tables I, II and III.

Absolute cycle numbers differ from the paper (our IR960 timing table is
a documented approximation of the i960KB, not the real chip), but the
tables' *shape* is the reproduction target:

* Table I  — suite composition and how many constraint sets each
  routine hands the ILP solver;
* Table II — estimated vs calculated bounds: path-analysis pessimism
  near zero when enough functionality constraints are given;
* Table III — estimated vs measured bounds: hardware-model pessimism
  dominating (all-hit/all-miss cache assumptions), bounds still sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import BoundReport, calculated_bound, pessimism
from ..errors import AnalysisError
from ..hw import Machine, i960kb
from ..programs import Benchmark, all_benchmarks
from ..sim import measure_bounds


@dataclass
class Table1Row:
    function: str
    description: str
    lines: int
    sets: int
    #: Of `sets`, those bound propagation refuted before any LP.
    refuted: int = 0
    #: Solver-effort columns (not in the paper's Table I, but they
    #: substantiate its §VI-A discussion of ILP cost).
    lp_calls: int = 0
    simplex_iterations: int = 0
    #: Summed :attr:`SetResult.wall_time` of the routine's sets.
    solve_seconds: float = 0.0


@dataclass
class TightnessRow:
    """A row of the tightness table (next to Table III): how much of
    the estimated worst-case bound witness-guided input search
    actually *realized* on the cycle-accurate simulator."""

    function: str
    estimated: int                 # IPET worst-case bound
    realized: int                  # best cycles found by the search
    reference: int                 # curated worst-data measurement
    agreement: float | None        # witness path agreement (None:
    #                                context-scoped witness)
    sim_runs: int
    iterations: int

    @property
    def ratio(self) -> float:
        """Realized/estimated: 1.0 means the bound is exact."""
        return self.realized / self.estimated if self.estimated else 1.0

    @property
    def exact(self) -> bool:
        return self.realized == self.estimated

    @property
    def sound(self) -> bool:
        """The search may match or beat the curated data but must
        never exceed the estimate."""
        return self.reference <= self.realized <= self.estimated


@dataclass
class BoundRow:
    """A row of Table II (reference = calculated) or Table III
    (reference = measured)."""

    function: str
    estimated: tuple[int, int]
    reference: tuple[int, int]
    pessimism: tuple[float, float]

    @property
    def sound(self) -> bool:
        return (self.estimated[0] <= self.reference[0]
                and self.reference[1] <= self.estimated[1])


class Experiments:
    """Shared context: compiled benchmarks and cached IPET estimates.

    Pass an :class:`repro.engine.AnalysisEngine` to solve the suite in
    parallel (and, with a cache directory, to serve table re-runs from
    disk); without one, estimates run serially on first use.
    """

    def __init__(self, machine: Machine | None = None,
                 benchmarks: dict[str, Benchmark] | None = None,
                 engine=None, tracer=None):
        from ..obs.trace import NULL_TRACER

        self.machine = machine or i960kb()
        self.benchmarks = benchmarks or all_benchmarks()
        self.engine = engine
        self.tracer = NULL_TRACER if tracer is None else tracer
        self._reports: dict[str, BoundReport] = {}

    def prefetch(self, names: list[str] | None = None) -> None:
        """Estimate `names` (default: the whole suite) in one batch."""
        from ..engine import AnalysisEngine, AnalysisJob
        from ..programs import all_benchmarks as registry

        registered = registry()
        todo, serial = [], []
        for name in (names or self.benchmarks):
            if name in self._reports:
                continue
            # Engine jobs rebuild benchmarks from the registry inside
            # pool workers; a benchmark that isn't the registered
            # singleton must be estimated in-process instead.
            if registered.get(name) is self.benchmarks[name]:
                todo.append(name)
            else:
                serial.append(name)
        if todo:
            engine = self.engine or AnalysisEngine(tracer=self.tracer)
            jobs = [AnalysisJob.from_benchmark(name, machine=self.machine)
                    for name in todo]
            for name, result in zip(todo, engine.run(jobs)):
                if not result.ok:
                    raise AnalysisError(
                        f"engine failed on {name}: {result.error}")
                self._reports[name] = result.report
        for name in serial:
            analysis = self.benchmarks[name].make_analysis(
                machine=self.machine, tracer=self.tracer)
            self._reports[name] = analysis.estimate()

    def report(self, name: str) -> BoundReport:
        if name not in self._reports:
            if self.engine is not None:
                self.prefetch([name])
            else:
                bench = self.benchmarks[name]
                analysis = bench.make_analysis(machine=self.machine,
                                               tracer=self.tracer)
                self._reports[name] = analysis.estimate()
        return self._reports[name]

    # ------------------------------------------------------------------
    def table1(self) -> list[Table1Row]:
        rows = []
        for name, bench in self.benchmarks.items():
            report = self.report(name)
            rows.append(Table1Row(
                name, bench.description, bench.lines,
                report.sets_solved,
                refuted=len(report.refuted_sets),
                lp_calls=report.lp_calls,
                simplex_iterations=sum(
                    r.stats.simplex_iterations for r in report.set_results),
                solve_seconds=sum(r.wall_time
                                  for r in report.set_results)))
        return rows

    def table2(self) -> list[BoundRow]:
        rows = []
        for name, bench in self.benchmarks.items():
            report = self.report(name)
            calc = calculated_bound(bench.program, bench.entry,
                                    bench.best_data, bench.worst_data,
                                    machine=self.machine)
            rows.append(BoundRow(
                name, report.interval, calc.interval,
                pessimism(report.interval, calc.interval)))
        return rows

    def table3(self) -> list[BoundRow]:
        rows = []
        for name, bench in self.benchmarks.items():
            report = self.report(name)
            measured = measure_bounds(bench.program, bench.entry,
                                      bench.best_data, bench.worst_data,
                                      machine=self.machine)
            rows.append(BoundRow(
                name, report.interval, measured.interval,
                pessimism(report.interval, measured.interval)))
        return rows

    def tightness(self, iterations: int = 24,
                  seed: int = 0) -> list[TightnessRow]:
        """Realized-vs-estimated worst-case tightness for the suite.

        Runs witness-guided worst-case input search
        (:func:`repro.synth.search.hunt_benchmark`) per routine,
        seeded with the curated §VI-A worst-case data, reusing the
        cached IPET reports so the solver runs once per routine."""
        from ..synth.search import hunt_benchmark

        rows = []
        for name, bench in self.benchmarks.items():
            result = hunt_benchmark(
                bench, machine=self.machine, iterations=iterations,
                seed=seed, report=self.report(name),
                tracer=self.tracer)
            rows.append(TightnessRow(
                function=name, estimated=result.estimated,
                realized=result.realized,
                reference=result.reference,
                agreement=result.agreement,
                sim_runs=result.sim_runs,
                iterations=result.iterations))
        return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_table1(rows: list[Table1Row]) -> str:
    header = (f"{'Function':<18} {'Description':<42} {'Lines':>5} "
              f"{'Sets':>4} {'Refuted':>7} {'LPs':>4} {'Pivots':>7} "
              f"{'Solve s':>8}")
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(f"{row.function:<18} {row.description:<42} "
                     f"{row.lines:>5} {row.sets:>4} {row.refuted:>7} "
                     f"{row.lp_calls:>4} "
                     f"{row.simplex_iterations:>7,} "
                     f"{row.solve_seconds:>8.3f}")
    return "\n".join(lines)


def _interval(value: tuple[int, int]) -> str:
    return f"[{value[0]:,}, {value[1]:,}]"


def render_bound_table(rows: list[BoundRow], reference_label: str) -> str:
    header = (f"{'Function':<18} {'Estimated Bound':>26} "
              f"{reference_label:>26} {'Pessimism':>16}")
    lines = [header, "-" * len(header)]
    for row in rows:
        pess = f"[{row.pessimism[0]:.2f}, {row.pessimism[1]:.2f}]"
        lines.append(f"{row.function:<18} {_interval(row.estimated):>26} "
                     f"{_interval(row.reference):>26} {pess:>16}")
    return "\n".join(lines)


def render_table2(rows: list[BoundRow]) -> str:
    return render_bound_table(rows, "Calculated Bound")


def render_table3(rows: list[BoundRow]) -> str:
    return render_bound_table(rows, "Measured Bound")


def render_tightness(rows: list[TightnessRow]) -> str:
    header = (f"{'Function':<18} {'Estimated':>10} {'Realized':>10} "
              f"{'Reference':>10} {'Ratio':>7} {'Agree':>6} "
              f"{'Runs':>5}")
    lines = [header, "-" * len(header)]
    for row in rows:
        agree = (f"{row.agreement:.2f}"
                 if row.agreement is not None else "n/a")
        flag = " =" if row.exact else ""
        lines.append(
            f"{row.function:<18} {row.estimated:>10,} "
            f"{row.realized:>10,} {row.reference:>10,} "
            f"{row.ratio:>6.1%} {agree:>6} {row.sim_runs:>5}{flag}")
    lines.append(
        "Ratio = realized/estimated worst case; '=' marks bounds the "
        "search realized exactly.")
    return "\n".join(lines)
