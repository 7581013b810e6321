"""Common machinery for the Table-I benchmark suite.

Each benchmark bundles the MiniC source, the entry routine, the loop
bounds the paper's user would supply interactively, optional
functionality constraints, and the best/worst-case data sets
identified "by a careful study of the program" (§VI-A, step 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..analysis import Analysis
from ..codegen import Program, compile_source
from ..errors import AnalysisError
from ..hw import Machine
from ..sim import Dataset, Interpreter


@dataclass
class Benchmark:
    """One routine of the paper's benchmark set (Table I)."""

    name: str
    description: str               # Table I "Description" column
    source: str
    entry: str
    #: {function: [(lo, hi), ...]} — bounds applied to that function's
    #: loops in header-source-line order.
    loop_bounds: dict[str, list[tuple[int, int]]]
    best_data: Dataset
    worst_data: Dataset
    #: Adds functionality constraints to a fresh Analysis (may need
    #: block numbers, hence a callable).
    add_constraints: Callable[[Analysis], None] | None = None
    #: Wants per-call-site contexts (paper Fig. 6 style constraints).
    context_sensitive: bool = False
    #: Functional check: (best_value, worst_value) returned by the
    #: entry routine on the two data sets, or None to skip.
    expected_values: tuple | None = None
    #: Input-domain declaration for worst-case input synthesis
    #: (:mod:`repro.synth.search`): {global: (lo, hi)} for scalars,
    #: {global: (lo, hi, size)} for arrays.  Any global left
    #: undeclared gets a range derived from the curated data sets.
    input_domain: dict | None = None
    _program: Program | None = field(default=None, repr=False)

    @property
    def lines(self) -> int:
        """Source line count — Table I "Lines" column."""
        return len([l for l in self.source.splitlines() if l.strip()])

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = compile_source(self.source)
        return self._program

    def make_analysis(self, machine: Machine | None = None,
                      with_constraints: bool = True,
                      **kwargs) -> Analysis:
        """A ready-to-estimate Analysis for this benchmark."""
        kwargs.setdefault("context_sensitive", self.context_sensitive)
        analysis = Analysis(self.program, self.entry, machine=machine,
                            **kwargs)
        self.apply_loop_bounds(analysis)
        if with_constraints and self.add_constraints is not None:
            self.add_constraints(analysis)
        return analysis

    def apply_loop_bounds(self, analysis: Analysis) -> None:
        for function, bounds in self.loop_bounds.items():
            loops = sorted(
                (loop for loop in analysis.loops
                 if loop.function == function),
                key=lambda l: l.header_line)
            if len(loops) != len(bounds):
                raise AnalysisError(
                    f"{self.name}: {function}() has {len(loops)} loops "
                    f"but {len(bounds)} bounds are declared")
            for loop, (lo, hi) in zip(loops, bounds):
                analysis.bound_loop(lo, hi, function=function,
                                    line=loop.header_line)

    def run(self, dataset: Dataset):
        """Functionally execute the routine on one data set."""
        interp = Interpreter(self.program)
        for name, value in dataset.globals.items():
            interp.set_global(name, value)
        return interp.run(self.entry, *dataset.args)

    def block_var_at_text(self, analysis: Analysis, text: str,
                          function: str | None = None) -> str:
        """``x_i`` of the first block whose leading source line equals
        `text` (whitespace-stripped).  Robust against line renumbering
        when sources are edited."""
        cfg = analysis.cfgs[function or self.entry]
        lines = self.source.splitlines()
        for block in sorted(cfg.blocks.values(), key=lambda b: b.id):
            line = block.instrs[0].line
            if line and lines[line - 1].strip() == text:
                return block.var
        raise AnalysisError(
            f"{self.name}: no block starts at source text {text!r}")
