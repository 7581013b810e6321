"""Result objects and bound arithmetic for the IPET analysis."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..ilp import SolveStats, Status


@dataclass
class SetResult:
    """Outcome of solving one functionality constraint set."""

    index: int
    status: Status
    worst: float | None = None
    best: float | None = None
    worst_counts: Mapping[str, float] = field(default_factory=dict)
    best_counts: Mapping[str, float] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)
    #: The ILP timed out and the bounds come from the LP relaxation —
    #: still sound (relaxation max >= ILP max, relaxation min <= ILP
    #: min) but possibly looser than the integer optimum.
    timed_out: bool = False
    #: Direction-level degradation flags: the worst-case (resp.
    #: best-case) figure is an LP-relaxation bound, not an integer
    #: optimum.  ``timed_out`` is their disjunction; these say *which*
    #: direction degraded.
    worst_relaxed: bool = False
    best_relaxed: bool = False
    #: Wall-clock seconds spent solving this set (worst + best ILPs).
    wall_time: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status is Status.OPTIMAL

    @property
    def relaxed(self) -> bool:
        """Either direction fell back to its LP relaxation."""
        return self.worst_relaxed or self.best_relaxed


@dataclass
class BoundReport:
    """The estimated bound ``[t_min, t_max]`` (paper Fig. 1) plus the
    evidence behind it."""

    entry: str
    machine: str
    best: int
    worst: int
    set_results: list[SetResult]
    sets_total: int                 # before null pruning
    sets_pruned: int                # removed as trivially null
    worst_counts: Mapping[str, float] = field(default_factory=dict)
    best_counts: Mapping[str, float] = field(default_factory=dict)
    #: True when at least one constraint set timed out and contributed
    #: a relaxation bound instead of an integer optimum.  The interval
    #: is still sound, just possibly looser.
    partial: bool = False
    #: Merged span records for the whole analysis (pipeline stages plus
    #: every set's solver spans) when tracing was requested; export
    #: with :func:`repro.obs.write_chrome_trace`.
    trace: list = field(default_factory=list)

    @property
    def interval(self) -> tuple[int, int]:
        return (self.best, self.worst)

    @property
    def relaxed_sets(self) -> list[int]:
        """Indices of sets whose bounds degraded to an LP relaxation."""
        return [r.index for r in self.set_results if r.relaxed]

    @property
    def sets_solved(self) -> int:
        """Constraint sets actually passed to the ILP solver — the
        paper's Table I "Sets" column."""
        return len(self.set_results)

    @property
    def refuted_sets(self) -> list[int]:
        """Indices of the sets bound propagation proved infeasible
        before any LP (:attr:`repro.ilp.SolveStats.refuted`)."""
        return [r.index for r in self.set_results if r.stats.refuted]

    @property
    def lp_calls(self) -> int:
        return sum(r.stats.lp_calls for r in self.set_results)

    @property
    def all_first_relaxations_integral(self) -> bool:
        """The paper's §VI-A observation: every ILP was solved by its
        very first LP relaxation."""
        return all(r.stats.first_relaxation_integral
                   for r in self.set_results if r.feasible)

    def encloses(self, interval: tuple[float, float]) -> bool:
        """Fig. 1 soundness: does the estimate contain `interval`?"""
        lo, hi = interval
        return self.best <= lo and hi <= self.worst

    def pessimism(self, reference: tuple[float, float]) -> tuple[float, float]:
        """The paper's pessimism measure against a calculated or
        measured bound ``[R_l, R_u]``:

            [ (R_l - E_l) / R_l , (E_u - R_u) / R_u ]
        """
        return pessimism(self.interval, reference)

    def __str__(self) -> str:
        return (f"[{self.best:,}, {self.worst:,}] cycles for {self.entry} "
                f"on {self.machine} ({self.sets_solved} constraint sets)")


def pessimism(estimated: tuple[float, float],
              reference: tuple[float, float]) -> tuple[float, float]:
    """Relative over-approximation of `estimated` around `reference`."""
    e_lo, e_hi = estimated
    r_lo, r_hi = reference
    lower = (r_lo - e_lo) / r_lo if r_lo else 0.0
    upper = (e_hi - r_hi) / r_hi if r_hi else 0.0
    return (lower, upper)
