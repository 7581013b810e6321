"""Result objects returned by the LP and ILP solvers."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping


class Status(enum.Enum):
    """Outcome of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class LPResult:
    """Solution of a linear-programming relaxation."""

    status: Status
    objective: float | None = None
    values: Mapping[str, float] = field(default_factory=dict)
    #: Simplex pivots this solve made.
    iterations: int = 0
    #: Pivots of the phase 1 this solve started from that earlier
    #: solves made: the phase 1 of a polyhedron, or of the one it
    #: extends (see :class:`repro.ilp.model.Polyhedron`).  Pivot
    #: budgets count them, as if this solve had run its own phase 1.
    reused: int = 0

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL


@dataclass
class Phase1Result:
    """Outcome of simplex phase 1 over one constraint system.

    Phase 1 never reads the objective, so the feasible ``tableau``
    serves phase 2 for any cost vector over the same constraints;
    phase 2 works on a copy, and a phase 1 that extends the system by
    more rows on a larger one.  ``tableau`` is the LP engine's own
    type and is None when ``status`` is INFEASIBLE.  Pivot counts
    include those of the phase 1 runs this one extends.
    """

    status: Status
    #: Pivots made, expelling leftover basic artificials included.
    iterations: int
    #: The pivot count after the last pivot an optimization loop made,
    #: here or in a phase 1 this one extends.  Only those pivots count
    #: against a pivot budget inside phase 1: a budget below this
    #: trips there.
    search_iterations: int
    tableau: object = None
    #: Structural columns (the LP's variables).
    columns: int = 0
    #: First artificial column; phase 2 never lets these re-enter.
    artificials: int = 0


@dataclass
class SolveStats:
    """Statistics collected by the branch & bound solver.

    The paper's §VI-A observation is that for IPET problems the very
    first LP relaxation is already integer valued; the
    ``first_relaxation_integral`` flag lets callers verify that claim.
    """

    lp_calls: int = 0
    nodes: int = 0
    #: Branch & bound nodes discarded because their relaxation bound
    #: could not beat the incumbent (the classic "pruned" count).
    nodes_pruned: int = 0
    simplex_iterations: int = 0
    first_relaxation_integral: bool = False
    #: Bound propagation proved the set has no integer point before
    #: any LP (:attr:`repro.ilp.model.Polyhedron.refuted`).
    refuted: bool = False


@dataclass
class ILPResult:
    """Solution of an integer linear program."""

    status: Status
    objective: float | None = None
    values: Mapping[str, float] = field(default_factory=dict)
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def optimal(self) -> bool:
        return self.status is Status.OPTIMAL
