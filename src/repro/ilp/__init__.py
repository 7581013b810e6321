"""Integer linear programming substrate.

Built from scratch for this reproduction: a modeling layer
(:class:`Var`, :class:`LinExpr`, :class:`Constraint`,
:class:`Problem`), a two-phase primal simplex over sparse rows
(:mod:`repro.ilp.simplex`), and a branch & bound integer solver
(:mod:`repro.ilp.branch_bound`), in pure Python.  NumPy is imported
only by :meth:`Problem.to_arrays` and the :mod:`scipy` oracle
(:mod:`repro.ilp.scipy_backend`), which the test suite uses as an
independent check.
"""

from .expr import Constraint, LinExpr, Var
from .lpformat import read_lp, write_lp
from .model import Problem
from .solution import ILPResult, LPResult, SolveStats, Status

__all__ = [
    "Constraint",
    "LinExpr",
    "Var",
    "Problem",
    "ILPResult",
    "LPResult",
    "SolveStats",
    "Status",
    "read_lp", "write_lp",
]
