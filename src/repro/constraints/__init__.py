"""Structural and functionality constraints for IPET."""

from .dnf import (Expansion, canonical_relation_key, canonical_set_key,
                  combine, trivially_null)
from .language import (DNF, ConstraintSet, Formula, Relation, SymExpr,
                       VarRef, parse_constraint)
from .names import local_part, qualified, scope_part, split
from .structural import BaseSystem, LoopBound, base_system

__all__ = [
    "Expansion", "combine", "trivially_null",
    "canonical_relation_key", "canonical_set_key",
    "DNF", "ConstraintSet", "Formula", "Relation", "SymExpr", "VarRef",
    "parse_constraint",
    "LoopBound",
    "qualified", "split", "local_part", "scope_part",
    "BaseSystem", "base_system",
]
