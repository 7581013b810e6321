"""Naming scheme for ILP variables over CFG entities.

Within one function the paper writes plain ``x3``, ``d2``, ``f1``.  A
whole-program ILP needs qualified names, so we use ``function::local``
(e.g. ``check_data::x3``).  Context-sensitive analysis prefixes an
instance path: ``task/f1::x8`` is ``x8`` in the instance of the callee
reached through call edge ``f1`` of ``task`` (paper's ``x8.f1``).
"""

from __future__ import annotations

SEPARATOR = "::"


def qualified(scope: str, local: str) -> str:
    """ILP variable name for `local` (x3/d2/f1) in `scope`.

    `scope` is a function name in merged mode or an instance path in
    context mode.
    """
    return f"{scope}{SEPARATOR}{local}"


def prefix(scope: str) -> str:
    """The start of every variable name in `scope`: ``qualified(scope,
    local) == prefix(scope) + local``."""
    return qualified(scope, "")


def split(name: str) -> tuple[str, str]:
    scope, _, local = name.rpartition(SEPARATOR)
    return scope, local


def local_part(name: str) -> str:
    return split(name)[1]


def scope_part(name: str) -> str:
    return split(name)[0]
