"""Exact integer bound propagation over a polyhedron's sparse rows.

A constraint set that no integer point satisfies can be dropped
before any simplex call (the paper's null-set pruning, §III-D, carried
past what the set's own relations show).  :func:`propagate` tightens
an integer interval ``[lo, hi]`` per column from rows ``sum a_k x_k
(<=, >=, ==) b`` over nonnegative integer columns, the way finite
domain solvers propagate before search: for each row and each column
``k``, ``a_k x_k`` is at most ``b`` less the least the other terms
can be, so ``x_k <= floor(.../a_k)`` for ``a_k > 0`` and ``x_k >=
ceil(.../a_k)`` for ``a_k < 0``.  An interval that empties, or a row
whose least activity exceeds its bound, proves the rows have no
integer point.

Soundness rests on no tolerance: coefficients and bounds are Python
``int`` (:func:`inequalities` reads nothing but integers below
``2**53``, which floats hold exactly) and rounding is floor division.
Every tightening is implied by the rows, so stopping early (the visit
cap) only loses tightenings: it ends "not refuted", never "refuted".
"""

from __future__ import annotations

from collections import deque

#: Entries must be integers below this magnitude to be read exactly.
#: The presolve (:mod:`repro.ilp.model`) needs the same of every row:
#: substituting through unit coefficients is then integer arithmetic,
#: exact in float and in Fraction alike.
EXACT_INTEGER = 2 ** 53

#: Row visits allowed per row of the system, plus a floor, before
#: propagation stops unrefuted (a chain of unit tightenings can
#: otherwise walk a large bound down one step per visit).
VISITS_PER_ROW = 8
MIN_VISITS = 64

#: The bounds no row has tightened: every column in ``[0, +inf)``.
FREE = ({}, {})


def inequalities(rows, senses, rhs) -> list | None:
    """Per sparse ``{column: coefficient}`` row, the ``sum a_k x_k <=
    b`` inequalities it stands for (one for ``<=`` and ``>=``, two for
    ``==``), each ``([(k, a_k), ...], b)`` in ints; None when an entry
    is not an integer below :data:`EXACT_INTEGER`."""
    out = []
    for row, sense, bound in zip(rows, senses, rhs):
        terms = []
        for k, coef in row.items():
            a = int(coef)
            if a != coef or abs(a) >= EXACT_INTEGER:
                return None
            terms.append((k, a))
        b = int(bound)
        if b != bound or abs(b) >= EXACT_INTEGER:
            return None
        forms = []
        if sense != ">=":
            forms.append((terms, b))
        if sense != "<=":
            forms.append(([(k, -a) for k, a in terms], -b))
        out.append(forms)
    return out


def propagate(rows, holders, domains, queue):
    """Tighten `domains` by the rows in `queue`, and by every row
    naming a column they tighten, to a fixpoint or the visit cap.

    `rows` are :func:`inequalities`, `holders` maps a column to the
    rows naming it and `domains` is ``(lo, hi)``: dicts of tightened
    integer bounds, a column absent from ``lo`` at 0 and from ``hi``
    unbounded.  Returns the tightened ``(lo, hi)``, new dicts, or None
    when the rows have no integer point within `domains`.
    """
    lo, hi = dict(domains[0]), dict(domains[1])
    queue = deque(queue)
    queued = set(queue)
    budget = VISITS_PER_ROW * len(rows) + MIN_VISITS
    while queue and budget:
        budget -= 1
        r = queue.popleft()
        queued.discard(r)
        changed = []
        for terms, bound in rows[r]:
            if not _tighten(terms, bound, lo, hi, changed):
                return None
        for k in changed:
            for q in holders.get(k, ()):
                if q not in queued:
                    queue.append(q)
                    queued.add(q)
    return lo, hi


def _tighten(terms, bound, lo, hi, changed) -> bool:
    """Tighten by ``sum a_k x_k <= bound``; False when no integer point
    meets it.  Appends each column it tightens to `changed`."""
    least = 0           # least activity of the terms with a finite least
    unbounded = None    # the one term without
    for k, a in terms:
        if a > 0:
            least += a * lo.get(k, 0)
        elif k in hi:
            least += a * hi[k]
        elif unbounded is None:
            unbounded = k
        else:
            return True     # two unbounded terms: nothing follows
    if unbounded is None and least > bound:
        return False
    for k, a in terms:
        if unbounded is None:
            # The others' least: this term's own least taken back out.
            slack = bound - least + a * (lo.get(k, 0) if a > 0 else hi[k])
        elif k == unbounded:
            slack = bound - least
        else:
            continue
        if a > 0:
            top = slack // a
            if top < lo.get(k, 0):
                return False
            if k not in hi or top < hi[k]:
                hi[k] = top
                changed.append(k)
        else:
            least_k = -(-slack // a)    # ceil(slack / a), a < 0
            if k in hi and least_k > hi[k]:
                return False
            if least_k > lo.get(k, 0):
                lo[k] = least_k
                changed.append(k)
    return True
