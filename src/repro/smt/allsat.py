"""ALL-SAT enumeration projected onto an indicator literal set.

Used by the predicate-cover computation (§4.1 of the paper): enumerate all
assignments over the predicate indicator literals that can be extended to
a model of the formula, blocking each projected assignment as it is found.

The number of projected models is at most ``2**len(indicators)``; the
``limit`` argument guards against runaway predicate sets and raises
:class:`AllSatBudgetExceeded` when exceeded so callers can report a
timeout, mirroring the paper's TO accounting.
"""

from __future__ import annotations

from typing import Sequence

from .api import Solver


class AllSatBudgetExceeded(Exception):
    pass


def all_sat(solver: Solver, indicators: Sequence[int],
            assumptions: Sequence[int] = (),
            limit: int = 4096,
            block_guard: int | None = None) -> list[tuple[bool, ...]]:
    """Enumerate projections of models onto ``indicators``.

    Each returned tuple holds, in the order of ``indicators``, the value
    each indicator *literal* takes in one model, so a negative literal
    reads True when its variable is false.  Every model is one the solver
    answered ``sat`` for, so each tuple is realizable under the solver's
    constraints and ``assumptions``.  Blocking clauses are added to the
    solver permanently; pass ``block_guard`` (a literal that must then
    also appear in ``assumptions``) to confine the blocking clauses to
    this query so the solver stays reusable afterwards.
    """
    models: list[tuple[bool, ...]] = []
    while True:
        if solver.check(assumptions) == "unsat":
            return models
        # Indicators are ordinary variables, so a full SAT assignment
        # always covers them; treat a (theoretically impossible)
        # unassigned indicator as False.
        values = tuple(solver.sat.value(ind) is True for ind in indicators)
        models.append(values)
        if len(models) > limit:
            raise AllSatBudgetExceeded(
                f"more than {limit} projected models")
        blocking = [-ind if value else ind
                    for ind, value in zip(indicators, values)]
        if block_guard is not None:
            blocking.append(-block_guard)
        solver.add_clause_lits(blocking)
