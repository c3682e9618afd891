"""Predicate cover (§4.1): the canonical CNF of the weakest
under-approximation ``β_Q(wp(pr, true))``.

The cover is computed by ALL-SAT enumeration of the Q-assignments that
satisfy the verification condition ("some assertion fails"), negating each
into a maximal clause.  A maximal cube (negated clause) satisfies the VC
iff some state in it can fail an assertion; the remaining cubes — those
whose every state satisfies all assertions — form the cover, which is the
canonical representation the weakening search of §4.2 operates on.

The enumeration is confined behind a fresh guard literal so the shared
incremental solver stays clean for the subsequent Dead/Fail queries.
"""

from __future__ import annotations

from ..lang.ast import Formula
from ..smt.allsat import all_sat
from .clauses import ClauseSet
from .deadfail import DeadFailOracle


def predicate_cover(oracle: DeadFailOracle,
                    model_limit: int = 4096) -> ClauseSet:
    """``PredicateCover_Q(pr)`` as a set of maximal Q-clauses."""
    enc = oracle.enc
    preds = oracle.preds
    pred_lits = [oracle.pred_lit(i) for i in range(len(preds))]
    index_of_var = {abs(lit): i + 1 for i, lit in enumerate(pred_lits)}
    negate = {abs(lit): lit < 0 for lit in pred_lits}
    vc = enc.vc_lit()
    guard = enc.solver.new_indicator()
    oracle.budget.check()
    models = all_sat(enc.solver, pred_lits, assumptions=[guard, vc],
                     limit=model_limit, block_guard=guard)
    clauses = set()
    for model in models:
        lits = []
        for var, value in model.items():
            if negate.get(var, False):
                value = not value
            idx = index_of_var[var]
            lits.append(-idx if value else idx)
        clauses.add(frozenset(lits))
    return frozenset(clauses)
