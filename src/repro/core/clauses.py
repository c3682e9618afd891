"""Clause sets over a predicate vocabulary Q (§2.4, §4.3).

A *Q-clause* is a disjunction of Q-literals, represented as a frozenset of
signed 1-based predicate indices: ``+i`` for predicate ``Q[i-1]``, ``-i``
for its negation.  A *clause set* (frozenset of Q-clauses) denotes the
conjunction of its clauses; the empty set denotes ``true`` (§2.4).

The predicate cover (§4.1) consists of *maximal* clauses — every predicate
occurs in each clause with one polarity.  :func:`normalize` implements the
Boolean simplification of §4.3 (resolution, subsumption, tautology
deletion to fixpoint) and :func:`prune_clauses` the k-literal quality
pruning.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from ..lang.ast import Formula, mk_and, mk_not, mk_or, TRUE

QClause = frozenset  # of signed ints
ClauseSet = frozenset  # of QClause


def clause_formula(clause: QClause, preds: list[Formula]) -> Formula:
    """The lang-level disjunction a Q-clause denotes."""
    lits = []
    for s in sorted(clause, key=abs):
        p = preds[abs(s) - 1]
        lits.append(p if s > 0 else mk_not(p))
    return mk_or(*lits)


def clause_set_formula(clauses: ClauseSet, preds: list[Formula]) -> Formula:
    """Conjunction over the clause set; empty set is ``true``."""
    if not clauses:
        return TRUE
    ordered = sorted(clauses, key=lambda c: sorted(c, key=abs))
    return mk_and(*(clause_formula(c, preds) for c in ordered))


def maximal_clause_from_model(values: Sequence[bool]) -> QClause:
    """Negate an ALL-SAT projection over Q into a maximal clause:
    ``values[i]`` is whether predicate ``Q[i]`` holds in the model."""
    return frozenset(-(i + 1) if v else i + 1 for i, v in enumerate(values))


def is_tautology(clause: QClause) -> bool:
    return any(-lit in clause for lit in clause)


def normalize(clauses: ClauseSet, max_rounds: int = 64) -> ClauseSet:
    """Boolean clause simplification of §4.3.

    Applies, to fixpoint: (1) resolution — from ``(c|l)`` and ``(d|!l)``
    add ``(c|d)``; (2) subsumption — drop ``(c|l)`` when ``c`` is present;
    (3) tautology deletion.  Resolution products that are tautologies or
    longer than both parents are not kept, which preserves the fixpoint
    result of interest (shorter equivalent clauses) while keeping the
    closure finite and small.
    """
    work: set[QClause] = {c for c in clauses if not is_tautology(c)}
    for _ in range(max_rounds):
        # subsumption first
        work = _subsume(work)
        added = False
        snapshot = sorted(work, key=lambda c: (len(c), sorted(c, key=abs)))
        for c1, c2 in combinations(snapshot, 2):
            for lit in c1:
                if -lit in c2:
                    resolvent = (c1 - {lit}) | (c2 - {-lit})
                    if is_tautology(resolvent):
                        continue
                    if len(resolvent) > max(len(c1), len(c2)):
                        continue
                    if resolvent not in work and \
                            not any(s <= resolvent for s in work):
                        work.add(resolvent)
                        added = True
        if not added:
            break
    return frozenset(_subsume(work))


def _subsume(clauses: set[QClause]) -> set[QClause]:
    ordered = sorted(clauses, key=lambda c: (len(c), sorted(c, key=abs)))
    out: list[QClause] = []
    for c in ordered:
        if not any(s <= c for s in out):
            out.append(c)
    return set(out)


def prune_clauses(clauses: ClauseSet, max_literals: int | None) -> ClauseSet:
    """k-clause pruning (§4.3): drop clauses with more than ``max_literals``
    literals.  ``None`` disables pruning.  Pruning *weakens* the
    specification and can therefore reveal more warnings."""
    if max_literals is None:
        return frozenset(clauses)
    return frozenset(c for c in clauses if len(c) <= max_literals)


def all_maximal_clauses(nq: int):
    """Every maximal clause over ``nq`` predicates (for brute-force tests)."""
    if nq == 0:
        yield frozenset()
        return
    for mask in range(2 ** nq):
        yield frozenset((i + 1) if (mask >> i) & 1 else -(i + 1)
                        for i in range(nq))
