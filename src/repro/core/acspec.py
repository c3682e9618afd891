"""Algorithm 2: ``FindAlmostCorrectSpecs`` (§4.2) plus the §4.3
post-processing (Normalize, PruneClauses).

The search explores subsets of the maximal-clause predicate cover obtained
by dropping clauses one at a time (each drop weakens the specification by
exactly one maximal cube).  A frontier holds clause sets that still create
dead code; clause sets whose dead set is empty are candidate outputs,
ranked by their failure count; ``MinFail`` tracks the least failure count
seen and prunes dominated branches.

Fidelity note (also in DESIGN.md): the paper's printed listing of lines
20–23 is OCR-garbled; this implementation follows the unambiguous prose of
§4.2 ("added to S if Dead != {} and |Fail| <= MinFail ... added to the
output set if Dead = {} and |Fail| <= MinFail"), and Theorem 1 is
property-tested against a brute-force enumeration of Definition 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.ast import Formula
from .clauses import ClauseSet, normalize, prune_clauses
from .deadfail import DeadFailOracle


@dataclass
class AcspecResult:
    """Outcome of the weakening search for one procedure/configuration."""

    cover: ClauseSet
    has_abstract_sib: bool
    min_fail: int
    # raw outputs of the search (subsets of the cover)
    raw_specs: list = field(default_factory=list)
    # outputs after Normalize + PruneClauses (§4.3)
    specs: list = field(default_factory=list)
    # assertion ids that fail under some (post-processed) spec
    warnings: frozenset = frozenset()
    search_nodes: int = 0


def find_almost_correct_specs(oracle: DeadFailOracle, cover: ClauseSet,
                              prune_k: int | None = None,
                              max_nodes: int = 20000) -> AcspecResult:
    """Run the Algorithm-2 search, then §4.3 post-processing, then collect
    the failures the post-processed specs induce (Algorithm 1, line 8)."""
    result = AcspecResult(cover=cover, has_abstract_sib=False, min_fail=0)
    dead0 = oracle.dead_set(cover)
    if not dead0:
        result.raw_specs = [cover]
    else:
        result.has_abstract_sib = True
        frontier: list[ClauseSet] = [cover]
        visited: set[ClauseSet] = {cover}
        outputs: set[ClauseSet] = set()
        min_fail = len(oracle.enc.assert_events)
        nodes = 0
        while frontier:
            c1 = frontier.pop()
            # Monotonicity hints: c2 = c1 - {clause} is weaker than c1, so
            # Fail(c1) ⊆ Fail(c2) and Dead(c2) ⊆ Dead(c1) — the parent's
            # cached results bound every child query (see DeadFailOracle).
            parent_fail = oracle.cached_fail(c1)
            parent_dead = oracle.cached_dead(c1)
            for clause in sorted(c1, key=lambda c: sorted(c, key=abs)):
                c2 = c1 - {clause}
                if c2 in visited:
                    continue
                visited.add(c2)
                nodes += 1
                if nodes > max_nodes:
                    raise SearchBudgetExceeded()
                fail = oracle.fail_set(c2, superset_of=parent_fail,
                                       limit=min_fail)
                if fail is None:
                    continue  # |Fail| > MinFail, which can only decrease
                n_fail = len(fail)
                if oracle.dead_set(c2, subset_of=parent_dead):
                    frontier.append(c2)  # still too strong: keep weakening
                elif n_fail == min_fail:
                    outputs.add(c2)
                else:  # n_fail < min_fail
                    min_fail = n_fail
                    outputs = {c2}
        result.min_fail = min_fail
        # Definition 4, condition 4 (maximal strengthening): drop outputs
        # strictly weaker (a strict subset of clauses) than another output.
        outputs = {c for c in outputs
                   if not any(c < d for d in outputs)}
        result.raw_specs = sorted(outputs, key=_spec_key)
    # §4.3 post-processing; pruning can weaken and reveal more warnings.
    post = []
    seen: set[ClauseSet] = set()
    for spec in result.raw_specs:
        processed = prune_clauses(normalize(spec), prune_k)
        if processed not in seen:
            seen.add(processed)
            post.append(processed)
    result.specs = post
    warnings: set[int] = set()
    for spec in post:
        warnings |= oracle.fail_set(spec)
    result.warnings = frozenset(warnings)
    if result.raw_specs and not result.has_abstract_sib:
        result.min_fail = 0
    return result


class SearchBudgetExceeded(Exception):
    """The Algorithm-2 frontier search exceeded ``max_nodes``; converted
    to a timeout by the analysis driver (part of the budget lifecycle
    documented in ``docs/cli.md``)."""


def _spec_key(spec: ClauseSet):
    return (len(spec), sorted(sorted(c, key=abs) for c in spec))
