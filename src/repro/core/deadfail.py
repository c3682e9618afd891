"""The Dead/Fail oracle (§2.3) over the incremental path encoding.

For an input-state specification ``f``:

* ``Fail(f)``  — assertions that can be the *first* failure on some
  execution from a state in ``f``;
* ``Dead(f)`` — instrumented locations reachable from no state in ``f``.

Specifications come in two shapes: clause sets over the mined predicate
vocabulary (used throughout the Algorithm-2 search; each Q-clause gets a
reusable indicator literal) and raw formulas (used for ``true`` and for
ad-hoc specs in tests).  All queries are SAT checks under assumptions on
one shared solver, with memoization per clause set.

Per §2.3, locations dead already under ``true`` are removed from the
location set before the analysis starts (``Dead(true) = {}`` assumption).

A wall-clock budget can be attached; it is checked before each solver
query and makes the whole per-procedure analysis abort with
:class:`AnalysisTimeout` — the paper's TO accounting.
"""

from __future__ import annotations

import time

from ..lang.ast import Formula, TRUE
from ..smt.tuning import TUNING
from ..vc.encode import EncodedProcedure
from .clauses import ClauseSet, QClause, clause_formula


class AnalysisTimeout(Exception):
    """Raised when the per-procedure time budget is exhausted."""


class Budget:
    """Wall-clock budget for one per-procedure analysis (the paper's
    10-second TO accounting).

    Lifecycle (documented in ``docs/cli.md``):

    1. **Construction** fixes the deadline: ``Budget(seconds)`` expires
       ``seconds`` from *now*; ``Budget(None)`` never expires; any
       ``seconds <= 0`` is born expired (every ``check()`` raises —
       useful for "cache-only / no fresh solving" runs and for tests).
    2. **Checking**: the Dead/Fail oracle calls :meth:`check` before
       every solver query, so a timeout can only fire between queries,
       never mid-solve.  Expiry raises :class:`AnalysisTimeout`, which
       the analysis driver converts into ``ProcedureReport.timed_out``
       rather than propagating.
    3. **Inspection**: :meth:`remaining` never raises; the driver stores
       it as ``ProcedureReport.budget_remaining``.

    A ``Budget`` is single-use: deadlines are absolute, so reusing one
    across procedures charges them to the same clock.
    """

    def __init__(self, seconds: float | None):
        self.seconds = seconds
        self.deadline = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        """Raise :class:`AnalysisTimeout` iff the budget has expired
        (no-op for the unbounded ``Budget(None)``)."""
        if self.seconds is None:
            return
        if self.seconds <= 0 or time.monotonic() > self.deadline:
            raise AnalysisTimeout()

    def remaining(self) -> float | None:
        """Seconds left before expiry, clamped at ``0.0``; ``None`` for
        an unbounded budget.  Pre-expired budgets report ``0.0``."""
        if self.seconds is None:
            return None
        if self.seconds <= 0:
            return 0.0
        return max(0.0, self.deadline - time.monotonic())


# ----------------------------------------------------------------------
# Cross-encoding baseline memo.
#
# ``Dead(true)`` (the live-location baseline) and ``Fail(true)`` (the
# conservative verifier's answer) do not depend on the predicate
# vocabulary — only on the *prepared* procedure and the Dead() semantics
# knob.  Configurations that share the havoc-returns knob (Conc/A1, and
# A0/A2) prepare the identical procedure, and pruning sweeps re-analyze
# it wholesale, so these baselines are memoized per procedure
# fingerprint (location/assertion ids are assigned deterministically by
# ``instrument``, so the cached id sets transfer between encodings).
#
# The same store holds two more kinds: ``analysis``, a completed
# Algorithm 1 result keyed additionally by the mined vocabulary Q (in
# order: clause literals index into it) and ``prune_k``, and ``cons``,
# the conservative verifier's result.  Def. 3 makes an abstract SIB a
# function of the prepared procedure and Q alone, so the configuration
# that derived them is not part of the key (`repro.core.sib`,
# `repro.core.checker`).  Every key carries the solver settings, so a
# self-checked request is never answered from an unchecked run.  The
# ``analysis`` and ``cons`` kinds hold unchecked runs only: a
# self-checked run always solves, so that the certificates it reports
# are those of its own answers.  Their entries have a persistent tier:
# given an `repro.core.cache.AnalysisCache`, :func:`memo_get` falls back
# to the record kept under the same key and :func:`memo_store` writes
# one.
# ----------------------------------------------------------------------

_BASELINE_CACHE: dict[tuple, object] = {}
_BASELINE_CACHE_CAP = 4096


def memo_key(kind: str, fingerprint: str, self_check: bool,
             dead_through_failures: bool = True, *rest) -> tuple:
    """The key of one memo entry: its kind, the prepared procedure's
    :func:`repro.vc.encode.procedure_fingerprint`, the solver settings
    (``self_check`` and a snapshot of `repro.smt.tuning.TUNING`), the
    Dead() semantics and any further inputs of the kind."""
    return (kind, fingerprint, self_check, tuple(vars(TUNING).values()),
            dead_through_failures, *rest)


def clear_baseline_cache() -> None:
    """Empty the memo, every kind."""
    _BASELINE_CACHE.clear()


def memo_get(key: tuple, cache=None):
    """The entry under ``key``, or ``None``.  With ``cache``, a memo miss
    reads the record kept under ``key``, which then joins the memo, and
    a memo hit is written to ``cache`` when it holds no record yet."""
    entry = _BASELINE_CACHE.get(key)
    if cache is None:
        return entry
    if entry is None:
        entry = cache.load_analysis(key)
        if entry is not None:
            memo_store(key, entry)
    elif not cache.has_record(cache.entry_key(key)):
        cache.store_analysis(key, entry)
    return entry


def memo_store(key: tuple, value, cache=None) -> None:
    """Keep ``value`` under ``key``, and with ``cache`` on disk too."""
    if len(_BASELINE_CACHE) >= _BASELINE_CACHE_CAP:
        _BASELINE_CACHE.clear()
    _BASELINE_CACHE[key] = value
    if cache is not None:
        cache.store_analysis(key, value)


class DeadFailOracle:
    def __init__(self, enc: EncodedProcedure, preds: list[Formula],
                 budget: Budget | None = None,
                 dead_through_failures: bool = True):
        """``dead_through_failures`` selects the reachability semantics of
        Dead(): the default matches the paper's implementation (assertion
        failures do not block control flow); False gives the strict
        failure-terminates reading of §2.3 (see DESIGN.md and the
        dead-semantics ablation benchmark)."""
        self.enc = enc
        self.preds = preds
        self.budget = budget if budget is not None else Budget(None)
        self.dead_through_failures = dead_through_failures
        self._clause_ind: dict[QClause, int] = {}
        self._fail_cache: dict[ClauseSet, frozenset] = {}
        self._dead_cache: dict[ClauseSet, frozenset] = {}
        self._entail_cache: dict[tuple, bool] = {}
        self.queries = 0
        self.fail_queries = 0
        self.dead_queries = 0
        self.cache_hits = 0
        self.queries_saved = 0
        # §2.3: remove Dead(true) from the location set up front (memoized
        # across encodings of the same prepared procedure).
        live_key = memo_key("live", enc.fingerprint(), enc.self_check,
                            dead_through_failures)
        cached_live = memo_get(live_key)
        if cached_live is not None:
            self.cache_hits += 1
            self.queries_saved += len(enc.loc_events)
            self._live_locs = cached_live
        else:
            self._live_locs = self._live_under_true()
            memo_store(live_key, self._live_locs)
        self.baseline_dead = frozenset(
            ev.loc_id for ev in enc.loc_events
            if ev.loc_id not in self._live_locs)

    @property
    def live_locs(self) -> frozenset:
        """Locations live under ``true`` — the §2.3 baseline the
        location set was pruned to."""
        return self._live_locs

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _check(self, assumptions: list[int]) -> str:
        self.budget.check()
        self.queries += 1
        return self.enc.solver.check(assumptions)

    def pred_lit(self, idx: int) -> int:
        """SAT literal equivalent to predicate ``preds[idx]`` at entry."""
        return self.enc.spec_indicator(self.preds[idx])

    def clause_ind(self, clause: QClause) -> int:
        """Indicator literal asserting the Q-clause at the entry state."""
        lit = self._clause_ind.get(clause)
        if lit is None:
            fm = clause_formula(clause, self.preds)
            lit = self.enc.solver.lit_for(self.enc.encode_formula(fm))
            self._clause_ind[clause] = lit
        return lit

    def _spec_assumptions(self, clauses: ClauseSet) -> list[int]:
        return [self.clause_ind(c) for c in
                sorted(clauses, key=lambda c: sorted(c, key=abs))]

    # ------------------------------------------------------------------
    # baseline
    # ------------------------------------------------------------------

    def _reach(self, loc_id: int) -> list[int]:
        return self.enc.reach_assumptions(
            loc_id, through_failures=self.dead_through_failures)

    def _model_reaches(self, loc_id: int) -> bool:
        """Does the SAT model of the *last* (sat) check already witness
        reachability of ``loc_id``?  Sound because a final model is a
        total, theory-consistent assignment: every reach assumption it
        satisfies is genuinely satisfiable."""
        sat = self.enc.solver.sat
        return all(sat.value(lit) is True for lit in self._reach(loc_id))

    def _live_under_true(self) -> frozenset:
        live = set()
        for ev in self.enc.loc_events:
            if ev.loc_id in live:
                self.queries_saved += 1
                continue
            if self._check(self._reach(ev.loc_id)) == "sat":
                live.add(ev.loc_id)
                # Harvest the witness: one model certifies every other
                # location it happens to reach.
                for other in self.enc.loc_events:
                    if other.loc_id not in live and \
                            self._model_reaches(other.loc_id):
                        live.add(other.loc_id)
        return frozenset(live)

    # ------------------------------------------------------------------
    # Fail / Dead over clause sets
    #
    # Monotonicity (§3.3): dropping clauses weakens the specification, so
    # for clause sets c2 ⊆ c1 the semantics guarantee Fail(c1) ⊆ Fail(c2)
    # and Dead(c2) ⊆ Dead(c1).  Every cached answer for a comparable key
    # therefore *bounds* the answer for the current key, and Algorithm 2
    # can additionally pass the parent node's result as an explicit hint —
    # either way, the bounded assertions/locations need no SAT query.
    # ------------------------------------------------------------------

    # Beyond this many cached entries, stop scanning the caches for
    # comparable keys (the explicit hints still apply; the scan is a
    # seeding heuristic, not a correctness requirement).
    _BOUND_SCAN_CAP = 256

    def _fail_bounds(self, key: ClauseSet,
                     superset_of: frozenset | None) -> tuple[set, set]:
        """(known failing, candidate) aids for ``fail_set(key)``."""
        known: set = set(superset_of) if superset_of is not None else set()
        candidates = {ev.aid for ev in self.enc.assert_events}
        cache = self._fail_cache
        if len(cache) <= self._BOUND_SCAN_CAP:
            items = cache.items()
        else:
            # Fail(true) — the weakest key — is cached first and is the
            # single most useful upper bound; never lose it.
            items = [(k, v) for k, v in (
                (frozenset(), cache.get(frozenset())),) if v is not None]
        for k, v in items:
            if k <= key:      # weaker spec: Fail(key) ⊆ Fail(k)
                candidates &= v
            elif k >= key:    # stronger spec: Fail(k) ⊆ Fail(key)
                known |= v
        return known, candidates

    def _dead_bounds(self, key: ClauseSet,
                     subset_of: frozenset | None) -> tuple[set, set]:
        """(known dead, candidate) locations for ``dead_set(key)``."""
        known: set = set()
        candidates = set(self._live_locs)
        if subset_of is not None:
            candidates &= subset_of
        cache = self._dead_cache
        if len(cache) <= self._BOUND_SCAN_CAP:
            for k, v in cache.items():
                if k >= key:      # stronger spec: Dead(key) ⊆ Dead(k)
                    candidates &= v
                elif k <= key:    # weaker spec: Dead(k) ⊆ Dead(key)
                    known |= v
        return known, candidates

    def fail_set(self, clauses: ClauseSet,
                 superset_of: frozenset | None = None) -> frozenset:
        """``Fail(clauses)``.  ``superset_of`` may name assertions already
        known to fail (e.g. the Fail set of a stronger parent spec); they
        are taken on trust and never re-queried."""
        key = frozenset(clauses)
        hit = self._fail_cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        known, candidates = self._fail_bounds(key, superset_of)
        spec = self._spec_assumptions(key)
        out = set()
        for ev in self.enc.assert_events:
            if ev.aid in known:
                out.add(ev.aid)
                self.queries_saved += 1
                continue
            if ev.aid not in candidates:
                self.queries_saved += 1
                continue
            self.fail_queries += 1
            if self._check(spec + self.enc.fail_assumptions(ev.aid)) == "sat":
                out.add(ev.aid)
        result = frozenset(out)
        self._fail_cache[key] = result
        return result

    def fail_set_bounded(self, clauses: ClauseSet, limit: int,
                         superset_of: frozenset | None = None
                         ) -> frozenset | None:
        """``Fail(clauses)`` if it has at most ``limit`` elements, else
        ``None`` — stopping the enumeration as soon as the count exceeds
        the limit (Algorithm 2's ``|Fail| > MinFail`` pruning needs only
        the verdict, not the set)."""
        key = frozenset(clauses)
        hit = self._fail_cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit if len(hit) <= limit else None
        known, candidates = self._fail_bounds(key, superset_of)
        if len(known) > limit:
            self.queries_saved += 1
            return None
        spec = self._spec_assumptions(key)
        out = set()
        for ev in self.enc.assert_events:
            if ev.aid in known:
                out.add(ev.aid)
                self.queries_saved += 1
            elif ev.aid not in candidates:
                self.queries_saved += 1
                continue
            else:
                self.fail_queries += 1
                if self._check(
                        spec + self.enc.fail_assumptions(ev.aid)) == "sat":
                    out.add(ev.aid)
            if len(out) > limit:
                return None  # partial: do not poison the cache
        result = frozenset(out)
        self._fail_cache[key] = result
        return result

    def dead_set(self, clauses: ClauseSet,
                 subset_of: frozenset | None = None) -> frozenset:
        """``Dead(clauses)``.  ``subset_of`` may bound the result from
        above (e.g. the Dead set of a stronger parent spec); locations
        outside it are live by monotonicity and never queried."""
        key = frozenset(clauses)
        hit = self._dead_cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        known, candidates = self._dead_bounds(key, subset_of)
        spec = self._spec_assumptions(key)
        out = set()
        witnessed_live: set = set()
        for loc in sorted(self._live_locs):
            if loc in known:
                out.add(loc)
                self.queries_saved += 1
                continue
            if loc not in candidates or loc in witnessed_live:
                self.queries_saved += 1
                continue
            self.dead_queries += 1
            if self._check(spec + self._reach(loc)) == "unsat":
                out.add(loc)
            else:
                # Live: harvest the witness — the model already settles
                # every other candidate location it reaches (the spec
                # assumptions hold in it by construction).
                for other in candidates:
                    if other != loc and other not in known and \
                            other not in witnessed_live and \
                            self._model_reaches(other):
                        witnessed_live.add(other)
        result = frozenset(out)
        self._dead_cache[key] = result
        return result

    def cached_fail(self, clauses: ClauseSet) -> frozenset | None:
        """The cached ``Fail(clauses)``, if any (no queries issued)."""
        return self._fail_cache.get(frozenset(clauses))

    def cached_dead(self, clauses: ClauseSet) -> frozenset | None:
        """The cached ``Dead(clauses)``, if any (no queries issued)."""
        return self._dead_cache.get(frozenset(clauses))

    def stats(self) -> dict:
        """Counters for the observability layer (see ``bench``)."""
        out = {
            "queries": self.queries,
            "fail_queries": self.fail_queries,
            "dead_queries": self.dead_queries,
            "cache_hits": self.cache_hits,
            "queries_saved": self.queries_saved,
        }
        if self.enc.solver.validate:
            # Certificate counters from the self-checking solver: every
            # query answer was independently proof-/model-verified.
            out["certificates"] = dict(self.enc.solver.certificates)
        return out

    # ------------------------------------------------------------------
    # Fail / Dead over raw formulas
    # ------------------------------------------------------------------

    def fail_set_formula(self, spec: Formula) -> frozenset:
        ind = [] if spec is TRUE else [self.enc.spec_indicator(spec)]
        out = set()
        for ev in self.enc.assert_events:
            if self._check(ind + self.enc.fail_assumptions(ev.aid)) == "sat":
                out.add(ev.aid)
        return frozenset(out)

    def dead_set_formula(self, spec: Formula) -> frozenset:
        ind = [] if spec is TRUE else [self.enc.spec_indicator(spec)]
        out = set()
        for loc in sorted(self._live_locs):
            if self._check(ind + self._reach(loc)) == "unsat":
                out.add(loc)
        return frozenset(out)

    # ------------------------------------------------------------------
    # semantic clause simplification (display aid)
    # ------------------------------------------------------------------

    def simplify_clauses(self, clauses: ClauseSet) -> ClauseSet:
        """Semantics-preserving minimization of a clause set.

        Purely propositional normalization (§4.3) cannot exploit *theory*
        facts (e.g. that the cube ``c == buf && Freed[c] == 0 &&
        Freed[buf] != 0`` is empty).  Two solver-backed passes, iterated
        to fixpoint, recover the compact forms the paper displays (the
        Figure 1 spec prints as the three conjuncts
        ``!Freed[c] && !Freed[buf] && c != buf``):

        1. *literal minimization* — replace a clause by a sub-clause the
           whole set already entails;
        2. *redundant-clause elimination* — drop clauses entailed by the
           remaining ones.
        """
        current = frozenset(clauses)
        for _ in range(8):
            shrunk = self._minimize_literals(current)
            pruned = self._drop_entailed(shrunk)
            if pruned == current:
                return pruned
            current = pruned
        return current

    def _entails(self, clauses, sub_clause) -> bool:
        """Does the clause set entail the (sub-)clause?  Memoized: the
        fixpoint iteration of :meth:`simplify_clauses` re-asks the same
        entailments round after round."""
        key = (frozenset(clauses), frozenset(sub_clause))
        hit = self._entail_cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        assumptions = [self.clause_ind(c) for c in clauses]
        for lit in sub_clause:
            p = self.pred_lit(abs(lit) - 1)
            assumptions.append(-p if lit > 0 else p)
        self.budget.check()
        self.queries += 1
        result = self.enc.solver.check(assumptions) == "unsat"
        self._entail_cache[key] = result
        return result

    def _minimize_literals(self, clauses: ClauseSet) -> ClauseSet:
        out: set[QClause] = set()
        for clause in sorted(clauses, key=lambda c: (len(c),
                                                     sorted(c, key=abs))):
            reduced = clause
            for lit in sorted(clause, key=abs):
                if len(reduced) == 1:
                    break
                candidate = reduced - {lit}
                if self._entails(clauses, candidate):
                    reduced = candidate
            out.add(reduced)
        return frozenset(out)

    def _drop_entailed(self, clauses: ClauseSet) -> ClauseSet:
        current = list(sorted(clauses, key=lambda c: (-len(c),
                                                      sorted(c, key=abs))))
        kept: list[QClause] = []
        for i, clause in enumerate(current):
            rest = kept + current[i + 1:]
            if not self._entails(rest, clause):
                kept.append(clause)
        return frozenset(kept)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def conservative_fail(self) -> frozenset:
        """``Fail(true)`` — what the sound modular verifier reports.

        Vocabulary-independent, so memoized across encodings of the same
        prepared procedure (it also upper-bounds every other Fail set
        through the clause-set cache)."""
        empty: ClauseSet = frozenset()
        if empty not in self._fail_cache:
            key = memo_key("fail_true", self.enc.fingerprint(),
                           self.enc.self_check, self.dead_through_failures)
            cached = memo_get(key)
            if cached is not None:
                self.cache_hits += 1
                self.queries_saved += len(self.enc.assert_events)
                self._fail_cache[empty] = cached
            else:
                memo_store(key, self.fail_set(empty))
        return self.fail_set(empty)

    def labels_of(self, aids: frozenset) -> list[str]:
        by_aid = {ev.aid: ev.label for ev in self.enc.assert_events}
        # Continuation duplication can give one source assertion several
        # aids; reporting dedupes by label.
        return sorted({by_aid[a] for a in aids})
