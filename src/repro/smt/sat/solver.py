"""A CDCL SAT solver with assumptions and theory hooks.

The design follows MiniSat: two-watched-literal propagation, VSIDS variable
activity with phase saving, first-UIP conflict analysis with recursive
clause minimization, Luby restarts, and solving under assumptions with
unsat-core extraction.

A *theory* object may be attached (see :class:`TheoryInterface`).  The
solver keeps the theory synchronized with the trail and consults it at
propagation fixpoints and on full assignments; the theory answers with
lemma clauses (in particular, conflict explanations), which the solver
integrates non-chronologically.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .cnf import normalize_clause, var_of


class TheoryInterface:
    """What the SAT core expects of a theory plugin.

    All methods have trivial defaults so a plain SAT problem needs no
    theory at all.
    """

    def assert_lit(self, lit: int) -> list[int] | None:
        """Notify that ``lit`` became true on the trail.

        Returns ``None`` when consistent, or a *conflict clause* — a clause
        (list of literals) that is currently falsified and explains the
        inconsistency.
        """
        return None

    def undo_to(self, trail_len: int) -> None:
        """Undo assertions so that only the first ``trail_len`` trail
        literals are considered asserted."""

    def check(self, final: bool) -> list[list[int]]:
        """Consistency check; ``final`` means the assignment is total.

        Returns lemma clauses to add (empty list = consistent).  On a
        final check, returning no lemmas certifies T-satisfiability.
        """
        return []


class ProofLog:
    """Chronological DRUP-style derivation log.

    Steps are ``(tag, clause)`` pairs with clauses as literal tuples —
    except theory lemmas carrying a justification, which are
    ``("t", clause, just)`` triples:

    - ``"i"``: an input clause asserted through :meth:`SatSolver.add_clause`;
    - ``"t"``: a theory lemma — T-valid but not propositionally
      derivable.  With checked theory lemmas on, the step carries the
      justification the independent checker replays (an EUF congruence
      chain or a LIA Farkas/tightening script, built by
      :mod:`repro.smt.certify`); without one the checker either admits
      it as a trusted axiom or, in ``require_justified`` mode, rejects
      the proof;
    - ``"a"``: a learnt clause, which must be RUP with respect to every
      clause recorded before it;
    - ``"d"``: deletion of one clause copy (emitted by the learnt-clause
      database reduction) — later RUP checks may no longer use it;
    - ``"f"``: the terminal clause of one UNSAT answer — the empty clause
      for an unconditional conflict, or the negated unsat core for an
      assumption-based refutation.  Final clauses are checked but not kept.

    The log is append-only and spans the solver's whole lifetime, so an
    incremental consumer can verify each ``check()`` by replaying only the
    suffix added since the previous one (see :mod:`repro.smt.proofcheck`).
    """

    __slots__ = ("steps",)

    def __init__(self) -> None:
        self.steps: list[tuple[str, tuple[int, ...]]] = []

    def input(self, cl: Sequence[int]) -> None:
        self.steps.append(("i", tuple(cl)))

    def lemma(self, cl: Sequence[int], just: tuple | None = None) -> None:
        if just is None:
            self.steps.append(("t", tuple(cl)))
        else:
            self.steps.append(("t", tuple(cl), just))

    def derive(self, cl: Sequence[int]) -> None:
        self.steps.append(("a", tuple(cl)))

    def delete(self, cl: Sequence[int]) -> None:
        self.steps.append(("d", tuple(cl)))

    def final(self, cl: Sequence[int]) -> None:
        self.steps.append(("f", tuple(cl)))


class _Learnt(list):
    """A learnt clause: a plain literal list plus its LBD score (the
    number of distinct decision levels among its literals at learn time).
    Propagation treats it exactly like any other clause; only the
    database-reduction policy looks at ``lbd``."""

    __slots__ = ("lbd",)


class _Unassigned:
    def __repr__(self) -> str:  # pragma: no cover
        return "UNASSIGNED"


UNASSIGNED = _Unassigned()


def _luby(i: int) -> int:
    """The i-th element (1-based) of the Luby sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... (MiniSat's scheme)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class SatSolver:
    """CDCL solver.  Variables are created via :meth:`new_var` and are
    positive integers; literals follow the DIMACS ±v convention."""

    def __init__(self, theory: TheoryInterface | None = None):
        self.theory = theory
        self.nvars = 0
        # Indexed by variable (1-based; slot 0 unused).
        self._assign: list = [UNASSIGNED]
        self._level: list[int] = [0]
        self._reason: list = [None]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        self._seen: list[bool] = [False]
        # Indexed by encoded literal (2v for +v, 2v+1 for -v).
        self._watches: list[list[list[int]]] = [[], []]
        self.trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._th_head = 0
        self._clauses: list[list[int]] = []
        self._learnts: list[_Learnt] = []
        self._reduce_interval = 128
        self._next_reduce = 128
        self.reduced_clauses = 0
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._order: list[tuple[float, int]] = []
        self.ok = True
        self.core: list[int] | None = None
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.learned = 0
        self.restarts = 0
        self._assumptions: list[int] = []
        # Optional DRUP-style proof log (None = no logging overhead).
        self.proof: ProofLog | None = None
        # Optional justification source for theory lemmas: a callable
        # mapping a clause (literal iterable) to a checker-replayable
        # justification tuple or None.  api.py wires it to
        # TheoryCore.pop_justification when checked theory lemmas are on.
        self.lemma_justifier = None

    def enable_proof(self) -> ProofLog:
        """Start recording a clause-derivation proof; returns the log."""
        if self.proof is None:
            if self._clauses or self.trail or not self.ok:
                raise RuntimeError(
                    "enable_proof must be called before any clause is added")
            self.proof = ProofLog()
        return self.proof

    def stats(self) -> dict:
        """Search counters, for the observability/bench layer."""
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "learned": self.learned,
            "restarts": self.restarts,
            "reduced_clauses": self.reduced_clauses,
        }

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        self._assign.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._seen.append(False)
        self._watches.append([])  # 2v
        self._watches.append([])  # 2v+1
        heapq.heappush(self._order, (0.0, v))
        return v

    @staticmethod
    def _enc(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def value(self, lit: int):
        """Current value of a literal: True, False, or UNASSIGNED."""
        v = self._assign[var_of(lit)]
        if v is UNASSIGNED:
            return UNASSIGNED
        return v if lit > 0 else not v

    def level_of(self, lit: int) -> int:
        return self._level[var_of(lit)]

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause at the root level.  Returns False if the solver
        becomes trivially unsat."""
        if not self.ok:
            return False
        if self.decision_level() != 0:
            raise RuntimeError("add_clause is only valid at decision level 0; "
                               "use lemmas via the theory hook during search")
        cl = normalize_clause(lits)
        if cl is None:
            return True  # tautology
        if self.proof is not None:
            # Record the clause as given; the checker re-derives the
            # root-level simplifications below by unit propagation.
            self.proof.input(cl)
        # Remove root-falsified literals; detect satisfaction.
        out = []
        for lit in cl:
            val = self.value(lit)
            if val is True and self.level_of(lit) == 0:
                return True
            if val is False and self.level_of(lit) == 0:
                continue
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
                return False
            return True
        self._attach(out)
        return True

    def _attach(self, cl: list[int], learnt_db: bool = False) -> None:
        if learnt_db:
            self._learnts.append(cl)
        else:
            self._clauses.append(cl)
        self._watches[self._enc(-cl[0])].append(cl)
        self._watches[self._enc(-cl[1])].append(cl)

    # ------------------------------------------------------------------
    # assignment machinery
    # ------------------------------------------------------------------

    def decision_level(self) -> int:
        return len(self._trail_lim)

    def _enqueue(self, lit: int, reason) -> bool:
        val = self.value(lit)
        if val is not UNASSIGNED:
            return val is True
        v = var_of(lit)
        self._assign[v] = lit > 0
        self._level[v] = self.decision_level()
        self._reason[v] = reason
        self._phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self.trail))

    def _backjump(self, level: int) -> None:
        if self.decision_level() <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self.trail[bound:]):
            v = var_of(lit)
            self._assign[v] = UNASSIGNED
            self._reason[v] = None
            heapq.heappush(self._order, (-self._activity[v], v))
        if len(self._order) > 2 * self.nvars + 16:
            self._compact_order()
        del self.trail[bound:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self.trail))
        if self._th_head > len(self.trail):
            if self.theory is not None:
                self.theory.undo_to(len(self.trail))
            self._th_head = len(self.trail)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------

    def _propagate(self) -> list[int] | None:
        """Unit propagation to fixpoint; returns a conflicting clause or None."""
        while self._qhead < len(self.trail):
            lit = self.trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            watchlist = self._watches[self._enc(lit)]
            i = 0
            j = 0
            n = len(watchlist)
            while i < n:
                cl = watchlist[i]
                i += 1
                # Ensure the falsified literal is at position 1.
                if cl[0] == -lit:
                    cl[0], cl[1] = cl[1], cl[0]
                first = cl[0]
                if self.value(first) is True:
                    watchlist[j] = cl
                    j += 1
                    continue
                # Look for a new watch.
                found = False
                for k in range(2, len(cl)):
                    if self.value(cl[k]) is not False:
                        cl[1], cl[k] = cl[k], cl[1]
                        self._watches[self._enc(-cl[1])].append(cl)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                watchlist[j] = cl
                j += 1
                if self.value(first) is False:
                    # Conflict: copy the remaining watches back.
                    while i < n:
                        watchlist[j] = watchlist[i]
                        j += 1
                        i += 1
                    del watchlist[j:]
                    self._qhead = len(self.trail)
                    return cl
                self._enqueue(first, cl)
            del watchlist[j:]
        return None

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------

    def _bump(self, v: int) -> None:
        self._activity[v] += self._var_inc
        if self._activity[v] > 1e100:
            for i in range(1, self.nvars + 1):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100
        heapq.heappush(self._order, (-self._activity[v], v))
        if len(self._order) > 2 * self.nvars + 16:
            self._compact_order()

    def _compact_order(self) -> None:
        """Rebuild the decision heap from scratch.

        ``_order`` uses lazy insertion: every bump and every unassignment
        pushes a fresh ``(-activity, v)`` pair, and stale pairs are only
        discarded when popped.  A restart-heavy run can therefore grow the
        heap far past the variable count; once stale entries dominate
        (heap larger than twice the live variables) a rebuild is cheaper
        than carrying them.  The rebuild must include *every* unassigned
        variable, else :meth:`_pick_branch_var` could miss one and the
        search would stop on a partial assignment.
        """
        self._order = [(-self._activity[v], v)
                       for v in range(1, self.nvars + 1)
                       if self._assign[v] is UNASSIGNED]
        heapq.heapify(self._order)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP analysis.  Returns (learnt clause, backjump level); the
        asserting literal is learnt[0]."""
        learnt: list[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        lit = None
        index = len(self.trail) - 1
        cl = confl
        path: list[int] = []
        while True:
            for q in cl if lit is None else cl[1:]:
                v = var_of(q)
                if not seen[v] and self._level[v] > 0:
                    seen[v] = True
                    path.append(v)
                    self._bump(v)
                    if self._level[v] >= self.decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
            # Pick the next trail literal to resolve on.
            while not seen[var_of(self.trail[index])]:
                index -= 1
            lit = self.trail[index]
            index -= 1
            v = var_of(lit)
            seen[v] = False
            counter -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            cl = self._reason[v]
            assert cl is not None, "resolving on a decision before UIP"
            if cl[0] != lit:
                # reason clause stores the implied literal first
                cl = [lit] + [x for x in cl if x != lit]
        # Mark remaining for minimization bookkeeping.
        for q in learnt[1:]:
            seen[var_of(q)] = True
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if not self._redundant(q, 0):
                minimized.append(q)
        for q in learnt[1:]:
            seen[var_of(q)] = False
        for v in path:
            seen[v] = False
        learnt = minimized
        if len(learnt) == 1:
            bt = 0
        else:
            # Second-highest level among the learnt literals.
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[var_of(learnt[i])] > self._level[var_of(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self._level[var_of(learnt[1])]
        return learnt, bt

    def _redundant(self, lit: int, depth: int) -> bool:
        """Is ``lit`` implied by the other literals of the learnt clause?"""
        if depth > 32:
            return False
        reason = self._reason[var_of(lit)]
        if reason is None:
            return False
        for q in reason:
            if q == -lit or q == lit:
                continue
            v = var_of(q)
            if self._seen[v] or self._level[v] == 0:
                continue
            if self._reason[v] is None:
                return False
            if not self._redundant(q, depth + 1):
                return False
        return True

    def _learn(self, learnt: list[int]) -> _Learnt:
        """Wrap a fresh learnt clause with its LBD score.

        Must run *before* the backjump: the LBD is the number of distinct
        (non-root) decision levels among the literals, and the levels are
        only meaningful while the conflicting assignment is still on the
        trail.
        """
        cl = _Learnt(learnt)
        levels = {self._level[var_of(l)] for l in learnt}
        levels.discard(0)
        cl.lbd = max(1, len(levels))
        return cl

    # ------------------------------------------------------------------
    # learnt-clause database reduction
    # ------------------------------------------------------------------

    def _reduce_db(self) -> None:
        """Drop the worst half of the deletable learnt clauses.

        Glue clauses (LBD <= 2), binary clauses, and *locked* clauses
        (ones currently acting as the reason for a trail assignment) are
        always kept; the rest are ranked by (LBD, length) and the worse
        half is detached from both watchlists, each deletion mirrored as
        a ``d`` step in the proof log so RUP replay stays exact.
        """
        keep: list[_Learnt] = []
        deletable: list[_Learnt] = []
        for cl in self._learnts:
            if cl.lbd <= 2 or len(cl) <= 2 or any(
                    self._reason[var_of(l)] is cl for l in cl):
                keep.append(cl)
            else:
                deletable.append(cl)
        deletable.sort(key=lambda c: (c.lbd, len(c)))
        half = len(deletable) // 2
        keep.extend(deletable[:half])
        for cl in deletable[half:]:
            self._watches[self._enc(-cl[0])].remove(cl)
            self._watches[self._enc(-cl[1])].remove(cl)
            if self.proof is not None:
                self.proof.delete(cl)
            self.reduced_clauses += 1
        self._learnts = keep

    def _analyze_final(self, a: int) -> list[int]:
        """Given an assumption literal ``a`` that is currently false, compute
        a subset of the assumptions (including ``a``) that is unsatisfiable
        with the clause database.

        Sound because at the moment a false assumption is detected, every
        reason-less trail variable above level 0 is an assumption decision.
        """
        out = {a}
        v0 = var_of(a)
        if self._level[v0] == 0 or self.decision_level() == 0:
            return sorted(out, key=abs)
        seen = self._seen
        seen[v0] = True
        touched = [v0]
        for tlit in reversed(self.trail[self._trail_lim[0]:]):
            v = var_of(tlit)
            if not seen[v]:
                continue
            reason = self._reason[v]
            if reason is None:
                out.add(tlit)
            else:
                for q in reason:
                    qv = var_of(q)
                    if not seen[qv] and self._level[qv] > 0:
                        seen[qv] = True
                        touched.append(qv)
        for v in touched:
            seen[v] = False
        return sorted(out, key=abs)

    # ------------------------------------------------------------------
    # lemma integration (theory clauses, possibly during search)
    # ------------------------------------------------------------------

    def _integrate_lemma(self, lits: Sequence[int]) -> list[int] | None:
        """Add a clause mid-search.  Returns a conflicting clause to analyze
        (already positioned at the right decision level) or None."""
        cl = normalize_clause(lits)
        if cl is None:
            return None
        if self.proof is not None:
            # Theory lemmas are T-valid, not propositionally derivable;
            # ask the justifier for the parked certificate so the proof
            # checker can replay the lemma instead of trusting it.
            just = None
            if self.lemma_justifier is not None:
                just = self.lemma_justifier(cl)
            self.proof.lemma(cl, just)
        vals = [self.value(l) for l in cl]
        if any(v is True for v in vals):
            if len(cl) >= 2:
                self._sort_for_watch(cl)
                self._attach(cl)
            return None
        unassigned = [l for l, v in zip(cl, vals) if v is UNASSIGNED]
        if not unassigned:
            # Falsified: backjump so the conflict is at the max level.
            maxlvl = max(self.level_of(l) for l in cl)
            self._backjump(maxlvl)
            if len(cl) >= 2:
                self._sort_for_watch(cl)
                self._attach(cl)
            if maxlvl == 0 or all(self.level_of(l) == 0 for l in cl):
                self.ok = False
            return cl
        if len(unassigned) == 1:
            # Unit: backjump to the max level among the falsified literals.
            rest = [self.level_of(l) for l, v in zip(cl, vals) if v is False]
            lvl = max(rest) if rest else 0
            self._backjump(lvl)
            u = unassigned[0]
            if len(cl) >= 2:
                cl.remove(u)
                cl.insert(0, u)
                self._sort_for_watch(cl, keep_first=True)
                self._attach(cl)
                self._enqueue(u, cl)
            else:
                self._enqueue(u, None)
            return None
        self._sort_for_watch(cl)
        self._attach(cl)
        return None

    def _sort_for_watch(self, cl: list[int], keep_first: bool = False) -> None:
        """Place two good watch candidates at positions 0 and 1: unassigned
        or true literals first, then the most recently assigned."""

        def rank(lit: int) -> tuple[int, int]:
            v = self.value(lit)
            if v is UNASSIGNED:
                return (0, 0)
            if v is True:
                return (0, -self.level_of(lit))
            return (1, -self.level_of(lit))

        start = 1 if keep_first else 0
        rest = sorted(cl[start:], key=rank)
        cl[start:] = rest

    # ------------------------------------------------------------------
    # theory synchronization
    # ------------------------------------------------------------------

    def _theory_sync(self) -> list[int] | None:
        """Push new trail literals into the theory; returns conflict clause."""
        if self.theory is None:
            return None
        while self._th_head < len(self.trail):
            lit = self.trail[self._th_head]
            self._th_head += 1
            confl = self.theory.assert_lit(lit)
            if confl is not None:
                return self._integrate_lemma(confl) or self._propagate_after_lemma()
        return None

    def _propagate_after_lemma(self) -> list[int] | None:
        # After a lemma that turned out unit (or satisfied), continue BCP.
        return self._propagate()

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------

    def _pick_branch_var(self) -> int | None:
        while self._order:
            _, v = heapq.heappop(self._order)
            if self._assign[v] is UNASSIGNED:
                return v
        return None

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """Solve under the given assumption literals.

        On False, :attr:`core` holds a subset of the assumptions whose
        conjunction is already unsatisfiable with the clause database.
        """
        self.core = None
        if not self.ok:
            self.core = []
            if self.proof is not None:
                self.proof.final(())
            return False
        self._assumptions = list(assumptions)
        self._backjump(0)
        restart_count = 0
        conflicts_until_restart = 100 * _luby(restart_count + 1)
        conflict_budget_used = 0
        while True:
            confl = self._propagate()
            if confl is None:
                confl = self._theory_sync()
            if confl is not None:
                self.conflicts += 1
                conflict_budget_used += 1
                if self.decision_level() == 0:
                    self.ok = False
                    self.core = []
                    if self.proof is not None:
                        self.proof.final(())
                    return False
                learnt, bt = self._analyze(confl)
                self.learned += 1
                if self.proof is not None:
                    self.proof.derive(learnt)
                if len(learnt) >= 2:
                    learnt = self._learn(learnt)
                # Never backjump into the middle of re-deciding assumptions
                # incorrectly: bt may land inside the assumption prefix; the
                # decide loop below re-establishes assumptions as needed.
                self._backjump(bt)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        self.core = []
                        if self.proof is not None:
                            self.proof.final(())
                        return False
                else:
                    self._attach(learnt, learnt_db=True)
                    self._enqueue(learnt[0], learnt)
                self._var_inc /= self._var_decay
                continue
            # No boolean/theory conflict at this fixpoint: a safe spot to
            # shed inactive learnt clauses (growing conflict intervals).
            if self.conflicts >= self._next_reduce:
                self._reduce_interval += 64
                self._next_reduce = self.conflicts + self._reduce_interval
                if len(self._learnts) > 32:
                    self._reduce_db()
            if conflict_budget_used >= conflicts_until_restart:
                conflict_budget_used = 0
                restart_count += 1
                self.restarts += 1
                conflicts_until_restart = 100 * _luby(restart_count + 1)
                self._backjump(0)
                continue
            # Establish assumptions, then decide.
            next_lit = None
            dl = self.decision_level()
            while dl < len(self._assumptions):
                a = self._assumptions[dl]
                val = self.value(a)
                if val is True:
                    self._new_decision_level()
                    dl += 1
                    continue
                if val is False:
                    self.core = self._analyze_final(a)
                    if self.proof is not None:
                        # The negated core is RUP: asserting the core
                        # literals replays exactly the reason chain that
                        # _analyze_final closed over, ending in a conflict.
                        self.proof.final(tuple(-l for l in self.core))
                    return False
                next_lit = a
                break
            if next_lit is None:
                v = self._pick_branch_var()
                if v is None:
                    # Full assignment: final theory check.
                    if self.theory is not None:
                        lemmas = self.theory.check(final=True)
                        if lemmas:
                            confl2 = None
                            for lm in lemmas:
                                confl2 = self._integrate_lemma(lm)
                                if confl2 is not None:
                                    break
                            if confl2 is not None:
                                self.conflicts += 1
                                if self.decision_level() == 0:
                                    self.ok = False
                                    self.core = []
                                    if self.proof is not None:
                                        self.proof.final(())
                                    return False
                                learnt, bt = self._analyze(confl2)
                                self.learned += 1
                                if self.proof is not None:
                                    self.proof.derive(learnt)
                                if len(learnt) >= 2:
                                    learnt = self._learn(learnt)
                                self._backjump(bt)
                                if len(learnt) == 1:
                                    if not self._enqueue(learnt[0], None):
                                        self.ok = False
                                        self.core = []
                                        if self.proof is not None:
                                            self.proof.final(())
                                        return False
                                else:
                                    self._attach(learnt, learnt_db=True)
                                    self._enqueue(learnt[0], learnt)
                            continue
                    return True
                next_lit = v if self._phase[v] else -v
            self.decisions += 1
            self._new_decision_level()
            self._enqueue(next_lit, None)

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------

    def model_value(self, lit: int) -> bool:
        val = self.value(lit)
        if val is UNASSIGNED:
            raise RuntimeError("no model available (variable unassigned)")
        return val

    def model(self) -> dict[int, bool]:
        return {v: self._assign[v] for v in range(1, self.nvars + 1)
                if self._assign[v] is not UNASSIGNED}
