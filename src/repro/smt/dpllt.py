"""DPLL(T): glue between the CDCL core, the CNF builder, and the theories.

:class:`TheoryCore` implements the SAT solver's :class:`TheoryInterface`.
It parses assigned atoms into EUF and LIA facts, reports theory conflicts
as clauses over SAT literals, and performs Nelson–Oppen style equality
exchange between the two theories:

* EUF -> LIA: at check time, equalities between LIA-relevant terms that
  hold in the congruence closure are added as LIA equations whose premise
  tokens expand through :meth:`EufSolver.explain`.
* LIA -> EUF: at final check, for every pair of *interface terms* (integer
  terms occurring under a function symbol) the LIA solver is asked whether
  their equality is entailed; if so a lemma forcing the corresponding
  equality atom is emitted.

Backtracking uses per-literal watermarks into the theories' own undo
structures: the congruence closure keeps an op-coded undo trail (euf.py)
and the LIA solver a pushed-fact trail (lia.py), so a pop costs O(undone
changes) instead of a rebuild.

Two layers keep checks cheap across the queries of one sweep:

* every theory atom is parsed once (a per-signed-literal memo) and its
  linear fact is pushed into the LIA trail as the lit is asserted, so
  bound-propagation conflicts surface during the search and a theory
  check reuses the already-eliminated trail state;
* the *theory-lemma cache* memoizes final-check verdicts by the asserted
  theory-atom literal set: once a full assignment's atom set has been
  checked consistent, later queries in the same sweep that reach the same
  atom set skip the whole Nelson–Oppen exchange (the lemmas it would
  re-derive are already permanent clauses in the SAT database).  Only
  empty verdicts are cached — a lemma-producing check mutates solver
  state and must re-run.
"""

from __future__ import annotations

from time import perf_counter as _now

from .certify import justify_lemma
from .sat.solver import SatSolver, TheoryInterface
from .sat.tseitin import CnfBuilder
from .terms import Op, Sort, Term, TermFactory
from .theories.euf import EufSolver
from .theories.lia import LiaSolver


def linearize(t: Term) -> tuple[dict[int, int], int, dict[int, Term]]:
    """Decompose an Int term into (coeffs over opaque keys, constant, key terms).

    Keys are term ids of maximal non-arithmetic subterms; non-linear
    multiplication makes the whole product opaque.
    """
    coeffs: dict[int, int] = {}
    const = 0
    keys: dict[int, Term] = {}

    def go(node: Term, scale: int) -> None:
        nonlocal const
        op = node.op
        if op is Op.INTCONST:
            const += scale * node.value
        elif op is Op.ADD:
            go(node.args[0], scale)
            go(node.args[1], scale)
        elif op is Op.SUB:
            go(node.args[0], scale)
            go(node.args[1], -scale)
        elif op is Op.NEG:
            go(node.args[0], -scale)
        elif op is Op.MUL:
            a, b = node.args
            if a.op is Op.INTCONST:
                go(b, scale * a.value)
            elif b.op is Op.INTCONST:
                go(a, scale * b.value)
            else:  # non-linear: opaque
                _opaque(node, scale)
        else:
            _opaque(node, scale)

    def _opaque(node: Term, scale: int) -> None:
        keys[node.tid] = node
        nv = coeffs.get(node.tid, 0) + scale
        if nv:
            coeffs[node.tid] = nv
        else:
            coeffs.pop(node.tid, None)

    go(t, 1)
    return coeffs, const, keys


def _lin_diff(a: Term, b: Term) -> tuple[dict[int, int], int, dict[int, Term]]:
    ca, ka, terms_a = linearize(a)
    cb, kb, terms_b = linearize(b)
    coeffs = dict(ca)
    for k, v in cb.items():
        nv = coeffs.get(k, 0) - v
        if nv:
            coeffs[k] = nv
        else:
            coeffs.pop(k, None)
    terms_a.update(terms_b)
    return coeffs, ka - kb, terms_a


class TheoryCore(TheoryInterface):
    #: Final-verdict memo size cap (entries are small frozensets; the cap
    #: only exists to bound pathological sweeps).
    FINAL_MEMO_CAP = 200_000

    def __init__(self, factory: TermFactory, cnf: CnfBuilder,
                 lia_budget: int = 20000):
        self.factory = factory
        self.cnf = cnf
        self.euf = EufSolver()
        self.lia = LiaSolver(budget=lia_budget)
        self._lits: list[int] = []
        self._key_terms: dict[int, Term] = {}
        # int-equality atoms already strengthened with a trichotomy split
        self._split_done: set[int] = set()
        # --- incremental bookkeeping (per-lit watermarks) -------------
        self._euf_marks: list[int] = []
        self._lia_marks: list[int] = []
        self._key_added: list[list[int]] = []  # per-lit LIA key tids
        self._key_count: dict[int, int] = {}   # live LIA key multiset
        self._parse_memo: dict[int, tuple | None] = {}
        self._final_ok: set[frozenset] = set()
        # --- checked theory lemmas -------------------------------------
        # When api.py arms certification (validate mode with the
        # checked_theory_lemmas knob on), every emitted conflict clause
        # and lemma gets a checker-replayable justification reconstructed
        # by repro.smt.certify and parked here until the SAT core logs
        # the clause into the DRUP proof (SatSolver.lemma_justifier pulls
        # it back out by literal-set key).
        self._certify = False
        self._pending_just: dict[frozenset, tuple] = {}
        self.lemmas_replayed = 0
        self.timings = {"euf": 0.0, "lia": 0.0, "interface": 0.0}

    def stats(self) -> dict:
        """Theory-side counters, merged into the solver stats by api.py."""
        return {
            "lia_incremental_hits": self.lia.incremental_hits,
            "theory_lemmas_replayed": self.lemmas_replayed,
            "time_euf": round(self.timings["euf"], 6),
            "time_lia": round(self.timings["lia"], 6),
            "time_interface": round(self.timings["interface"], 6),
        }

    # ------------------------------------------------------------------
    # Checked theory lemmas
    # ------------------------------------------------------------------

    #: _pending_just size cap.  Entries are read with ``get`` (not pop):
    #: an identical clause re-derived later reuses the same justification,
    #: and the SAT core may normalize away the clause before asking.  The
    #: cap bounds pathological sweeps; on overflow the dict is cleared —
    #: losing a parked justification only matters for a clause logged
    #: *after* the overflow, and those are re-certified on re-derivation.
    PENDING_JUST_CAP = 4096

    def pop_justification(self, clause) -> tuple | None:
        """Justification parked for a theory clause (keyed on the literal
        set, so normalization does not lose it).  Wired by api.py as
        ``SatSolver.lemma_justifier``."""
        return self._pending_just.get(frozenset(clause))

    def _certified(self, clause: list[int], tokens=None,
                   prefer: str = "lia") -> list[int]:
        """Attach a checker-replayable justification to a freshly emitted
        theory clause.  No-op unless api.py armed certification; raises
        ``CertificateError`` when no justification can be reconstructed —
        a lemma we cannot certify must not silently enter the proof."""
        if self._certify:
            if len(self._pending_just) >= self.PENDING_JUST_CAP:
                self._pending_just.clear()
            just = justify_lemma(self, clause, tokens, prefer)
            self._pending_just[frozenset(clause)] = just
        return clause

    # ------------------------------------------------------------------
    # TheoryInterface
    # ------------------------------------------------------------------

    def assert_lit(self, lit: int) -> list[int] | None:
        self._lits.append(lit)
        self._euf_marks.append(self.euf.mark())
        self._lia_marks.append(self.lia.trail_mark())
        self._key_added.append([])
        t0 = _now()
        confl = self._assert_to_euf(lit)
        self.timings["euf"] += _now() - t0
        if confl is not None:
            return confl
        t0 = _now()
        confl = self._assert_to_lia(lit)
        self.timings["lia"] += _now() - t0
        return confl

    def undo_to(self, trail_len: int) -> None:
        if trail_len >= len(self._lits):
            return
        t0 = _now()
        self.euf.undo_to(self._euf_marks[trail_len])
        self.lia.pop_to(self._lia_marks[trail_len])
        for tids in self._key_added[trail_len:]:
            for tid in tids:
                n = self._key_count[tid] - 1
                if n:
                    self._key_count[tid] = n
                else:
                    del self._key_count[tid]
        del self._lits[trail_len:]
        del self._euf_marks[trail_len:]
        del self._lia_marks[trail_len:]
        del self._key_added[trail_len:]
        self._collect_cache = None
        self.timings["euf"] += _now() - t0

    def check(self, final: bool) -> list[list[int]]:
        if final:
            key = self._theory_key()
            if key in self._final_ok:
                self.lemmas_replayed += 1
                return []
        t0 = _now()
        ctx = None
        conflict = None
        if self.lia.trail_mark():
            key_terms = {tid: self._key_terms[tid]
                         for tid in self._key_count}
            euf_eqs = self._euf_equalities_for_lia(key_terms)
            ctx = self.lia.context(euf_eqs)
            conflict = ctx.feasible()
            if conflict is None:
                conflict = ctx.diseq_conflict()
        self.timings["lia"] += _now() - t0
        if conflict is not None:
            return [self._certified(self._premises_to_clause(conflict),
                                    conflict)]
        if not final:
            return []
        t0 = _now()
        try:
            splits = self._diseq_splits()
            if splits:
                return splits
            arrays = self._array_lemmas()
            if arrays:
                return arrays
            if ctx is not None and \
                    any(t[0] != "ne" for t in self.lia._trail):
                lemmas = self._interface_lemmas(ctx)
                if lemmas:
                    return lemmas
        finally:
            self.timings["interface"] += _now() - t0
        if len(self._final_ok) < self.FINAL_MEMO_CAP:
            self._final_ok.add(key)
        return []

    def _theory_key(self) -> frozenset:
        """The asserted theory-relevant literal set: the theory verdict is
        a function of exactly this set (plus persistent one-shot guards
        that only ever shrink the lemma output), which makes it the sound
        memo key for consistent final checks."""
        v2a = self.cnf.var_to_atom
        return frozenset(l for l in self._lits if abs(l) in v2a)

    def _array_lemmas(self) -> list[list[int]]:
        """Lazy read-over-write instantiation for *derived* store aliases.

        The eager rewrite in theories/arrays.py removes syntactic
        ``select(store(...), i)`` patterns, but a map variable can still
        become EUF-equal to a store term through an asserted map equality
        (the passive/Boogie encoding produces exactly those).  For every
        select whose map argument is congruent to ``store(b, i, v)``,
        instantiate::

            expl ∧ k = i  ->  select(m, k) = v
            expl ∧ k != i ->  select(m, k) = select(b, k)

        where ``expl`` explains ``m ~ store(b, i, v)``.  New terms/atoms
        recurse in later rounds; store chains are finite, so this
        terminates.
        """
        f = self.factory
        done: set[tuple[int, int]] = getattr(self, "_array_done", set())
        self._array_done = done
        classes = self.euf.equivalence_classes()
        by_root: dict[int, list[Term]] = classes
        lemmas: list[list[int]] = []
        selects = [t for t in self.euf.known_terms() if t.op is Op.SELECT]
        for sel in selects:
            m, k = sel.args
            root_members = None
            for members in by_root.values():
                if any(t.tid == m.tid for t in members):
                    root_members = members
                    break
            if root_members is None:
                continue
            for cand in root_members:
                if cand.op is not Op.STORE:
                    continue
                key = (sel.tid, cand.tid)
                if key in done:
                    continue
                done.add(key)
                b, i, v = cand.args
                expl = self.euf.explain(m, cand) if m is not cand else set()
                neg_expl = self._premises_to_clause(expl) if expl else []

                def lit_of(term: Term) -> int | None:
                    """SAT literal for a (possibly folded) atom or its
                    negation; None means constant-true (clause satisfied).
                    Uses atom registration only — safe mid-search."""
                    if term is f.true:
                        return None
                    if term is f.false:
                        return 0
                    if term.op is Op.NOT:
                        inner = lit_of(term.args[0])
                        if inner is None:
                            return 0
                        if inner == 0:
                            return None
                        return -inner
                    return self.cnf.atom_var(term)

                # lemma 1: expl && k == i -> sel = v
                lits = [lit_of(f.not_(f.eq(k, i))), lit_of(f.eq(sel, v))]
                if None not in lits:
                    lemmas.append(self._certified(
                        neg_expl + [l for l in lits if l != 0],
                        prefer="euf"))
                # lemma 2: expl && k != i -> sel = select(b, k)
                lits = [lit_of(f.eq(k, i)),
                        lit_of(f.eq(sel, f.select(b, k)))]
                if None not in lits:
                    lemmas.append(self._certified(
                        neg_expl + [l for l in lits if l != 0],
                        prefer="euf"))
        return lemmas

    def _diseq_splits(self) -> list[list[int]]:
        """Trichotomy lemmas for asserted integer disequalities.

        ``x != y`` is non-convex over the integers; pairwise reasoning in
        the LIA core misses combinations like ``0 <= x <= 1, x != 0,
        x != 1``.  Splitting ``x = y || x < y || y < x`` through the SAT
        solver restores completeness (each branch is convex).
        """
        lemmas: list[list[int]] = []
        for lit in self._lits:
            if lit >= 0:
                continue
            atom = self.cnf.var_to_atom.get(-lit)
            if atom is None or atom.op is not Op.EQ:
                continue
            if atom.args[0].sort is not Sort.INT:
                continue
            if atom.tid in self._split_done:
                continue
            self._split_done.add(atom.tid)
            a, b = atom.args
            lt1 = self.cnf.atom_var(self.factory.lt(a, b))
            lt2 = self.cnf.atom_var(self.factory.lt(b, a))
            lemmas.append(self._certified(
                [-lit if lit < 0 else lit, lt1, lt2]))
        return lemmas

    # ------------------------------------------------------------------
    # EUF side
    # ------------------------------------------------------------------

    def _assert_to_euf(self, lit: int) -> list[int] | None:
        atom = self.cnf.var_to_atom.get(abs(lit))
        if atom is None:
            return None
        op = atom.op
        premises = None
        if op is Op.EQ:
            a, b = atom.args
            if lit > 0:
                premises = self.euf.assert_eq(a, b, ("lit", lit))
            else:
                premises = self.euf.assert_diseq(a, b, ("lit", lit))
        elif op in (Op.LE, Op.LT):
            # Register the terms so congruence sees them; no EUF semantics.
            premises = self.euf.register_terms(atom.args)
        if premises is None:
            return None
        return self._certified(self._premises_to_clause(premises),
                               premises, prefer="euf")

    def _premises_to_clause(self, premises: set) -> list[int]:
        clause: list[int] = []
        seen: set[int] = set()
        stack = list(premises)
        while stack:
            tok = stack.pop()
            if tok in seen:
                continue
            seen.add(tok)
            if tok[0] == "lit":
                clause.append(-tok[1])
            elif tok[0] == "euf":
                a = self._key_terms[tok[1]]
                b = self._key_terms[tok[2]]
                stack.extend(self.euf.explain(a, b))
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown premise token {tok!r}")
        return sorted(set(clause), key=abs)

    # ------------------------------------------------------------------
    # LIA side
    # ------------------------------------------------------------------

    def _parse_lit(self, lit: int):
        """LIA fact for a signed literal, memoized forever: the atom map
        is append-only, so a signed lit always parses the same way.
        Returns ``(kind, coeffs, const, key_terms)`` or None; the caller
        must not mutate the returned dicts."""
        memo = self._parse_memo
        if lit in memo:
            return memo[lit]
        atom = self.cnf.var_to_atom.get(abs(lit))
        result = None
        if atom is not None:
            op = atom.op
            if op is Op.EQ and atom.args[0].sort is Sort.INT:
                coeffs, const, kt = _lin_diff(atom.args[0], atom.args[1])
                result = ("eq" if lit > 0 else "ne", coeffs, const, kt)
            elif op is Op.LE:
                coeffs, const, kt = _lin_diff(atom.args[0], atom.args[1])
                if lit > 0:
                    result = ("le", coeffs, const, kt)
                else:
                    neg = {k: -v for k, v in coeffs.items()}
                    result = ("le", neg, -const + 1, kt)
            elif op is Op.LT:
                coeffs, const, kt = _lin_diff(atom.args[0], atom.args[1])
                if lit > 0:
                    result = ("le", coeffs, const + 1, kt)
                else:
                    neg = {k: -v for k, v in coeffs.items()}
                    result = ("le", neg, -const, kt)
        memo[lit] = result
        return result

    def _assert_to_lia(self, lit: int) -> list[int] | None:
        parsed = self._parse_lit(lit)
        if parsed is None:
            return None
        kind, coeffs, const, kt = parsed
        if kt:
            added = self._key_added[-1]
            key_count = self._key_count
            for tid, term in kt.items():
                key_count[tid] = key_count.get(tid, 0) + 1
                added.append(tid)
                self._key_terms[tid] = term
        conflict = self.lia.push(kind, coeffs, const,
                                 frozenset({("lit", lit)}))
        if conflict is None:
            return None
        return self._certified(self._premises_to_clause(conflict), conflict)

    def _collect_lia(self):
        # cache per trail prefix: undo_to invalidates, so a matching
        # length means the prefix is unchanged since the cache was set
        cached = getattr(self, "_collect_cache", None)
        if cached is not None and cached[0] == len(self._lits):
            return cached[1]
        result = self._collect_lia_raw()
        self._collect_cache = (len(self._lits), result)
        return result

    def _collect_lia_raw(self):
        eqs, ineqs, diseqs = [], [], []
        lists = {"eq": eqs, "le": ineqs, "ne": diseqs}
        key_terms: dict[int, Term] = {}
        for lit in self._lits:
            parsed = self._parse_lit(lit)
            if parsed is None:
                continue
            kind, coeffs, const, kt = parsed
            key_terms.update(kt)
            lists[kind].append((coeffs, const, frozenset({("lit", lit)})))
        self._key_terms.update(key_terms)
        return eqs, ineqs, diseqs, key_terms

    def _euf_equalities_for_lia(self, key_terms: dict[int, Term]):
        """Equations implied by the congruence closure, as LIA constraints
        with ('euf', a, b) premises.

        Participants are LIA keys, integer constants, and *interface*
        terms (integer arguments of function/select/store applications).
        The last group matters even when LIA has no other constraint on
        the term: it can bridge an entailment chain that the interface
        propagation then turns into new congruences (e.g. with
        ``M[-1] = 0`` and ``M[0] = 0``, the class {M[M[-1]], M[0]} makes
        LIA entail ``M[M[-1]] = 0``, which merges ``M[M[M[-1]]]`` with
        ``M[0]``).  Restricting to these groups keeps the equation count
        proportional to the atoms rather than to all subterms."""
        interface_tids = self._interface_tids_cached()
        eqs = []
        classes = self.euf.equivalence_classes()
        for members in classes.values():
            # an equation chain can only contribute to an entailment if it
            # bottoms out in LIA-constrained terms, so classes without any
            # key/constant member are skipped wholesale
            if not any(m.tid in key_terms or m.op is Op.INTCONST
                       for m in members):
                continue
            relevant = [m for m in members
                        if m.sort is Sort.INT
                        and (m.tid in key_terms or m.op is Op.INTCONST
                             or m.tid in interface_tids)]
            if len(relevant) < 2:
                continue
            rep = relevant[0]
            self._key_terms[rep.tid] = rep
            for other in relevant[1:]:
                self._key_terms[other.tid] = other
                coeffs, const, _ = _lin_diff(rep, other)
                if not coeffs and const == 0:
                    continue
                prem = frozenset({("euf", rep.tid, other.tid)})
                eqs.append((coeffs, const, prem))
        return eqs

    # ------------------------------------------------------------------
    # LIA -> EUF interface equality propagation
    # ------------------------------------------------------------------

    # Above this many interface terms the quadratic entailment sweep is
    # curtailed (soundness is unaffected; only completeness of the rare
    # LIA->EUF propagation on huge procedures).
    MAX_INTERFACE_TERMS = 48

    def _interface_terms(self, key_terms: dict[int, Term],
                         cap: int | None = None) -> list[Term]:
        out = []
        for t in self.euf.known_terms():
            if t.op in (Op.APPLY, Op.SELECT, Op.STORE):
                for a in t.args:
                    if a.sort is Sort.INT:
                        out.append(a)
        # dedupe preserving order
        seen: set[int] = set()
        uniq = []
        for t in out:
            if t.tid not in seen:
                seen.add(t.tid)
                uniq.append(t)
        limit = cap if cap is not None else self.MAX_INTERFACE_TERMS
        return uniq[:limit] if limit else uniq

    def _interface_tids_cached(self) -> set[int]:
        """Uncapped interface-term ids, recomputed only when the EUF term
        universe changes.  Keyed on the EUF *generation* counter — a bare
        term count would go stale once undo can shrink and re-grow the
        universe to the same size with different terms."""
        n = self.euf.generation
        cached = getattr(self, "_iface_cache", None)
        if cached is not None and cached[0] is self.euf and cached[1] == n:
            return cached[2]
        tids = {t.tid for t in self._interface_terms({}, cap=0)}
        self._iface_cache = (self.euf, n, tids)
        return tids

    def _interface_lemmas(self, ctx) -> list[list[int]]:
        """LIA -> EUF interface-equality propagation: the composed LIA
        context is built once and probed per pair of interface terms."""
        key_terms = {tid: self._key_terms[tid] for tid in self._key_count}
        interface = self._interface_terms(key_terms)
        lemmas: list[list[int]] = []
        for i in range(len(interface)):
            for j in range(i + 1, len(interface)):
                x, y = interface[i], interface[j]
                if self.euf.are_equal(x, y):
                    continue
                coeffs, const, _ = _lin_diff(x, y)
                prem = ctx.entails_eq(coeffs, const)
                if prem is None:
                    continue
                atom = self.factory.eq(x, y)
                if atom is self.factory.true:
                    continue
                eq_lit = self.cnf.atom_var(atom)
                clause = self._premises_to_clause(prem)
                clause.append(eq_lit)
                lemmas.append(self._certified(
                    clause, set(prem) | {("lit", -eq_lit)}))
        return lemmas
