"""User-facing SMT solver facade (a z3py-flavoured API).

Typical use::

    from repro.smt.api import Solver
    from repro.smt.terms import TermFactory

    f = TermFactory()
    x, y = f.int_var("x"), f.int_var("y")
    s = Solver(f)
    s.add(f.lt(x, y), f.lt(y, x))
    assert s.check() == "unsat"

The solver supports:

* ``add`` — assert a formula at the root level,
* ``add_guarded`` — assert ``indicator -> formula`` for assumption-based
  incremental querying,
* ``check(assumptions)`` — returns ``"sat"`` or ``"unsat"``,
* ``model_value`` — boolean value of a formula under the found model.

Array store terms are eagerly rewritten (see theories/arrays.py) and
term-level ites purified before CNF conversion.
"""

from __future__ import annotations

from time import perf_counter as _now
from typing import Iterable, Sequence

from .dpllt import TheoryCore
from .sat.solver import SatSolver, UNASSIGNED
from .sat.tseitin import CnfBuilder, purify_ites
from .terms import Sort, Term, TermFactory
from .theories.arrays import contains_select_over_store, eliminate_stores


class SolverError(RuntimeError):
    pass


class CertificateError(SolverError):
    """A solver answer failed its independent certificate check: an UNSAT
    proof was rejected by the standalone checker, or a SAT model did not
    satisfy every asserted formula."""


class Solver:
    def __init__(self, factory: TermFactory | None = None,
                 lia_budget: int = 20000, validate: bool = False):
        self.factory = factory if factory is not None else TermFactory()
        self.sat = SatSolver()
        self.cnf = CnfBuilder(self.factory, self.sat)
        self.theory = TheoryCore(self.factory, self.cnf, lia_budget=lia_budget)
        self.sat.theory = self.theory
        self._last_result: str | None = None
        # Self-checking mode: every "unsat" answer must carry a DRUP-style
        # proof accepted by repro.smt.proofcheck, and every "sat" answer a
        # model under which all asserted (and assumption-enabled guarded)
        # formulas evaluate to true.  CertificateError otherwise.
        self.validate = validate
        self._asserted: list[Term] = []
        self._guarded: dict[int, list[Term]] = {}
        self.last_model = None  # repro.smt.model.Model after a validated sat
        self.certificates = {"sat_checked": 0, "unsat_checked": 0,
                             "proof_steps": 0, "lemmas_checked": 0,
                             "lemmas_trusted": 0, "model_fallbacks": 0,
                             "check_wall": 0.0}
        self._proof_checker = None
        self._proof_pos = 0
        if validate:
            from .proofcheck import DrupChecker
            from .tuning import TUNING
            self.sat.enable_proof()
            # Checked theory lemmas: the theory layer emits a replayable
            # justification with every lemma (repro.smt.certify), the SAT
            # core attaches it to the "t" proof step, and the checker
            # rejects any unjustified lemma instead of trusting it.
            # Deferred verification checks the per-lemma math in one
            # flush() per check, after the RUP pass.
            self._checked_lemmas = TUNING.checked_theory_lemmas
            self._proof_checker = DrupChecker(
                require_justified=self._checked_lemmas, defer=True)
            if self._checked_lemmas:
                self.theory._certify = True
                self.sat.lemma_justifier = self.theory.pop_justification

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------

    def _prepare(self, formula: Term) -> Term:
        if formula.sort is not Sort.BOOL:
            raise SolverError("can only assert boolean terms")
        formula = eliminate_stores(self.factory, formula)
        formula, defs = purify_ites(self.factory, formula)
        for d in defs:
            d = eliminate_stores(self.factory, d)
            d2, extra = purify_ites(self.factory, d)
            assert not extra, "ite purification did not converge"
            if contains_select_over_store(d2):
                raise SolverError("unsupported nested store pattern")
            self.cnf.assert_formula(d2)
        if contains_select_over_store(formula):
            raise SolverError("unsupported nested store pattern")
        return formula

    # ------------------------------------------------------------------
    # assertions
    # ------------------------------------------------------------------

    def add(self, *formulas: Term) -> None:
        self.sat._backjump(0)
        for fm in formulas:
            if self.validate:
                # Keep the *original* term: evaluating it under the model
                # also cross-checks store elimination and ite purification.
                self._asserted.append(fm)
            self.cnf.assert_formula(self._prepare(fm))

    def lit_for(self, formula: Term) -> int:
        """A SAT literal equisatisfiable with ``formula`` (definitions added)."""
        self.sat._backjump(0)
        return self.cnf.lit_for(self._prepare(formula))

    def new_indicator(self) -> int:
        """A fresh boolean indicator literal for guarded assertions."""
        return self.sat.new_var()

    def add_guarded(self, indicator: int, formula: Term) -> None:
        """Assert ``indicator -> formula``; enable it by assuming
        ``indicator`` in :meth:`check`."""
        self.sat._backjump(0)
        if self.validate:
            self._guarded.setdefault(indicator, []).append(formula)
        self.cnf.assert_implication(indicator, self._prepare(formula))

    def add_clause_lits(self, lits: Iterable[int]) -> None:
        """Add a raw clause over already-created literals (used by ALL-SAT
        blocking)."""
        self.sat._backjump(0)
        self.sat.add_clause(list(lits))

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Combined search + theory counters (SAT core counters, theory
        timings, LIA trail and theory-lemma cache hit counts)."""
        out = self.sat.stats()
        out.update(self.theory.stats())
        return out

    def check(self, assumptions: Sequence[int] = ()) -> str:
        res = self.sat.solve(assumptions)
        self._last_result = "sat" if res else "unsat"
        if self.validate:
            self._replay_proof()
            if res:
                self._certify_sat()
                self.certificates["sat_checked"] += 1
            else:
                self.certificates["unsat_checked"] += 1
        return self._last_result

    # ------------------------------------------------------------------
    # certificates (validate mode)
    # ------------------------------------------------------------------

    def _replay_proof(self) -> None:
        """Feed the proof-log suffix since the previous check into the
        standalone checker.  Each learnt clause is verified RUP; an UNSAT
        answer additionally ends in a verified final clause."""
        from .proofcheck import ProofError
        checker = self._proof_checker
        log = self.sat.proof
        steps = log.steps
        t0 = _now()
        prev = (checker.theory_checked, checker.theory_trusted)
        while self._proof_pos < len(steps):
            step = steps[self._proof_pos]
            tag, lits = step[0], step[1]
            just = step[2] if len(step) > 2 else None
            try:
                checker.step(tag, lits, just)
            except ProofError as exc:
                raise CertificateError(
                    f"unsat certificate rejected at proof step "
                    f"{self._proof_pos}: {exc}") from None
            self._proof_pos += 1
            self.certificates["proof_steps"] += 1
        try:
            checker.flush()
        except ProofError as exc:
            raise CertificateError(
                f"unsat certificate rejected: {exc}") from None
        certs = self.certificates
        certs["lemmas_checked"] += checker.theory_checked - prev[0]
        certs["lemmas_trusted"] += checker.theory_trusted - prev[1]
        certs["check_wall"] += _now() - t0
        if self._last_result == "unsat":
            if not steps or steps[-1][0] != "f":
                raise CertificateError(
                    "unsat answer carries no final proof clause")

    def _certify_sat(self) -> None:
        """Re-evaluate every asserted formula (and every guarded formula
        whose indicator is true in the assignment) under an extracted
        theory model."""
        from .model import extract_model
        model = extract_model(self)
        if model is None:
            raise CertificateError("sat certificate: model extraction failed")
        for fm in self._asserted:
            if not model.eval_bool(fm):
                raise CertificateError(
                    "sat certificate: model falsifies asserted formula "
                    f"{fm!r}")
        for ind, fms in self._guarded.items():
            if self.sat.value(ind) is not True:
                continue
            for fm in fms:
                if not model.eval_bool(fm):
                    raise CertificateError(
                        "sat certificate: model falsifies guarded formula "
                        f"{fm!r} (indicator {ind})")
        self.last_model = model

    def check_formula(self, formula: Term,
                      assumptions: Sequence[int] = ()) -> str:
        """One-off satisfiability of ``formula`` conjoined with the context,
        without polluting the root level: the formula is guarded by a fresh
        indicator assumed for this call only."""
        ind = self.new_indicator()
        self.add_guarded(ind, formula)
        return self.check(list(assumptions) + [ind])

    @property
    def unsat_core(self) -> list[int] | None:
        return self.sat.core

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------

    def model_lit(self, lit: int) -> bool:
        if self._last_result != "sat":
            raise SolverError("no model: last check was not sat")
        return self.sat.model_value(lit)

    def model_atom(self, atom: Term) -> bool | None:
        """Boolean value of a registered atom; None if it was irrelevant."""
        if self._last_result != "sat":
            raise SolverError("no model: last check was not sat")
        var = self.cnf.atom_to_var.get(atom.tid)
        if var is None:
            return None
        val = self.sat.value(var)
        if val is UNASSIGNED:
            return None
        return bool(val)


def solve_formula(factory: TermFactory, formula: Term,
                  lia_budget: int = 20000, validate: bool = False) -> str:
    """Convenience one-shot satisfiability check."""
    s = Solver(factory, lia_budget=lia_budget, validate=validate)
    s.add(formula)
    return s.check()
