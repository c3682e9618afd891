"""Incremental path encoding of a prepared procedure.

One :class:`EncodedProcedure` is built per (procedure, configuration) and
then answers *all* the Dead/Fail queries of the almost-correct-spec search
through solver assumptions — the incremental design the paper's prototype
lacked ("the current prototype ... regenerates VC for every call to Z3 —
this is a major source of inefficiency").

The encoding is a forward symbolic execution in single-assignment style:

* the environment maps each program variable to the term holding its
  current value (entry variables keep their source names, so specification
  formulas over inputs encode against the same terms);
* assignments substitute terms directly (no intermediate equations);
* conditionals encode both branches and merge environments with
  term-level ``ite`` (purified later by the solver);
* each statement's *path condition* is named by a fresh boolean variable,
  giving per-location **reach literals** and per-assertion **fail
  literals** usable as SAT assumptions.

Failure-terminates semantics (§2.3, footnote 1): an input fails assertion
``a`` iff some execution reaches ``a``, violates it, and no earlier
assertion failed — expressed by assuming the negation of all earlier fail
literals (mutually exclusive branches are harmless: their path conditions
are disjoint).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

from ..lang.ast import (AssertStmt, AssignStmt, AssumeStmt, BinExpr,
                        BoolLit, Expr, Formula, FunAppExpr, HavocStmt,
                        IffExpr, IfStmt, ImpliesExpr, IntLit, IteExpr,
                        LocationStmt, MapAssignStmt, NegExpr, NotExpr,
                        OrExpr, AndExpr, PredAppExpr, Procedure, Program,
                        RelExpr, SelectExpr, SeqStmt, SkipStmt, Stmt,
                        StoreExpr, Type, VarExpr)
from ..smt.api import Solver
from ..smt.terms import Sort, Term, TermFactory


def procedure_fingerprint(program: Program, proc: Procedure) -> str:
    """Stable content hash of a *prepared* procedure in its program context.

    The digest covers everything the encoding (and hence every Dead/Fail
    answer) is a function of: the global variable environment, the
    uninterpreted-function signatures, and the full post-elaboration AST
    of the procedure (dataclass ``repr`` is structural and deterministic;
    location/assertion ids are assigned deterministically by
    ``instrument``).  Two procedures with equal fingerprints produce
    bit-identical encodings, so the fingerprint is a sound memoization
    key — used by the in-process baseline memo (`repro.core.deadfail`)
    and as the content-address of the persistent analysis cache
    (`repro.core.cache`).

    The procedure's *name* is deliberately excluded: nothing in the
    encoding depends on it (assert labels and ``lam$`` constants embed
    *callee* names, which are body content), so a procedure that moves
    to a new file or is renamed keeps its content address and its cache
    entry.  Callers that need the name rewrite it on the loaded report.
    """
    from dataclasses import replace
    h = hashlib.sha256()
    h.update(repr(sorted(program.globals.items())).encode())
    h.update(b"\x00")
    h.update(repr(sorted(program.functions.items())).encode())
    h.update(b"\x00")
    h.update(repr(replace(proc, name="")).encode())
    return h.hexdigest()


@dataclass(frozen=True)
class AssertEvent:
    aid: int
    label: str
    fail_lit: int       # SAT literal: "this assertion is reached and false"
    pass_lit: int       # SAT literal: "this assertion is reached and true"
    order: int          # program-order index of the event


@dataclass(frozen=True)
class LocEvent:
    loc_id: int
    describes: str
    reach_lit: int      # SAT literal: "this location is reached"
    order: int          # events (asserts and locations) share one ordering


class EncodedProcedure:
    """The queryable encoding of one prepared procedure."""

    def __init__(self, program: Program, proc: Procedure,
                 lia_budget: int = 20000, self_check: bool = False):
        if proc.body is None:
            raise ValueError(f"procedure {proc.name} has no body")
        self.program = program
        self.proc = proc
        self.factory = TermFactory()
        # self_check turns on certificate validation: every unsat answer
        # must carry a checker-accepted DRUP proof, every sat answer a
        # model satisfying all enabled assertions (CertificateError else).
        self.self_check = self_check
        self.solver = Solver(self.factory, lia_budget=lia_budget,
                             validate=self_check)
        self.entry_env: dict[str, Term] = {}
        self.assert_events: list[AssertEvent] = []
        self.loc_events: list[LocEvent] = []
        self._event_counter = itertools.count()
        self._name_counter = itertools.count()
        self._spec_cache: dict = {}
        var_types = dict(program.globals)
        var_types.update(proc.var_types)
        for name, ty in var_types.items():
            sort = Sort.MAP if ty == Type.MAP else Sort.INT
            self.entry_env[name] = self.factory.var(name, sort)
        env = dict(self.entry_env)
        pc = self.factory.true
        self._encode_stmt(proc.body, env, pc)

    def fingerprint(self) -> str:
        """:func:`procedure_fingerprint` of this encoding's procedure,
        computed once and cached (the AST ``repr`` walk is linear in the
        body and the fingerprint is consulted on every oracle birth)."""
        fp = getattr(self, "_fingerprint", None)
        if fp is None:
            fp = self._fingerprint = procedure_fingerprint(self.program,
                                                           self.proc)
        return fp

    # ------------------------------------------------------------------
    # naming helpers
    # ------------------------------------------------------------------

    def _name(self, t: Term) -> Term:
        """Bind a formula to a fresh boolean variable (idempotent for
        variables/constants)."""
        from ..smt.terms import Op
        if t.op is Op.VAR or t is self.factory.true or t is self.factory.false:
            return t
        b = self.factory.bool_var(f"pc!{next(self._name_counter)}")
        self.solver.add(self.factory.iff(b, t))
        return b

    def _lit(self, t: Term) -> int:
        return self.solver.lit_for(t)

    # ------------------------------------------------------------------
    # statement encoding
    # ------------------------------------------------------------------

    def _encode_stmt(self, s: Stmt, env: dict, pc: Term):
        f = self.factory
        if isinstance(s, SkipStmt):
            return env, pc
        if isinstance(s, LocationStmt):
            order = next(self._event_counter)
            self.loc_events.append(
                LocEvent(s.loc_id, s.describes, self._lit(pc), order))
            return env, pc
        if isinstance(s, AssertStmt):
            cond = self.encode_formula(s.formula, env)
            fail = self._name(f.and_(pc, f.not_(cond)))
            passed = self._name(f.and_(pc, cond))
            order = next(self._event_counter)
            label = s.label if s.label is not None else f"A{s.aid}"
            self.assert_events.append(
                AssertEvent(s.aid if s.aid is not None else order,
                            label, self._lit(fail), self._lit(passed),
                            order))
            # The path condition is NOT gated on the assertion holding:
            # location reachability ignores assertion failures, matching
            # the paper's implementation (its §5.1.3 CheckFieldF false
            # positive only arises under this semantics — see DESIGN.md).
            # First-failure semantics for Fail() is recovered through the
            # fail literals in fail_assumptions().
            return env, pc
        if isinstance(s, AssumeStmt):
            cond = self.encode_formula(s.formula, env)
            return env, self._name(f.and_(pc, cond))
        if isinstance(s, AssignStmt):
            env = dict(env)
            env[s.var] = self.encode_expr(s.expr, env)
            return env, pc
        if isinstance(s, MapAssignStmt):
            env = dict(env)
            env[s.map] = f.store(env[s.map],
                                 self.encode_expr(s.index, env),
                                 self.encode_expr(s.value, env))
            return env, pc
        if isinstance(s, HavocStmt):
            env = dict(env)
            for v in s.vars:
                sort = env[v].sort if v in env else Sort.INT
                env[v] = f.fresh_var(f"{v}!h", sort)
            return env, pc
        if isinstance(s, SeqStmt):
            for c in s.stmts:
                env, pc = self._encode_stmt(c, env, pc)
            return env, pc
        if isinstance(s, IfStmt):
            if s.cond is None:
                cond = f.fresh_var("nd", Sort.BOOL)
            else:
                cond = self._name(self.encode_formula(s.cond, env))
            pc_then0 = self._name(f.and_(pc, cond))
            env_then, pc_then = self._encode_stmt(s.then, dict(env), pc_then0)
            pc_els0 = self._name(f.and_(pc, f.not_(cond)))
            env_els, pc_els = self._encode_stmt(s.els, dict(env), pc_els0)
            merged = dict(env)
            for var in set(env_then) | set(env_els):
                tv = env_then.get(var, env.get(var))
                ev = env_els.get(var, env.get(var))
                if tv is ev:
                    merged[var] = tv
                else:
                    merged[var] = f.ite(cond, tv, ev)
            return merged, self._name(f.or_(pc_then, pc_els))
        raise ValueError(
            f"encoder handles the lowered core only, got {type(s).__name__}")

    # ------------------------------------------------------------------
    # expression / formula encoding
    # ------------------------------------------------------------------

    def encode_expr(self, e: Expr, env: dict | None = None) -> Term:
        f = self.factory
        env = env if env is not None else self.entry_env
        if isinstance(e, VarExpr):
            t = env.get(e.name)
            if t is None:
                raise KeyError(f"unbound variable {e.name!r} in {self.proc.name}")
            return t
        if isinstance(e, IntLit):
            return f.intconst(e.value)
        if isinstance(e, BinExpr):
            lv = self.encode_expr(e.lhs, env)
            rv = self.encode_expr(e.rhs, env)
            if e.op == "+":
                return f.add(lv, rv)
            if e.op == "-":
                return f.sub(lv, rv)
            return f.mul(lv, rv)
        if isinstance(e, NegExpr):
            return f.neg(self.encode_expr(e.arg, env))
        if isinstance(e, SelectExpr):
            return f.select(self.encode_expr(e.map, env),
                            self.encode_expr(e.index, env))
        if isinstance(e, StoreExpr):
            return f.store(self.encode_expr(e.map, env),
                           self.encode_expr(e.index, env),
                           self.encode_expr(e.value, env))
        if isinstance(e, FunAppExpr):
            return f.apply(e.name,
                           [self.encode_expr(a, env) for a in e.args],
                           Sort.INT)
        if isinstance(e, IteExpr):
            return f.ite(self.encode_formula(e.cond, env),
                         self.encode_expr(e.then, env),
                         self.encode_expr(e.els, env))
        raise AssertionError(f"unknown expr {e!r}")

    def encode_formula(self, fm: Formula, env: dict | None = None) -> Term:
        f = self.factory
        env = env if env is not None else self.entry_env
        if isinstance(fm, BoolLit):
            return f.boolconst(fm.value)
        if isinstance(fm, RelExpr):
            lv = self.encode_expr(fm.lhs, env)
            rv = self.encode_expr(fm.rhs, env)
            return {"==": f.eq, "!=": f.ne, "<": f.lt, "<=": f.le,
                    ">": f.gt, ">=": f.ge}[fm.op](lv, rv)
        if isinstance(fm, PredAppExpr):
            app = f.apply("pred$" + fm.name,
                          [self.encode_expr(a, env) for a in fm.args],
                          Sort.INT)
            return f.ne(app, f.intconst(0))
        if isinstance(fm, NotExpr):
            return f.not_(self.encode_formula(fm.arg, env))
        if isinstance(fm, AndExpr):
            return f.and_(*(self.encode_formula(a, env) for a in fm.args))
        if isinstance(fm, OrExpr):
            return f.or_(*(self.encode_formula(a, env) for a in fm.args))
        if isinstance(fm, ImpliesExpr):
            return f.implies(self.encode_formula(fm.lhs, env),
                             self.encode_formula(fm.rhs, env))
        if isinstance(fm, IffExpr):
            return f.iff(self.encode_formula(fm.lhs, env),
                         self.encode_formula(fm.rhs, env))
        raise AssertionError(f"unknown formula {fm!r}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def spec_indicator(self, fm: Formula) -> int:
        """An assumption literal equivalent to asserting the entry-state
        specification ``fm`` (cached)."""
        key = fm
        lit = self._spec_cache.get(key)
        if lit is None:
            lit = self.solver.lit_for(self.encode_formula(fm, self.entry_env))
            self._spec_cache[key] = lit
        return lit

    def fail_assumptions(self, aid: int) -> list[int]:
        """Assumptions meaning: assertion ``aid`` is the first failure."""
        out: list[int] = []
        target = None
        for ev in self.assert_events:
            if ev.aid == aid:
                target = ev
                break
        if target is None:
            raise KeyError(f"no assertion with id {aid}")
        for ev in self.assert_events:
            if ev.order < target.order:
                out.append(-ev.fail_lit)
        out.append(target.fail_lit)
        return out

    def reach_assumptions(self, loc_id: int,
                          through_failures: bool = True) -> list[int]:
        """Assumptions meaning: location ``loc_id`` is reached.

        With ``through_failures`` (the default, matching the paper's
        implementation) assertion failures do not block control flow for
        the purpose of reachability.  Pass ``False`` for the strict
        failure-terminates reading: the location must be reached with no
        earlier assertion failing.
        """
        target = None
        for ev in self.loc_events:
            if ev.loc_id == loc_id:
                target = ev
                break
        if target is None:
            raise KeyError(f"no location with id {loc_id}")
        out: list[int] = []
        if not through_failures:
            out = [-ev.fail_lit for ev in self.assert_events
                   if ev.order < target.order]
        out.append(target.reach_lit)
        return out

    def vc_lit(self) -> int:
        """A literal equivalent to "some assertion fails" (the VC of §4.1:
        satisfiable iff ``not wp(pr, true)`` is)."""
        if getattr(self, "_vc_lit", None) is not None:
            return self._vc_lit
        fails = [ev.fail_lit for ev in self.assert_events]
        if not fails:
            self._vc_lit = -self.solver.lit_for(self.factory.true)
            return self._vc_lit
        # build an OR over the fail literals at the SAT level
        v = self.solver.new_indicator()
        for lit in fails:
            self.solver.add_clause_lits([v, -lit])
        self.solver.add_clause_lits([-v] + fails)
        self._vc_lit = v
        return v
