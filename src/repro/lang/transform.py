"""Program transformations that lower the surface language to the paper's
loop-free, call-free core (§2.1) and instrument it for the Dead/Fail
analysis (§2.3).

Pipeline (see :func:`prepare_procedure`):

1. **Call elaboration** — ``call r := pr(e)`` becomes
   ``assert pre[e/x]; r, gl := lam$l$pr$r, lam$l$pr$gl; assume post[r/ret]``
   with fresh symbolic constants unique to the call site, exactly as §2.1.
   Under the *havoc-returns* abstraction (§4.4.3) the fresh-constant
   assignments become havocs instead.
2. **Loop unrolling** — ``while`` is unrolled ``depth`` times (the paper
   uses 2); the tail beyond the last unrolling assumes the exit condition.
3. **Return elimination** — continuation rewriting duplicates the
   post-``if`` continuation into both branches so that ``return`` becomes
   the end of the statement tree.
4. **Instrumentation** — assign stable ids to assertions in program order
   and insert :class:`LocationStmt` markers immediately inside then/else
   branches and after each assume (§2.3's location set).
"""

from __future__ import annotations

from dataclasses import replace

from .ast import (AssertStmt, AssignStmt, AssumeStmt, BoolLit, CallStmt,
                  Formula, HavocStmt, IfStmt, LocationStmt, MapAssignStmt,
                  Procedure, Program, ReturnStmt, SeqStmt, SkipStmt, Stmt,
                  Type, VarExpr, WhileStmt, mk_not, seq)
from .subst import subst_formula


LAMBDA_PREFIX = "lam$"


def lambda_const(call_site: int, callee: str, var: str) -> str:
    """Name of the fresh symbolic constant ``lam$<site>$<callee>$<var>``."""
    return f"{LAMBDA_PREFIX}{call_site}${callee}${var}"


def is_lambda_const(name: str) -> bool:
    return name.startswith(LAMBDA_PREFIX)


# ======================================================================
# call elaboration
# ======================================================================


class CallElaborator:
    """Replaces call statements with their contract semantics.

    ``havoc_returns=True`` activates the §4.4.3 abstraction: variables
    modified by the callee are havocked instead of bound to fresh
    symbolic constants.
    """

    def __init__(self, program: Program, havoc_returns: bool = False):
        self.program = program
        self.havoc_returns = havoc_returns
        self._site = 0
        # name -> Type for lam$ constants introduced (callers must add
        # them to the procedure's var_types)
        self.new_consts: dict = {}

    def elaborate(self, s: Stmt) -> Stmt:
        if isinstance(s, SeqStmt):
            return seq(*(self.elaborate(c) for c in s.stmts))
        if isinstance(s, IfStmt):
            return IfStmt(s.cond, self.elaborate(s.then), self.elaborate(s.els))
        if isinstance(s, WhileStmt):
            return WhileStmt(s.cond, self.elaborate(s.body))
        if isinstance(s, CallStmt):
            return self._elaborate_call(s)
        return s

    def _elaborate_call(self, s: CallStmt) -> Stmt:
        self._site += 1
        site = self._site
        callee = self.program.procedures[s.callee]
        param_map = {p: a for p, a in zip(callee.params, s.args)}
        out: list[Stmt] = []
        # assert pre[e/x]
        pre = subst_formula(callee.requires, param_map)
        if not (isinstance(pre, BoolLit) and pre.value):
            out.append(AssertStmt(pre, label=f"pre${site}${s.callee}"))
        # bind modified globals and returns
        targets: list[tuple[str, str, str]] = []  # (target var, role, type)
        for g in callee.modifies:
            targets.append((g, g, self.program.globals[g]))
        ret_map: dict = {}
        for r, x in zip(callee.returns, s.lhs):
            targets.append((x, r, callee.var_types[r]))
            ret_map[r] = VarExpr(x)
        if self.havoc_returns:
            if targets:
                out.append(HavocStmt(tuple(t for t, _, _ in targets)))
        else:
            for target, role, ty in targets:
                cname = lambda_const(site, s.callee, role)
                self.new_consts[cname] = ty
                out.append(AssignStmt(target, VarExpr(cname)))
        # assume post[r/ret]  (also renames returns to the bound lhs vars)
        post = subst_formula(subst_formula(callee.ensures, param_map), ret_map)
        if not (isinstance(post, BoolLit) and post.value):
            out.append(AssumeStmt(post))
        return seq(*out)


def spec_stub(proc: Procedure) -> Procedure:
    """``proc`` as a body-less declaration: the slice a
    :class:`CallElaborator` inlines into callers and a caller's
    typecheck reads (params, returns and their types, ``requires``,
    ``ensures``, ``modifies``), which is also exactly what
    :func:`repro.core.interproc.spec_fingerprint` hashes.  Idempotent,
    and a caller prepares identically against the stub."""
    iface = set(proc.params) | set(proc.returns)
    return replace(proc, var_types={v: t for v, t in proc.var_types.items()
                                    if v in iface},
                   locals=(), body=None)


def elaborate_calls(program: Program, proc: Procedure,
                    havoc_returns: bool = False) -> Procedure:
    """Elaborate all calls in ``proc``; lam$ constants become extra
    (never-assigned) variables of the procedure."""
    if proc.body is None:
        return proc
    elab = CallElaborator(program, havoc_returns=havoc_returns)
    body = elab.elaborate(proc.body)
    var_types = dict(proc.var_types)
    var_types.update(elab.new_consts)
    return replace(proc, body=body, var_types=var_types)


# ======================================================================
# loop unrolling
# ======================================================================


def unroll_loops(s: Stmt, depth: int = 2) -> Stmt:
    """Unroll every while loop ``depth`` times.

    The unrolling of ``while (c) body`` is ``depth`` nested
    ``if (c) { body ... }`` with a final ``assume !c`` tail, matching the
    under-approximate-but-total treatment the paper's experiments use
    ("for each procedure, we unroll the loops twice").  Non-deterministic
    loops get a plain exit (no assumption needed).
    """
    if isinstance(s, SeqStmt):
        return seq(*(unroll_loops(c, depth) for c in s.stmts))
    if isinstance(s, IfStmt):
        return IfStmt(s.cond, unroll_loops(s.then, depth), unroll_loops(s.els, depth))
    if isinstance(s, WhileStmt):
        body = unroll_loops(s.body, depth)
        if s.cond is None:
            tail: Stmt = SkipStmt()
            for _ in range(depth):
                tail = IfStmt(None, seq(body, tail), SkipStmt())
            return tail
        tail = AssumeStmt(mk_not(s.cond))
        for _ in range(depth):
            tail = IfStmt(s.cond, seq(body, tail), SkipStmt())
        return tail
    return s


# ======================================================================
# return elimination
# ======================================================================


def eliminate_returns(s: Stmt) -> Stmt:
    """Rewrite so that no ``return`` remains: the continuation of each
    statement is pushed into both branches of conditionals containing a
    return, and statements after an unconditional return are dropped."""
    out, _ = _elim(s, SkipStmt())
    return out


def _elim(s: Stmt, cont: Stmt) -> tuple[Stmt, bool]:
    """Returns (rewritten statement incorporating ``cont``, True if the
    continuation was consumed — i.e. every path through the result already
    includes ``cont`` or returns)."""
    if isinstance(s, ReturnStmt):
        return SkipStmt(), True
    if isinstance(s, SeqStmt):
        # Fold right: the continuation of stmts[i] is the rewritten suffix.
        acc: Stmt = cont
        for st in reversed(s.stmts):
            rewritten, used = _elim(st, acc)
            acc = rewritten if used else seq(rewritten, acc)
        return acc, True
    if isinstance(s, IfStmt):
        if _has_return(s):
            then, tu = _elim(s.then, cont)
            if not tu:
                then = seq(then, cont)
            els, eu = _elim(s.els, cont)
            if not eu:
                els = seq(els, cont)
            return IfStmt(s.cond, then, els), True
        return s, False
    if isinstance(s, WhileStmt):
        if _has_return(s.body):
            raise ValueError("return inside a loop: unroll loops first")
        return s, False
    return s, False


def _has_return(s: Stmt) -> bool:
    if isinstance(s, ReturnStmt):
        return True
    if isinstance(s, SeqStmt):
        return any(_has_return(c) for c in s.stmts)
    if isinstance(s, IfStmt):
        return _has_return(s.then) or _has_return(s.els)
    if isinstance(s, WhileStmt):
        return _has_return(s.body)
    return False


# ======================================================================
# instrumentation
# ======================================================================


class _Instrumenter:
    def __init__(self) -> None:
        self.next_aid = 0
        self.next_loc = 0

    def run(self, s: Stmt) -> Stmt:
        if isinstance(s, AssertStmt):
            aid = self.next_aid
            self.next_aid += 1
            label = s.label if s.label is not None else f"A{aid}"
            return replace(s, aid=aid, label=label)
        if isinstance(s, AssumeStmt):
            loc = LocationStmt(self._loc(), describes="after-assume")
            return seq(s, loc)
        if isinstance(s, SeqStmt):
            return seq(*(self.run(c) for c in s.stmts))
        if isinstance(s, IfStmt):
            then_loc = LocationStmt(self._loc(), describes="then")
            then = seq(then_loc, self.run(s.then))
            els_loc = LocationStmt(self._loc(), describes="else")
            els = seq(els_loc, self.run(s.els))
            return IfStmt(s.cond, then, els)
        if isinstance(s, WhileStmt):
            raise ValueError("instrument after unrolling loops")
        if isinstance(s, (CallStmt, ReturnStmt)):
            raise ValueError("instrument after elaboration/return removal")
        return s

    def _loc(self) -> int:
        loc = self.next_loc
        self.next_loc += 1
        return loc


def instrument(s: Stmt) -> Stmt:
    """Assign assertion ids and insert location markers (idempotent only if
    applied to an uninstrumented tree).

    Besides the branch and after-assume locations of §2.3, procedure entry
    gets a marker so the special case of §3.1 — a specification that
    empties the input space makes *every* statement dead — is observable
    even in straight-line procedures.
    """
    inst = _Instrumenter()
    entry = LocationStmt(inst._loc(), describes="entry")
    return seq(entry, inst.run(s))


# ======================================================================
# one-call pipeline
# ======================================================================


def prepare_procedure(program: Program, proc: Procedure,
                      havoc_returns: bool = False,
                      unroll_depth: int = 2) -> Procedure:
    """Lower ``proc`` to the instrumented analyzable core."""
    proc = elaborate_calls(program, proc, havoc_returns=havoc_returns)
    if proc.body is None:
        return proc
    body = unroll_loops(proc.body, depth=unroll_depth)
    body = eliminate_returns(body)
    body = instrument(body)
    return replace(proc, body=body)
