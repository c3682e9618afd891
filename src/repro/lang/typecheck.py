"""Sort checking for programs: every expression is Int- or Map-sorted and
used consistently; statements reference declared variables only."""

from __future__ import annotations

from .ast import (AndExpr, AssertStmt, AssignStmt, AssumeStmt, BinExpr,
                  BoolLit, CallStmt, Expr, Formula, FunAppExpr, HavocStmt,
                  IffExpr, IfStmt, ImpliesExpr, IntLit, IteExpr,
                  LocationStmt, MapAssignStmt, NegExpr, NotExpr, OrExpr,
                  PredAppExpr, Procedure, Program, RelExpr, ReturnStmt,
                  SelectExpr, SeqStmt, SkipStmt, Stmt, StoreExpr, Type,
                  VarExpr, WhileStmt)


class TypeError_(TypeError):
    """A sort error in a program (named to avoid shadowing the builtin)."""


class TypeChecker:
    def __init__(self, program: Program):
        self.program = program

    def check_program(self) -> None:
        for proc in self.program.procedures.values():
            self.check_procedure(proc)

    # ------------------------------------------------------------------

    def _env_for(self, proc: Procedure) -> dict:
        env = dict(self.program.globals)
        env.update(proc.var_types)
        return env

    def check_procedure(self, proc: Procedure) -> None:
        env = self._env_for(proc)
        self.check_formula(proc.requires, env, f"{proc.name} requires")
        self.check_formula(proc.ensures, env, f"{proc.name} ensures")
        for m in proc.modifies:
            if m not in self.program.globals:
                raise TypeError_(
                    f"{proc.name}: modifies lists non-global {m!r}")
        if proc.body is not None:
            self.check_stmt(proc.body, env, proc)

    # ------------------------------------------------------------------

    def check_stmt(self, s: Stmt, env: dict, proc: Procedure) -> None:
        if isinstance(s, (SkipStmt, ReturnStmt, LocationStmt)):
            return
        if isinstance(s, (AssertStmt, AssumeStmt)):
            self.check_formula(s.formula, env, proc.name)
            return
        if isinstance(s, AssignStmt):
            ty = self._var(s.var, env, proc.name)
            ety = self.check_expr(s.expr, env, proc.name)
            if ty != ety:
                raise TypeError_(
                    f"{proc.name}: assigning {ety} expression to {ty} var {s.var!r}")
            return
        if isinstance(s, MapAssignStmt):
            ty = self._var(s.map, env, proc.name)
            if ty != Type.MAP:
                raise TypeError_(f"{proc.name}: indexing non-map {s.map!r}")
            self._want_int(s.index, env, proc.name)
            self._want_int(s.value, env, proc.name)
            return
        if isinstance(s, HavocStmt):
            for v in s.vars:
                self._var(v, env, proc.name)
            return
        if isinstance(s, SeqStmt):
            for c in s.stmts:
                self.check_stmt(c, env, proc)
            return
        if isinstance(s, IfStmt):
            if s.cond is not None:
                self.check_formula(s.cond, env, proc.name)
            self.check_stmt(s.then, env, proc)
            self.check_stmt(s.els, env, proc)
            return
        if isinstance(s, WhileStmt):
            if s.cond is not None:
                self.check_formula(s.cond, env, proc.name)
            self.check_stmt(s.body, env, proc)
            return
        if isinstance(s, CallStmt):
            callee = self.program.procedures.get(s.callee)
            if callee is None:
                raise TypeError_(f"{proc.name}: call to unknown procedure {s.callee!r}")
            if len(s.args) != len(callee.params):
                raise TypeError_(
                    f"{proc.name}: call to {s.callee} with {len(s.args)} args, "
                    f"expected {len(callee.params)}")
            for a, p in zip(s.args, callee.params):
                aty = self.check_expr(a, env, proc.name)
                pty = callee.var_types[p]
                if aty != pty:
                    raise TypeError_(
                        f"{proc.name}: argument {a!r} has sort {aty}, "
                        f"{s.callee} expects {pty}")
            if len(s.lhs) != len(callee.returns):
                raise TypeError_(
                    f"{proc.name}: call to {s.callee} binds {len(s.lhs)} "
                    f"results, procedure returns {len(callee.returns)}")
            for x, r in zip(s.lhs, callee.returns):
                xty = self._var(x, env, proc.name)
                rty = callee.var_types[r]
                if xty != rty:
                    raise TypeError_(
                        f"{proc.name}: result var {x!r} has sort {xty}, "
                        f"{s.callee} returns {rty}")
            return
        raise AssertionError(f"unknown statement {s!r}")

    # ------------------------------------------------------------------

    def check_formula(self, f: Formula, env: dict, where: str) -> None:
        if isinstance(f, BoolLit):
            return
        if isinstance(f, RelExpr):
            lty = self.check_expr(f.lhs, env, where)
            rty = self.check_expr(f.rhs, env, where)
            if f.op in ("<", "<=", ">", ">=") and (lty != Type.INT or rty != Type.INT):
                raise TypeError_(f"{where}: ordering on non-int operands")
            if lty != rty:
                raise TypeError_(f"{where}: comparison of {lty} and {rty}")
            return
        if isinstance(f, PredAppExpr):
            for a in f.args:
                self._want_int(a, env, where)
            return
        if isinstance(f, NotExpr):
            self.check_formula(f.arg, env, where)
            return
        if isinstance(f, (AndExpr, OrExpr)):
            for a in f.args:
                self.check_formula(a, env, where)
            return
        if isinstance(f, (ImpliesExpr, IffExpr)):
            self.check_formula(f.lhs, env, where)
            self.check_formula(f.rhs, env, where)
            return
        raise AssertionError(f"unknown formula {f!r}")

    def check_expr(self, e: Expr, env: dict, where: str) -> str:
        if isinstance(e, VarExpr):
            return self._var(e.name, env, where)
        if isinstance(e, IntLit):
            return Type.INT
        if isinstance(e, BinExpr):
            self._want_int(e.lhs, env, where)
            self._want_int(e.rhs, env, where)
            return Type.INT
        if isinstance(e, NegExpr):
            self._want_int(e.arg, env, where)
            return Type.INT
        if isinstance(e, SelectExpr):
            mty = self.check_expr(e.map, env, where)
            if mty != Type.MAP:
                raise TypeError_(f"{where}: selecting from non-map")
            self._want_int(e.index, env, where)
            return Type.INT
        if isinstance(e, StoreExpr):
            mty = self.check_expr(e.map, env, where)
            if mty != Type.MAP:
                raise TypeError_(f"{where}: storing into non-map")
            self._want_int(e.index, env, where)
            self._want_int(e.value, env, where)
            return Type.MAP
        if isinstance(e, FunAppExpr):
            arity = self.program.functions.get(e.name)
            if arity is not None and arity != len(e.args):
                raise TypeError_(
                    f"{where}: function {e.name} applied to {len(e.args)} "
                    f"args, declared with {arity}")
            for a in e.args:
                self._want_int(a, env, where)
            return Type.INT
        if isinstance(e, IteExpr):
            self.check_formula(e.cond, env, where)
            lty = self.check_expr(e.then, env, where)
            rty = self.check_expr(e.els, env, where)
            if lty != rty:
                raise TypeError_(f"{where}: ite branches of different sorts")
            return lty
        raise AssertionError(f"unknown expr {e!r}")

    # ------------------------------------------------------------------

    def _var(self, name: str, env: dict, where: str) -> str:
        ty = env.get(name)
        if ty is None:
            raise TypeError_(f"{where}: undeclared variable {name!r}")
        return ty

    def _want_int(self, e: Expr, env: dict, where: str) -> None:
        if self.check_expr(e, env, where) != Type.INT:
            raise TypeError_(f"{where}: expected int expression, got map")


def typecheck(program: Program, procedures=None) -> Program:
    """Check the whole program, or only the ``procedures`` named
    (against all of the program's declarations); returns it unchanged
    for chaining."""
    checker = TypeChecker(program)
    if procedures is None:
        checker.check_program()
    else:
        for name in procedures:
            checker.check_procedure(program.procedures[name])
    return program
