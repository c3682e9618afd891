"""AST for the paper's simple programming language (§2.1).

The language is the loop-free, call-free core of Figure 3 — ``skip``,
``assert``, ``assume``, assignment, ``havoc``, sequencing, conditionals —
extended with the *surface* constructs the paper compiles away before
analysis: ``while`` loops (unrolled, §5), procedure ``call`` (elaborated to
contract asserts/assumes with fresh ``lam$`` constants, §2.1), and
``return`` (eliminated by continuation rewriting).

Expressions are integer- or map-sorted; formulas are a separate hierarchy.
All nodes are immutable dataclasses, so subtrees can be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


# ======================================================================
# types
# ======================================================================


class Type:
    INT = "int"
    MAP = "[int]int"


# ======================================================================
# expressions (int / map sorted)
# ======================================================================


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class VarExpr(Expr):
    name: str


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class BinExpr(Expr):
    op: str  # '+', '-', '*'
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class NegExpr(Expr):
    arg: Expr


@dataclass(frozen=True)
class SelectExpr(Expr):
    map: Expr
    index: Expr


@dataclass(frozen=True)
class StoreExpr(Expr):
    map: Expr
    index: Expr
    value: Expr


@dataclass(frozen=True)
class FunAppExpr(Expr):
    """Application of an uninterpreted integer function."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class IteExpr(Expr):
    """Conditional expression; produced by write-elimination rewriting."""

    cond: "Formula"
    then: Expr
    els: Expr


# ======================================================================
# formulas
# ======================================================================


@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class BoolLit(Formula):
    value: bool


@dataclass(frozen=True)
class RelExpr(Formula):
    op: str  # '==', '!=', '<', '<=', '>', '>='
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class PredAppExpr(Formula):
    """Application of an uninterpreted predicate."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class NotExpr(Formula):
    arg: Formula


@dataclass(frozen=True)
class AndExpr(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class OrExpr(Formula):
    args: tuple[Formula, ...]


@dataclass(frozen=True)
class ImpliesExpr(Formula):
    lhs: Formula
    rhs: Formula


@dataclass(frozen=True)
class IffExpr(Formula):
    lhs: Formula
    rhs: Formula


TRUE = BoolLit(True)
FALSE = BoolLit(False)


def mk_and(*args: Formula) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, BoolLit):
            if not a.value:
                return FALSE
            continue
        if isinstance(a, AndExpr):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndExpr(tuple(flat))


def mk_or(*args: Formula) -> Formula:
    flat: list[Formula] = []
    for a in args:
        if isinstance(a, BoolLit):
            if a.value:
                return TRUE
            continue
        if isinstance(a, OrExpr):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrExpr(tuple(flat))


def mk_not(a: Formula) -> Formula:
    if isinstance(a, BoolLit):
        return BoolLit(not a.value)
    if isinstance(a, NotExpr):
        return a.arg
    return NotExpr(a)


def mk_implies(a: Formula, b: Formula) -> Formula:
    if isinstance(a, BoolLit):
        return b if a.value else TRUE
    if isinstance(b, BoolLit):
        return TRUE if b.value else mk_not(a)
    return ImpliesExpr(a, b)


# ======================================================================
# statements
# ======================================================================


@dataclass(frozen=True)
class Stmt:
    pass


@dataclass(frozen=True)
class SkipStmt(Stmt):
    pass


@dataclass(frozen=True)
class AssertStmt(Stmt):
    formula: Formula
    label: str | None = None
    # Stable identity assigned by instrument(); None before instrumentation.
    aid: int | None = None


@dataclass(frozen=True)
class AssumeStmt(Stmt):
    formula: Formula


@dataclass(frozen=True)
class AssignStmt(Stmt):
    var: str
    expr: Expr


@dataclass(frozen=True)
class MapAssignStmt(Stmt):
    """``M[i] := e`` — sugar for ``M := store(M, i, e)``."""

    map: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class HavocStmt(Stmt):
    vars: tuple[str, ...]


@dataclass(frozen=True)
class SeqStmt(Stmt):
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True)
class IfStmt(Stmt):
    """``cond is None`` encodes the non-deterministic choice ``if (*)``."""

    cond: Formula | None
    then: Stmt
    els: Stmt


@dataclass(frozen=True)
class WhileStmt(Stmt):
    """Surface construct; removed by :func:`repro.lang.transform.unroll_loops`."""

    cond: Formula | None
    body: Stmt


@dataclass(frozen=True)
class CallStmt(Stmt):
    """Surface construct; removed by call elaboration (§2.1)."""

    lhs: tuple[str, ...]
    callee: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    """Surface construct; removed by continuation rewriting."""


@dataclass(frozen=True)
class LocationStmt(Stmt):
    """A reachability marker (semantically ``skip``).

    Inserted by instrumentation immediately inside then/else branches and
    after each assume, per §2.3's definition of the location set.
    """

    loc_id: int
    describes: str = ""


def seq(*stmts: Stmt) -> Stmt:
    flat: list[Stmt] = []
    for s in stmts:
        if isinstance(s, SkipStmt):
            continue
        if isinstance(s, SeqStmt):
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if not flat:
        return SkipStmt()
    if len(flat) == 1:
        return flat[0]
    return SeqStmt(tuple(flat))


# ======================================================================
# procedures and programs
# ======================================================================


@dataclass(frozen=True)
class Procedure:
    name: str
    params: tuple[str, ...]
    returns: tuple[str, ...]
    # name -> Type.INT | Type.MAP for params, returns and locals
    var_types: dict = field(default_factory=dict)
    locals: tuple[str, ...] = ()
    requires: Formula = TRUE
    ensures: Formula = TRUE
    modifies: tuple[str, ...] = ()
    body: Stmt | None = None  # None: external (spec only)

    def with_body(self, body: Stmt) -> "Procedure":
        return replace(self, body=body)


@dataclass(frozen=True)
class Program:
    # name -> Type
    globals: dict = field(default_factory=dict)
    # name -> arity (uninterpreted int functions)
    functions: dict = field(default_factory=dict)
    procedures: dict = field(default_factory=dict)  # name -> Procedure

    def proc(self, name: str) -> Procedure:
        return self.procedures[name]


# ======================================================================
# traversal helpers
# ======================================================================


def stmt_children(s: Stmt) -> tuple[Stmt, ...]:
    if isinstance(s, SeqStmt):
        return s.stmts
    if isinstance(s, IfStmt):
        return (s.then, s.els)
    if isinstance(s, WhileStmt):
        return (s.body,)
    return ()


def walk_stmts(s: Stmt):
    """Yield every statement in the tree, pre-order."""
    yield s
    for c in stmt_children(s):
        yield from walk_stmts(c)


def stmt_callees(s: Stmt | None) -> set[str]:
    """Names of every procedure called (transitively through the
    statement tree) by ``s``."""
    if s is None:
        return set()
    return {x.callee for x in walk_stmts(s) if isinstance(x, CallStmt)}


def asserts_in(s: Stmt) -> list[AssertStmt]:
    """Assertions in *program order* (then-branch before else-branch)."""
    return [x for x in walk_stmts(s) if isinstance(x, AssertStmt)]


def locations_in(s: Stmt) -> list[LocationStmt]:
    return [x for x in walk_stmts(s) if isinstance(x, LocationStmt)]


def expr_vars(e: Expr) -> set[str]:
    out: set[str] = set()
    _expr_vars(e, out)
    return out


def _expr_vars(e: Expr, out: set[str]) -> None:
    if isinstance(e, VarExpr):
        out.add(e.name)
    elif isinstance(e, IntLit):
        pass
    elif isinstance(e, BinExpr):
        _expr_vars(e.lhs, out)
        _expr_vars(e.rhs, out)
    elif isinstance(e, NegExpr):
        _expr_vars(e.arg, out)
    elif isinstance(e, SelectExpr):
        _expr_vars(e.map, out)
        _expr_vars(e.index, out)
    elif isinstance(e, StoreExpr):
        _expr_vars(e.map, out)
        _expr_vars(e.index, out)
        _expr_vars(e.value, out)
    elif isinstance(e, FunAppExpr):
        for a in e.args:
            _expr_vars(a, out)
    elif isinstance(e, IteExpr):
        _formula_vars(e.cond, out)
        _expr_vars(e.then, out)
        _expr_vars(e.els, out)
    else:  # pragma: no cover
        raise AssertionError(f"unknown expr {e!r}")


def formula_vars(f: Formula) -> set[str]:
    out: set[str] = set()
    _formula_vars(f, out)
    return out


def _formula_vars(f: Formula, out: set[str]) -> None:
    if isinstance(f, BoolLit):
        pass
    elif isinstance(f, RelExpr):
        _expr_vars(f.lhs, out)
        _expr_vars(f.rhs, out)
    elif isinstance(f, PredAppExpr):
        for a in f.args:
            _expr_vars(a, out)
    elif isinstance(f, NotExpr):
        _formula_vars(f.arg, out)
    elif isinstance(f, (AndExpr, OrExpr)):
        for a in f.args:
            _formula_vars(a, out)
    elif isinstance(f, (ImpliesExpr, IffExpr)):
        _formula_vars(f.lhs, out)
        _formula_vars(f.rhs, out)
    else:  # pragma: no cover
        raise AssertionError(f"unknown formula {f!r}")


def stmt_vars(s: Stmt) -> set[str]:
    """All variable names referenced (read or written) by a statement tree."""
    out: set[str] = set()
    for node in walk_stmts(s):
        if isinstance(node, AssertStmt) or isinstance(node, AssumeStmt):
            _formula_vars(node.formula, out)
        elif isinstance(node, AssignStmt):
            out.add(node.var)
            _expr_vars(node.expr, out)
        elif isinstance(node, MapAssignStmt):
            out.add(node.map)
            _expr_vars(node.index, out)
            _expr_vars(node.value, out)
        elif isinstance(node, HavocStmt):
            out.update(node.vars)
        elif isinstance(node, IfStmt) and node.cond is not None:
            _formula_vars(node.cond, out)
        elif isinstance(node, WhileStmt) and node.cond is not None:
            _formula_vars(node.cond, out)
        elif isinstance(node, CallStmt):
            out.update(node.lhs)
            for a in node.args:
                _expr_vars(a, out)
    return out


def assigned_vars(s: Stmt) -> set[str]:
    """Variables written by a statement tree (including havocs and calls)."""
    out: set[str] = set()
    for node in walk_stmts(s):
        if isinstance(node, AssignStmt):
            out.add(node.var)
        elif isinstance(node, MapAssignStmt):
            out.add(node.map)
        elif isinstance(node, HavocStmt):
            out.update(node.vars)
        elif isinstance(node, CallStmt):
            out.update(node.lhs)
    return out
