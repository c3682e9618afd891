"""Recursive-descent parser for the mini-Boogie surface syntax.

Grammar sketch (see tests/lang/test_parser.py for worked examples)::

    program   := decl*
    decl      := "var" id ":" type ";"
               | "function" id "(" [type ("," type)*] ")" ":" "int" ";"
               | "procedure" id "(" params ")" ["returns" "(" params ")"]
                 spec* (body | ";")
    spec      := "requires" formula ";" | "ensures" formula ";"
               | "modifies" id ("," id)* ";"
    type      := "int" | "[" "int" "]" "int"
    body      := "{" ("var" id ":" type ";")* stmt* "}"
    stmt      := "skip" ";" | [id ":"] "assert" formula ";"
               | "assume" formula ";"
               | id ":=" expr ";" | id "[" expr "]" ":=" expr ";"
               | "havoc" id ("," id)* ";"
               | "if" "(" ("*" | formula) ")" block ["else" (block | if)]
               | "while" "(" ("*" | formula) ")" block
               | "call" [id ("," id)* ":="] id "(" [expr ("," expr)*] ")" ";"
               | "return" ";"
    formula   := iff;  iff := imp ("<==>" imp)*;  imp := or ("==>" imp)?
    or        := and ("||" and)*;  and := unary ("&&" unary)*
    unary     := "!" unary | "(" formula ")" | atom
    atom      := "true" | "false" | comparison | predicate-app
    expr      := additive with + - , term with *, unary -, postfix [e]

Disambiguation note: inside a parenthesized formula position the parser
backtracks between formula and expression interpretations (both start with
``(``), which keeps the grammar simple at a small constant cost.
"""

from __future__ import annotations

from .ast import (AndExpr, AssertStmt, AssignStmt, AssumeStmt, BinExpr,
                  BoolLit, CallStmt, Expr, Formula, FunAppExpr, HavocStmt,
                  IffExpr, IfStmt, ImpliesExpr, IntLit, MapAssignStmt,
                  NegExpr, NotExpr, OrExpr, PredAppExpr, Procedure, Program,
                  RelExpr, ReturnStmt, SelectExpr, SeqStmt, SkipStmt, Stmt,
                  Type, VarExpr, WhileStmt, seq)
from .lexer import Token, tokenize


class ParseError(SyntaxError):
    pass


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.pos = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "kw")

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if not self.at(text):
            raise ParseError(
                f"expected {text!r} but found {t.text!r} at line {t.line}")
        return self.next()

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "id":
            raise ParseError(f"expected identifier, found {t.text!r} at line {t.line}")
        return self.next().text

    # ------------------------------------------------------------------
    # program structure
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        globals_: dict = {}
        functions: dict = {}
        procedures: dict = {}
        while self.peek().kind != "eof":
            # a redeclaration is an error unless it repeats the global's
            # type or the function's arity, as merging files allows
            line = self.peek().line
            if self.at("var"):
                self.next()
                name = self.ident()
                self.expect(":")
                ty = self.parse_type()
                self.expect(";")
                if globals_.get(name, ty) != ty:
                    raise ParseError(
                        f"global {name!r} redeclared as {ty}, not "
                        f"{globals_[name]}, at line {line}")
                globals_[name] = ty
            elif self.at("function"):
                self.next()
                name = self.ident()
                self.expect("(")
                arity = 0
                if not self.at(")"):
                    self.parse_type()
                    arity = 1
                    while self.accept(","):
                        self.parse_type()
                        arity += 1
                self.expect(")")
                self.expect(":")
                self.expect("int")
                self.expect(";")
                if functions.get(name, arity) != arity:
                    raise ParseError(
                        f"function {name!r} redeclared with arity {arity}, "
                        f"not {functions[name]}, at line {line}")
                functions[name] = arity
            elif self.at("procedure"):
                proc = self.parse_procedure()
                if proc.name in procedures:
                    raise ParseError(f"procedure {proc.name!r} declared "
                                     f"twice, again at line {line}")
                procedures[proc.name] = proc
            else:
                t = self.peek()
                raise ParseError(f"unexpected {t.text!r} at line {t.line}")
        return Program(globals=globals_, functions=functions,
                       procedures=procedures)

    def parse_type(self) -> str:
        if self.accept("int"):
            return Type.INT
        if self.accept("["):
            self.expect("int")
            self.expect("]")
            self.expect("int")
            return Type.MAP
        t = self.peek()
        raise ParseError(f"expected type at line {t.line}, found {t.text!r}")

    def parse_params(self) -> list[tuple[str, str]]:
        out: list[tuple[str, str]] = []
        if self.at(")"):
            return out
        while True:
            name = self.ident()
            self.expect(":")
            ty = self.parse_type()
            out.append((name, ty))
            if not self.accept(","):
                return out

    def parse_procedure(self) -> Procedure:
        self.expect("procedure")
        name = self.ident()
        self.expect("(")
        params = self.parse_params()
        self.expect(")")
        returns: list[tuple[str, str]] = []
        if self.accept("returns"):
            self.expect("(")
            returns = self.parse_params()
            self.expect(")")
        requires: Formula = BoolLit(True)
        ensures: Formula = BoolLit(True)
        modifies: list[str] = []
        while True:
            if self.accept("requires"):
                f = self.parse_formula()
                self.expect(";")
                requires = _conj(requires, f)
            elif self.accept("ensures"):
                f = self.parse_formula()
                self.expect(";")
                ensures = _conj(ensures, f)
            elif self.accept("modifies"):
                modifies.append(self.ident())
                while self.accept(","):
                    modifies.append(self.ident())
                self.expect(";")
            else:
                break
        var_types = {n: t for n, t in params}
        var_types.update({n: t for n, t in returns})
        if self.accept(";"):
            return Procedure(name=name,
                             params=tuple(n for n, _ in params),
                             returns=tuple(n for n, _ in returns),
                             var_types=var_types, locals=(),
                             requires=requires, ensures=ensures,
                             modifies=tuple(modifies), body=None)
        self.expect("{")
        locals_: list[str] = []
        while self.at("var"):
            self.next()
            lname = self.ident()
            self.expect(":")
            lty = self.parse_type()
            self.expect(";")
            locals_.append(lname)
            var_types[lname] = lty
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return Procedure(name=name,
                         params=tuple(n for n, _ in params),
                         returns=tuple(n for n, _ in returns),
                         var_types=var_types, locals=tuple(locals_),
                         requires=requires, ensures=ensures,
                         modifies=tuple(modifies), body=seq(*stmts))

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_block(self) -> Stmt:
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return seq(*stmts)

    def parse_stmt(self) -> Stmt:
        t = self.peek()
        if self.accept("skip"):
            self.expect(";")
            return SkipStmt()
        if self.accept("assert"):
            f = self.parse_formula()
            self.expect(";")
            return AssertStmt(f)
        if self.accept("assume"):
            f = self.parse_formula()
            self.expect(";")
            return AssumeStmt(f)
        if self.accept("havoc"):
            names = [self.ident()]
            while self.accept(","):
                names.append(self.ident())
            self.expect(";")
            return HavocStmt(tuple(names))
        if self.accept("return"):
            self.expect(";")
            return ReturnStmt()
        if self.at("if"):
            return self.parse_if()
        if self.accept("while"):
            self.expect("(")
            cond: Formula | None
            if self.accept("*"):
                cond = None
            else:
                cond = self.parse_formula()
            self.expect(")")
            body = self.parse_block()
            return WhileStmt(cond, body)
        if self.accept("call"):
            first = self.ident()
            lhs: list[str] = []
            if self.at(",") or self.at(":="):
                lhs.append(first)
                while self.accept(","):
                    lhs.append(self.ident())
                self.expect(":=")
                callee = self.ident()
            else:
                callee = first
            self.expect("(")
            args: list[Expr] = []
            if not self.at(")"):
                args.append(self.parse_expr())
                while self.accept(","):
                    args.append(self.parse_expr())
            self.expect(")")
            self.expect(";")
            return CallStmt(tuple(lhs), callee, tuple(args))
        if t.kind == "id":
            # label? assignment? map assignment?
            nxt = self.peek(1)
            if nxt.text == ":" and self.peek(2).text == "assert":
                label = self.ident()
                self.expect(":")
                self.expect("assert")
                f = self.parse_formula()
                self.expect(";")
                return AssertStmt(f, label=label)
            name = self.ident()
            if self.accept("["):
                idx = self.parse_expr()
                self.expect("]")
                self.expect(":=")
                val = self.parse_expr()
                self.expect(";")
                return MapAssignStmt(name, idx, val)
            self.expect(":=")
            val = self.parse_expr()
            self.expect(";")
            return AssignStmt(name, val)
        raise ParseError(f"unexpected {t.text!r} at line {t.line}")

    def parse_if(self) -> Stmt:
        self.expect("if")
        self.expect("(")
        cond: Formula | None
        if self.accept("*"):
            cond = None
        else:
            cond = self.parse_formula()
        self.expect(")")
        then = self.parse_block()
        els: Stmt = SkipStmt()
        if self.accept("else"):
            if self.at("if"):
                els = self.parse_if()
            else:
                els = self.parse_block()
        return IfStmt(cond, then, els)

    # ------------------------------------------------------------------
    # formulas
    # ------------------------------------------------------------------

    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        lhs = self.parse_implies()
        while self.accept("<==>"):
            rhs = self.parse_implies()
            lhs = IffExpr(lhs, rhs)
        return lhs

    def parse_implies(self) -> Formula:
        lhs = self.parse_or()
        if self.accept("==>"):
            rhs = self.parse_implies()  # right-associative
            return ImpliesExpr(lhs, rhs)
        return lhs

    def parse_or(self) -> Formula:
        lhs = self.parse_and()
        args = [lhs]
        while self.accept("||"):
            args.append(self.parse_and())
        if len(args) == 1:
            return lhs
        return OrExpr(tuple(args))

    def parse_and(self) -> Formula:
        lhs = self.parse_funit()
        args = [lhs]
        while self.accept("&&"):
            args.append(self.parse_funit())
        if len(args) == 1:
            return lhs
        return AndExpr(tuple(args))

    def parse_funit(self) -> Formula:
        if self.accept("!"):
            return NotExpr(self.parse_funit())
        if self.accept("true"):
            return BoolLit(True)
        if self.accept("false"):
            return BoolLit(False)
        if self.at("("):
            # Could be a parenthesized formula or the start of an
            # arithmetic expression like (x + 1) < y.  Backtrack.
            save = self.pos
            self.next()
            try:
                inner = self.parse_formula()
                self.expect(")")
                # If a comparison operator follows, the parenthesis was an
                # arithmetic grouping after all.
                if self.peek().text in ("==", "!=", "<", "<=", ">", ">="):
                    raise ParseError("reparse as expression")
                return inner
            except ParseError:
                self.pos = save
                return self.parse_comparison()
        return self.parse_comparison()

    def parse_comparison(self) -> Formula:
        lhs = self.parse_expr()
        t = self.peek()
        if t.text in ("==", "!=", "<", "<=", ">", ">="):
            self.next()
            rhs = self.parse_expr()
            return RelExpr(t.text, lhs, rhs)
        # A bare function-application formula: uninterpreted predicate.
        if isinstance(lhs, FunAppExpr):
            return PredAppExpr(lhs.name, lhs.args)
        raise ParseError(
            f"expected comparison operator at line {t.line}, found {t.text!r}")

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def parse_expr(self) -> Expr:
        lhs = self.parse_term()
        while True:
            if self.accept("+"):
                lhs = BinExpr("+", lhs, self.parse_term())
            elif self.accept("-"):
                lhs = BinExpr("-", lhs, self.parse_term())
            else:
                return lhs

    def parse_term(self) -> Expr:
        lhs = self.parse_unary()
        while self.accept("*"):
            lhs = BinExpr("*", lhs, self.parse_unary())
        return lhs

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            return NegExpr(self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_primary()
        while self.accept("["):
            idx = self.parse_expr()
            self.expect("]")
            e = SelectExpr(e, idx)
        return e

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            if not t.text.isascii():  # the lexer's isdigit takes "٣", "²"
                raise ParseError(f"integer literal {t.text!r} is not in "
                                 f"ASCII digits at line {t.line}")
            return IntLit(int(t.text))
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "id":
            name = self.ident()
            if self.accept("("):
                args: list[Expr] = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return FunAppExpr(name, tuple(args))
            return VarExpr(name)
        raise ParseError(f"expected expression at line {t.line}, found {t.text!r}")


def _conj(a: Formula, b: Formula) -> Formula:
    if isinstance(a, BoolLit) and a.value:
        return b
    if isinstance(b, BoolLit) and b.value:
        return a
    return AndExpr((a, b))


def parse_program(src: str) -> Program:
    """Parse a mini-Boogie program from source text."""
    return Parser(src).parse_program()


def parse_procedure(src: str) -> Procedure:
    """Parse a single procedure (convenience for tests and examples)."""
    prog = parse_program(src)
    if len(prog.procedures) != 1:
        raise ParseError("expected exactly one procedure")
    return next(iter(prog.procedures.values()))
