"""Recursive-descent parser for the mini-C subset.

Notable conveniences for benchmark code:

* preprocessor lines are skipped by the lexer (the suites are written
  pre-expanded, mirroring how HAVOC saw the Windows sources post-cpp);
* ``x++``, ``x--``, ``x += e``, ``x -= e`` desugar to assignments;
* ``assert(e)`` is recognized as a statement (a macro in the originals).
"""

from __future__ import annotations

from .cast import (CAssert, CAssign, CBinary, CBlock, CCall, CCast, CDecl,
                   CExpr, CExprStmt, CField, CFor, CFunction, CIf, CIndex,
                   CInt, CNull, CReturn, CSizeof, CStmt, CStructDef,
                   CTranslationUnit, CType, CUnary, CVar, CWhile, INT)
from .clexer import CToken, tokenize_c


class CParseError(SyntaxError):
    pass


_CMP = ("==", "!=", "<", "<=", ">", ">=")


class CParser:
    def __init__(self, src: str):
        self.toks = tokenize_c(src)
        self.pos = 0
        self.struct_names: set[str] = set()

    # ------------------------------------------------------------------

    def peek(self, ahead: int = 0) -> CToken:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> CToken:
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

    def expect(self, text: str) -> CToken:
        if not self.at(text):
            t = self.peek()
            raise CParseError(f"expected {text!r}, found {t.text!r} at line {t.line}")
        return self.next()

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "id":
            raise CParseError(f"expected identifier at line {t.line}, found {t.text!r}")
        return self.next().text

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------

    def at_type(self) -> bool:
        t = self.peek()
        if t.text in ("int", "char", "void", "struct"):
            return True
        # typedef'd struct names
        return t.kind == "id" and t.text in self.struct_names

    def parse_type(self) -> CType:
        t = self.peek()
        if self.accept("struct"):
            name = self.ident()
            base = f"struct {name}"
        elif t.text in ("int", "char", "void"):
            self.next()
            base = t.text
        elif t.kind == "id" and t.text in self.struct_names:
            self.next()
            base = f"struct {t.text}"
        else:
            raise CParseError(f"expected type at line {t.line}, found {t.text!r}")
        ptr = 0
        while self.accept("*"):
            ptr += 1
        return CType(base, ptr)

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def parse_unit(self) -> CTranslationUnit:
        structs: dict = {}
        globals_: dict = {}
        functions: dict = {}
        while self.peek().kind != "eof":
            if self.at("struct") and self.peek(2).text == "{":
                sd = self.parse_struct_def()
                structs[sd.name] = sd
                continue
            # typedef-like 'struct S;' forward decls
            if self.at("struct") and self.peek(2).text == ";":
                self.next()
                self.struct_names.add(self.ident())
                self.expect(";")
                continue
            line = self.peek().line
            ty = self.parse_type()
            name = self.ident()
            if self.at("("):
                fn = self.parse_function(ty, name)
                old = functions.get(name)
                if old is not None and old.body is not None:
                    if fn.body is not None:
                        raise CParseError(f"function {name!r} defined "
                                          f"twice, again at line {line}")
                    continue  # a prototype never replaces a definition
                functions[name] = fn
            else:
                self.expect(";")
                globals_[name] = ty
        return CTranslationUnit(structs=structs, globals=globals_,
                                functions=functions)

    def parse_struct_def(self) -> CStructDef:
        self.expect("struct")
        name = self.ident()
        self.struct_names.add(name)
        self.expect("{")
        fields: list[tuple[str, CType]] = []
        while not self.at("}"):
            fty = self.parse_type()
            fname = self.ident()
            fields.append((fname, fty))
            while self.accept(","):
                fields.append((self.ident(), fty))
            self.expect(";")
        self.expect("}")
        self.expect(";")
        return CStructDef(name, tuple(fields))

    def parse_function(self, ret: CType, name: str) -> CFunction:
        self.expect("(")
        params: list[tuple[str, CType]] = []
        if not self.at(")"):
            if self.at("void") and self.peek(1).text == ")":
                self.next()
            else:
                while True:
                    pty = self.parse_type()
                    pname = self.ident()
                    params.append((pname, pty))
                    if not self.accept(","):
                        break
        self.expect(")")
        if self.accept(";"):
            return CFunction(name, ret, tuple(params), None)
        body = self.parse_block()
        return CFunction(name, ret, tuple(params), body)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def parse_block(self) -> CBlock:
        self.expect("{")
        stmts: list[CStmt] = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return CBlock(tuple(stmts))

    def parse_stmt(self) -> CStmt:
        t = self.peek()
        if self.at("{"):
            return self.parse_block()
        if self.at_type() and not (t.kind == "id" and self.peek(1).text in
                                   ("=", ";", "[", "(", "->", ".")):
            return self.parse_decl()
        if self.accept("if"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then = self._stmt_as_block()
            els = None
            if self.accept("else"):
                if self.at("if"):
                    sub = self.parse_stmt()
                    els = sub  # CIf
                else:
                    els = self._stmt_as_block()
            return CIf(cond, then, els)
        if self.accept("while"):
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            return CWhile(cond, self._stmt_as_block())
        if self.accept("for"):
            self.expect("(")
            init = None if self.at(";") else self._simple_stmt_no_semi()
            self.expect(";")
            cond = None if self.at(";") else self.parse_expr()
            self.expect(";")
            step = None if self.at(")") else self._simple_stmt_no_semi()
            self.expect(")")
            return CFor(init, cond, step, self._stmt_as_block())
        if self.accept("return"):
            if self.accept(";"):
                return CReturn(None)
            value = self.parse_expr()
            self.expect(";")
            return CReturn(value)
        if t.kind == "id" and t.text == "assert" and self.peek(1).text == "(":
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return CAssert(cond)
        if self.accept(";"):
            return CBlock(())
        s = self._simple_stmt_no_semi()
        self.expect(";")
        return s

    def _stmt_as_block(self) -> CBlock:
        s = self.parse_stmt()
        if isinstance(s, CBlock):
            return s
        return CBlock((s,))

    def parse_decl(self) -> CStmt:
        ty = self.parse_type()
        name = self.ident()
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return CDecl(ty, name, init)

    def _simple_stmt_no_semi(self) -> CStmt:
        if self.at_type() and self.peek().kind != "id":
            # declarations inside 'for' init
            ty = self.parse_type()
            name = self.ident()
            init = None
            if self.accept("="):
                init = self.parse_expr()
            return CDecl(ty, name, init)
        lhs = self.parse_expr()
        if self.accept("="):
            return CAssign(lhs, self.parse_expr())
        if self.accept("+="):
            return CAssign(lhs, CBinary("+", lhs, self.parse_expr()))
        if self.accept("-="):
            return CAssign(lhs, CBinary("-", lhs, self.parse_expr()))
        if self.accept("++"):
            return CAssign(lhs, CBinary("+", lhs, CInt(1)))
        if self.accept("--"):
            return CAssign(lhs, CBinary("-", lhs, CInt(1)))
        return CExprStmt(lhs)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------

    def parse_expr(self) -> CExpr:
        return self.parse_or()

    def parse_or(self) -> CExpr:
        lhs = self.parse_and()
        while self.accept("||"):
            lhs = CBinary("||", lhs, self.parse_and())
        return lhs

    def parse_and(self) -> CExpr:
        lhs = self.parse_cmp()
        while self.accept("&&"):
            lhs = CBinary("&&", lhs, self.parse_cmp())
        return lhs

    def parse_cmp(self) -> CExpr:
        lhs = self.parse_add()
        while self.peek().text in _CMP and self.peek().kind == "punct":
            op = self.next().text
            lhs = CBinary(op, lhs, self.parse_add())
        return lhs

    def parse_add(self) -> CExpr:
        lhs = self.parse_mul()
        while True:
            if self.accept("+"):
                lhs = CBinary("+", lhs, self.parse_mul())
            elif self.accept("-"):
                lhs = CBinary("-", lhs, self.parse_mul())
            else:
                return lhs

    def parse_mul(self) -> CExpr:
        lhs = self.parse_unary()
        while True:
            if self.accept("*"):
                lhs = CBinary("*", lhs, self.parse_unary())
            elif self.accept("/"):
                lhs = CBinary("/", lhs, self.parse_unary())
            elif self.accept("%"):
                lhs = CBinary("%", lhs, self.parse_unary())
            else:
                return lhs

    def parse_unary(self) -> CExpr:
        if self.accept("-"):
            return CUnary("-", self.parse_unary())
        if self.accept("!"):
            return CUnary("!", self.parse_unary())
        if self.accept("*"):
            return CUnary("*", self.parse_unary())
        if self.accept("&"):
            raise CParseError(
                f"address-of is outside the supported subset (line {self.peek().line})")
        if self.at("(") and self._looks_like_cast():
            self.expect("(")
            ty = self.parse_type()
            self.expect(")")
            return CCast(ty, self.parse_unary())
        return self.parse_postfix()

    def _looks_like_cast(self) -> bool:
        t1 = self.peek(1)
        if t1.text in ("int", "char", "void", "struct"):
            return True
        return t1.kind == "id" and t1.text in self.struct_names

    def parse_postfix(self) -> CExpr:
        e = self.parse_primary()
        while True:
            if self.accept("->"):
                e = CField(e, self.ident())
            elif self.accept("."):
                # data[0].a on a struct pointer's element: treat like arrow
                e = CField(e, self.ident())
            elif self.accept("["):
                idx = self.parse_expr()
                self.expect("]")
                e = CIndex(e, idx)
            else:
                return e

    def parse_primary(self) -> CExpr:
        t = self.peek()
        if t.kind == "int":
            self.next()
            if not t.text.isascii():  # the lexer's isdigit takes "٣", "²"
                raise CParseError(f"integer literal {t.text!r} is not in "
                                  f"ASCII digits at line {t.line}")
            return CInt(int(t.text))
        if self.accept("NULL"):
            return CNull()
        if self.accept("sizeof"):
            self.expect("(")
            ty = self.parse_type()
            self.expect(")")
            return CSizeof(ty)
        if self.accept("("):
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.kind == "id":
            name = self.ident()
            if self.accept("("):
                args: list[CExpr] = []
                if not self.at(")"):
                    args.append(self.parse_expr())
                    while self.accept(","):
                        args.append(self.parse_expr())
                self.expect(")")
                return CCall(name, tuple(args))
            return CVar(name)
        raise CParseError(f"expected expression at line {t.line}, found {t.text!r}")


def parse_c(src: str) -> CTranslationUnit:
    return CParser(src).parse_unit()
