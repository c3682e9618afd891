"""Parser tests for the mini-Boogie surface syntax."""

import pytest

from repro.lang.ast import (AndExpr, AssertStmt, AssignStmt, AssumeStmt,
                            BinExpr, BoolLit, CallStmt, HavocStmt, IfStmt,
                            ImpliesExpr, IntLit, MapAssignStmt, NotExpr,
                            OrExpr, PredAppExpr, RelExpr, ReturnStmt,
                            SelectExpr, SeqStmt, SkipStmt, Type, VarExpr,
                            WhileStmt)
from repro.lang.parser import ParseError, parse_procedure, parse_program


def body_of(src: str):
    return parse_procedure(src).body


class TestDeclarations:
    def test_globals(self):
        p = parse_program("var g: int; var M: [int]int;")
        assert p.globals == {"g": Type.INT, "M": Type.MAP}

    def test_function_decl(self):
        p = parse_program("function f(int, int): int;")
        assert p.functions == {"f": 2}

    def test_procedure_signature(self):
        proc = parse_procedure(
            "procedure P(x: int, M: [int]int) returns (r: int) { r := x; }")
        assert proc.params == ("x", "M")
        assert proc.returns == ("r",)
        assert proc.var_types["M"] == Type.MAP

    def test_spec_only_procedure(self):
        p = parse_program("procedure Ext(x: int) returns (r: int);")
        assert p.proc("Ext").body is None

    def test_contracts(self):
        prog = parse_program("""
            var g: int;
            procedure P(x: int)
              requires x > 0;
              ensures x >= 0;
              modifies g;
            { skip; }
        """)
        proc = prog.proc("P")
        assert isinstance(proc.requires, RelExpr)
        assert proc.modifies == ("g",)

    def test_locals(self):
        proc = parse_procedure("""
            procedure P() {
              var t: int;
              var M: [int]int;
              t := 1;
            }
        """)
        assert proc.locals == ("t", "M")


class TestStatements:
    def test_assign_and_map_assign(self):
        b = body_of("procedure P(x: int) { var M: [int]int; "
                    "x := x + 1; M[x] := 2; }")
        assert isinstance(b, SeqStmt)
        assert isinstance(b.stmts[0], AssignStmt)
        assert isinstance(b.stmts[1], MapAssignStmt)

    def test_labeled_assert(self):
        b = body_of("procedure P(x: int) { A1: assert x == 0; }")
        assert isinstance(b, AssertStmt)
        assert b.label == "A1"

    def test_assume_havoc_skip_return(self):
        b = body_of("procedure P(x: int) { assume x > 0; havoc x; "
                    "skip; return; }")
        kinds = [type(s) for s in b.stmts]
        assert kinds == [AssumeStmt, HavocStmt, ReturnStmt]

    def test_nondet_if(self):
        b = body_of("procedure P(x: int) { if (*) { x := 1; } }")
        assert isinstance(b, IfStmt)
        assert b.cond is None
        assert isinstance(b.els, SkipStmt)

    def test_if_else_chain(self):
        b = body_of("""
            procedure P(x: int) {
              if (x == 0) { x := 1; }
              else if (x == 1) { x := 2; }
              else { x := 3; }
            }
        """)
        assert isinstance(b, IfStmt)
        assert isinstance(b.els, IfStmt)

    def test_while(self):
        b = body_of("procedure P(x: int) { while (x < 10) { x := x + 1; } }")
        assert isinstance(b, WhileStmt)
        assert isinstance(b.cond, RelExpr)

    def test_nondet_while(self):
        b = body_of("procedure P(x: int) { while (*) { x := x + 1; } }")
        assert isinstance(b, WhileStmt)
        assert b.cond is None

    def test_call_forms(self):
        prog = parse_program("""
            procedure Callee(a: int) returns (r: int);
            procedure P(x: int) {
              call x := Callee(x + 1);
              call Callee2();
            }
            procedure Callee2();
        """)
        b = prog.proc("P").body
        call1, call2 = b.stmts
        assert call1.lhs == ("x",) and call1.callee == "Callee"
        assert isinstance(call1.args[0], BinExpr)
        assert call2.lhs == () and call2.callee == "Callee2"


class TestFormulas:
    def test_precedence_and_or(self):
        b = body_of("procedure P(x: int) "
                    "{ assume x == 0 || x == 1 && x == 2; }")
        f = b.formula if isinstance(b, AssumeStmt) else b.stmts[0].formula
        assert isinstance(f, OrExpr)
        assert isinstance(f.args[1], AndExpr)

    def test_implies_right_assoc(self):
        b = body_of("procedure P(x: int) "
                    "{ assume x == 0 ==> x == 1 ==> x == 2; }")
        f = b.formula
        assert isinstance(f, ImpliesExpr)
        assert isinstance(f.rhs, ImpliesExpr)

    def test_not_and_parens(self):
        b = body_of("procedure P(x: int) { assume !(x == 0) && x < 5; }")
        f = b.formula
        assert isinstance(f, AndExpr)
        assert isinstance(f.args[0], NotExpr)

    def test_parenthesized_arithmetic_comparison(self):
        b = body_of("procedure P(x: int, y: int) { assume (x + 1) < y; }")
        f = b.formula
        assert isinstance(f, RelExpr)
        assert f.op == "<"

    def test_map_select_in_formula(self):
        b = body_of("procedure P(M: [int]int, i: int) { assume M[i] == 0; }")
        f = b.formula
        assert isinstance(f.lhs, SelectExpr)

    def test_uninterpreted_predicate(self):
        b = body_of("procedure P(x: int) { assume valid(x); }")
        assert isinstance(b.formula, PredAppExpr)

    def test_booleans(self):
        b = body_of("procedure P() { assume true; assert false; }")
        assert b.stmts[0].formula == BoolLit(True)
        assert b.stmts[1].formula == BoolLit(False)


class TestExpressions:
    def test_arith_precedence(self):
        b = body_of("procedure P(x: int) { x := 1 + 2 * x; }")
        e = b.expr
        assert e.op == "+"
        assert e.rhs.op == "*"

    def test_unary_minus(self):
        b = body_of("procedure P(x: int) { x := -x + 1; }")
        assert b.expr.op == "+"

    def test_nested_select(self):
        b = body_of("procedure P(M: [int]int, i: int) { i := M[M[i]]; }")
        e = b.expr
        assert isinstance(e, SelectExpr)
        assert isinstance(e.index, SelectExpr)

    def test_function_application(self):
        prog = parse_program("function f(int): int; "
                             "procedure P(x: int) { x := f(x) + f(0); }")
        assert prog.functions["f"] == 1


class TestErrors:
    @pytest.mark.parametrize("src", [
        "procedure P( { }",
        "procedure P() { x := ; }",
        "procedure P() { assert ; }",
        "var x int;",
        "procedure P() { if x { } }",
        "procedure P() { call ; }",
    ])
    def test_syntax_errors_raise(self, src):
        with pytest.raises(ParseError):
            parse_program(src)

    @pytest.mark.parametrize("literal", ["٣", "2²"])
    def test_non_ascii_digit_literal_names_its_line(self, literal):
        # the lexer reads both as one int token (str.isdigit); int()
        # would turn "٣" into 3 and fail on "2²" with no position
        src = f"procedure P() returns (r: int)\n{{\n  r := {literal};\n}}"
        with pytest.raises(ParseError, match=r"line 3") as exc:
            parse_program(src)
        assert "ASCII digits" in str(exc.value)

    @pytest.mark.parametrize("src,message", [
        ("procedure f() { A1: assert 1 == 2; }\n"
         "procedure f() { A2: assert 1 == 1; }",
         "procedure 'f' declared twice, again at line 2"),
        ("var g: int;\nvar h: int;\nvar g: [int]int;",
         "global 'g' redeclared as [int]int, not int, at line 3"),
        ("function f(int): int;\nfunction f(int, int): int;",
         "function 'f' redeclared with arity 2, not 1, at line 2"),
    ], ids=["procedure", "global", "function"])
    def test_redefinition_names_its_line(self, src, message):
        # the last definition used to win silently
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert str(exc.value) == message

    def test_identical_redeclaration_is_legal(self):
        # as merging two files that declare it allows
        p = parse_program("var g: int; function f(int): int;\n"
                          "var g: int; function f(int): int;")
        assert (p.globals, p.functions) == ({"g": Type.INT}, {"f": 1})

    def test_two_procedures_rejected_by_parse_procedure(self):
        with pytest.raises(ParseError):
            parse_procedure("procedure A() {skip;} procedure B() {skip;}")
