"""Mini-C lexer and parser tests."""

import pytest

from repro.frontend.cast import (CAssert, CAssign, CBinary, CBlock, CCall,
                                 CCast, CDecl, CField, CFor, CIf, CIndex,
                                 CInt, CNull, CReturn, CSizeof, CUnary,
                                 CVar, CWhile)
from repro.frontend.clexer import CLexError, tokenize_c
from repro.frontend.cparser import CParseError, parse_c


class TestLexer:
    def test_preprocessor_lines_skipped(self):
        toks = tokenize_c("#include <stdio.h>\nint x;")
        assert [t.text for t in toks[:-1]] == ["int", "x", ";"]

    def test_comments(self):
        toks = tokenize_c("a // x\n /* y */ b")
        assert [t.text for t in toks[:-1]] == ["a", "b"]

    def test_arrow_vs_minus(self):
        toks = tokenize_c("p->f - q")
        assert [t.text for t in toks[:-1]] == ["p", "->", "f", "-", "q"]

    def test_string_literal_becomes_nonzero(self):
        toks = tokenize_c('f("hello")')
        assert toks[2].kind == "int"

    def test_bad_char(self):
        with pytest.raises(CLexError):
            tokenize_c("int $x;")


def first_fn(src: str):
    unit = parse_c(src)
    return next(f for f in unit.functions.values() if f.body is not None)


class TestTopLevel:
    def test_struct_def(self):
        unit = parse_c("struct node { int val; struct node *next; };")
        sd = unit.structs["node"]
        assert sd.fields[0] == ("val", sd.fields[0][1])
        assert sd.fields[1][1].ptr == 1

    def test_globals(self):
        unit = parse_c("int g; int *p;")
        assert unit.globals["g"].ptr == 0
        assert unit.globals["p"].ptr == 1

    def test_prototype_and_definition(self):
        unit = parse_c("int ext(void); void f(void) { ext(); }")
        assert unit.functions["ext"].body is None
        assert unit.functions["f"].body is not None

    def test_prototype_never_replaces_a_definition(self):
        for src in ("void f(int *p) { *p = 1; }\nvoid f(int *p);",
                    "void f(int *p);\nvoid f(int *p) { *p = 1; }\n"
                    "void f(int *p);"):
            assert parse_c(src).functions["f"].body is not None

    def test_second_definition_rejected(self):
        with pytest.raises(CParseError,
                           match="'f' defined twice, again at line 2"):
            parse_c("void f(int *p) { *p = 1; }\n"
                    "void f(int *p) { *p = 2; }")

    def test_params(self):
        fn = first_fn("void f(int a, char *b) { a = 1; }")
        assert fn.params[0][0] == "a"
        assert fn.params[1][1].ptr == 1

    def test_struct_name_as_type(self):
        unit = parse_c("""
            struct S { int a; };
            void f(struct S *p) { p->a = 1; }
        """)
        fn = unit.functions["f"]
        assert fn.params[0][1].base == "struct S"


class TestStatements:
    def test_decl_with_init(self):
        fn = first_fn("void f(void) { int x = 3; }")
        d = fn.body.stmts[0]
        assert isinstance(d, CDecl) and d.init == CInt(3)

    def test_pointer_decl_null_init(self):
        fn = first_fn("void f(void) { int *p = NULL; }")
        d = fn.body.stmts[0]
        assert isinstance(d.init, CNull)

    def test_assign_through_deref(self):
        fn = first_fn("void f(int *p) { *p = 5; }")
        a = fn.body.stmts[0]
        assert isinstance(a, CAssign)
        assert isinstance(a.target, CUnary) and a.target.op == "*"

    def test_field_and_index_assign(self):
        unit = parse_c("""
            struct S { int a; };
            void f(struct S *p, int *q) { p->a = 1; q[2] = 3; }
        """)
        body = unit.functions["f"].body
        assert isinstance(body.stmts[0].target, CField)
        assert isinstance(body.stmts[1].target, CIndex)

    def test_if_else_chain(self):
        fn = first_fn("""
            void f(int x) {
              if (x == 0) { x = 1; } else if (x == 1) { x = 2; }
              else { x = 3; }
            }
        """)
        top = fn.body.stmts[0]
        assert isinstance(top, CIf)
        assert isinstance(top.els, CIf)

    def test_if_without_braces(self):
        fn = first_fn("void f(int x) { if (x) x = 1; else x = 2; }")
        top = fn.body.stmts[0]
        assert isinstance(top, CIf)
        assert isinstance(top.then, CBlock)

    def test_while_and_for(self):
        fn = first_fn("""
            void f(int n) {
              int i;
              while (n > 0) { n = n - 1; }
              for (i = 0; i < n; i++) { n = n + i; }
            }
        """)
        assert isinstance(fn.body.stmts[1], CWhile)
        loop = fn.body.stmts[2]
        assert isinstance(loop, CFor)
        assert isinstance(loop.step, CAssign)

    def test_assert_stmt(self):
        fn = first_fn("void f(int x) { assert(x != 0); }")
        assert isinstance(fn.body.stmts[0], CAssert)

    def test_return_forms(self):
        fn = first_fn("int f(int x) { if (x) { return 1; } return x; }")
        assert isinstance(fn.body.stmts[1], CReturn)

    def test_compound_assignment_sugar(self):
        fn = first_fn("void f(int x) { x += 2; x--; }")
        a, b = fn.body.stmts
        assert isinstance(a.value, CBinary) and a.value.op == "+"
        assert isinstance(b.value, CBinary) and b.value.op == "-"


class TestExpressions:
    def test_precedence(self):
        fn = first_fn("void f(int x, int y) { x = x + y * 2; }")
        e = fn.body.stmts[0].value
        assert e.op == "+" and e.rhs.op == "*"

    def test_short_circuit_parse(self):
        fn = first_fn("void f(int x, int y) { if (x && y || x) { x = 1; } }")
        cond = fn.body.stmts[0].cond
        assert cond.op == "||"
        assert cond.lhs.op == "&&"

    def test_cast_and_sizeof(self):
        unit = parse_c("""
            struct S { int a; };
            void f(void) {
              struct S *p = (struct S *)malloc(10 * sizeof(struct S));
            }
        """)
        d = unit.functions["f"].body.stmts[0]
        assert isinstance(d.init, CCast)
        call = d.init.arg
        assert isinstance(call, CCall) and call.name == "malloc"

    def test_nested_field_chain(self):
        unit = parse_c("""
            struct node { int val; struct node *next; };
            void f(struct node *x) { x->next->val = 1; }
        """)
        tgt = unit.functions["f"].body.stmts[0].target
        assert isinstance(tgt, CField) and isinstance(tgt.base, CField)

    def test_index_then_field(self):
        unit = parse_c("""
            struct S { int a; };
            void f(struct S *d) { d[0].a = 1; }
        """)
        tgt = unit.functions["f"].body.stmts[0].target
        assert isinstance(tgt, CField) and isinstance(tgt.base, CIndex)

    def test_address_of_rejected(self):
        with pytest.raises(CParseError):
            parse_c("void f(int x) { g(&x); }")

    @pytest.mark.parametrize("literal", ["٣", "2²"])
    def test_non_ascii_digit_literal_names_its_line(self, literal):
        src = f"int f() {{\n  int r;\n  r = {literal};\n  return r;\n}}"
        with pytest.raises(CParseError, match=r"line 3") as exc:
            parse_c(src)
        assert "ASCII digits" in str(exc.value)

    def test_unary_not_and_star(self):
        fn = first_fn("void f(int *p, int x) { if (!x) { x = *p; } }")
        cond = fn.body.stmts[0].cond
        assert isinstance(cond, CUnary) and cond.op == "!"
