"""Lexer, type checker, and pretty-printer round-trip tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.lexer import KEYWORDS, PUNCT, LexError, tokenize
from repro.lang.parser import parse_program
from repro.lang.pretty import pp_program
from repro.lang.typecheck import TypeError_, typecheck


class TestLexer:
    def test_keywords_vs_identifiers(self):
        toks = tokenize("var varx assert asserting")
        kinds = [(t.kind, t.text) for t in toks[:-1]]
        assert kinds == [("kw", "var"), ("id", "varx"),
                         ("kw", "assert"), ("id", "asserting")]

    def test_punct_longest_match(self):
        toks = tokenize("<==> ==> == = <= <")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["<==>", "==>", "==", "=", "<=", "<"]

    def test_comments_skipped(self):
        toks = tokenize("x // line comment\n /* block\ncomment */ y")
        texts = [t.text for t in toks[:-1]]
        assert texts == ["x", "y"]

    def test_line_numbers(self):
        toks = tokenize("a\nb\n\nc")
        assert [t.line for t in toks[:-1]] == [1, 2, 4]

    def test_dollar_identifiers(self):
        toks = tokenize("lam$1$free$Freed deref$3")
        assert toks[0].text == "lam$1$free$Freed"
        assert toks[1].text == "deref$3"

    def test_unterminated_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("/* oops")

    def test_bad_character_raises(self):
        with pytest.raises(LexError):
            tokenize("x @ y")

    def test_numbers(self):
        toks = tokenize("123 0 42")
        assert [t.kind for t in toks[:-1]] == ["int"] * 3

    @pytest.mark.parametrize("src,expected", [
        ("a /* one\ntwo\n  */ b", [("id", "a", 1, 1), ("id", "b", 3, 6),
                                   ("eof", "", 3, 7)]),
        ("/* x */\tb\r c", [("id", "b", 1, 9), ("id", "c", 1, 12),
                            ("eof", "", 1, 13)]),
        ("x!= y", [("id", "x", 1, 1), ("punct", "!=", 1, 2),
                   ("id", "y", 1, 5), ("eof", "", 1, 6)]),
        ("a.b! c..d", [("id", "a.b", 1, 1), ("punct", "!", 1, 4),
                       ("id", "c..d", 1, 6), ("eof", "", 1, 10)]),
        ("12ab\n// tail", [("int", "12", 1, 1), ("id", "ab", 1, 3),
                           ("eof", "", 2, 1)]),
        ("é1 2² ٣ a½", [("id", "é1", 1, 1), ("int", "2²", 1, 4),
                        ("int", "٣", 1, 7), ("id", "a½", 1, 9),
                        ("eof", "", 1, 11)]),
        ("10é", [("int", "10", 1, 1), ("id", "é", 1, 3), ("eof", "", 1, 4)]),
    ])
    def test_positions(self, src, expected):
        assert _quads(tokenize(src)) == expected

    @pytest.mark.parametrize("src,message", [
        ("a. b", "unexpected character '.' at line 1, col 2"),
        ("x =\n \u00a0y", "unexpected character '\\xa0' at line 2, col 2"),
        ("½", "unexpected character '½' at line 1, col 1"),
        ("x\n/* open\n", "unterminated comment at line 2"),
    ])
    def test_error_text(self, src, message):
        with pytest.raises(LexError) as exc:
            tokenize(src)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        list("aZ_$09.!=<>-*/ \t\r\n:;&|(") + ["//", "/*", "*/", "é", "²",
                                              "٣", "½", "\u00a0"]))
           .map("".join))
    def test_matches_the_character_scanner(self, src):
        """Token for token and error for error, :func:`tokenize` equals
        the reference scanner below, which applies the lexer's ``str``
        predicates (``isdigit``, ``isalpha``, ``isalnum``) one character
        at a time."""
        try:
            expected = _scan(src)
        except LexError as exc:
            with pytest.raises(LexError) as got:
                tokenize(src)
            assert str(got.value) == str(exc)
        else:
            assert _quads(tokenize(src)) == expected


def _quads(toks) -> list:
    return [(t.kind, t.text, t.line, t.col) for t in toks]


def _scan(src: str) -> list:
    """A character-at-a-time scanner of the lexer's token rules, the
    reference for :func:`tokenize`."""
    toks, i, line, col, n = [], 0, 1, 1, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
        elif c in " \t\r":
            i, col = i + 1, col + 1
        elif src.startswith("//", i):
            while i < n and src[i] != "\n":
                i += 1
        elif src.startswith("/*", i):
            end = src.find("*/", i + 2)
            if end < 0:
                raise LexError(f"unterminated comment at line {line}")
            skipped = src[i:end + 2]
            line += skipped.count("\n")
            col = len(skipped) - skipped.rfind("\n") if "\n" in skipped \
                else col + len(skipped)
            i = end + 2
        else:
            j = i
            if c.isdigit():
                while j < n and src[j].isdigit():
                    j += 1
                kind = "int"
            elif c.isalpha() or c in "_$":
                while j < n and (src[j].isalnum() or src[j] in "_$.!"):
                    j += 1
                while src[j - 1] in ".!":
                    j -= 1
                kind = "kw" if src[i:j] in KEYWORDS else "id"
            else:
                p = next((p for p in PUNCT if src.startswith(p, i)), None)
                if p is None:
                    raise LexError(f"unexpected character {c!r} at line "
                                   f"{line}, col {col}")
                j, kind = i + len(p), "punct"
            toks.append((kind, src[i:j], line, col))
            col += j - i
            i = j
    return toks + [("eof", "", line, col)]


GOOD = """
var g: int;
var M: [int]int;
function f(int): int;

procedure P(x: int) returns (r: int)
  requires x > 0;
  modifies g;
{
  var t: int;
  t := f(x) + M[x];
  if (t == 0) { r := 1; } else { r := 2; }
}
"""


class TestTypecheck:
    def test_good_program_passes(self):
        typecheck(parse_program(GOOD))

    @pytest.mark.parametrize("src,fragment", [
        ("procedure P() { x := 1; }", "undeclared"),
        ("procedure P(M: [int]int) { M := 1; }", "assigning"),
        ("procedure P(x: int) { x[0] := 1; }", "indexing non-map"),
        ("var g: int; procedure P(M: [int]int) { assume M < M; }",
         "ordering"),
        ("procedure P(x: int) { call x := Q(); }", "unknown procedure"),
        ("procedure Q(a: int); procedure P(x: int) { call Q(); }",
         "with 0 args"),
        ("procedure Q() returns (r: int); procedure P(x: int) { call Q(); }",
         "binds 0"),
        ("procedure P(x: int) modifies x; { skip; }", "non-global"),
        ("function f(int): int; procedure P(x: int) { x := f(x, x); }",
         "applied to 2"),
    ])
    def test_errors(self, src, fragment):
        with pytest.raises(TypeError_) as exc:
            typecheck(parse_program(src))
        assert fragment in str(exc.value)

    def test_map_equality_allowed(self):
        typecheck(parse_program(
            "procedure P(M: [int]int, N: [int]int) { assume M == N; }"))


class TestPrettyRoundTrip:
    def test_parse_pp_parse_fixpoint(self):
        prog1 = typecheck(parse_program(GOOD))
        text1 = pp_program(prog1)
        prog2 = typecheck(parse_program(text1))
        text2 = pp_program(prog2)
        assert text1 == text2

    def test_roundtrip_preserves_structure(self):
        prog1 = parse_program(GOOD)
        prog2 = parse_program(pp_program(prog1))
        assert prog1.globals == prog2.globals
        assert prog1.functions == prog2.functions
        p1, p2 = prog1.proc("P"), prog2.proc("P")
        assert p1.params == p2.params
        assert p1.body == p2.body

    def test_spec_only_roundtrip(self):
        src = "procedure E(x: int) returns (r: int);"
        prog1 = parse_program(src)
        prog2 = parse_program(pp_program(prog1))
        assert prog2.proc("E").body is None

    def test_nondet_constructs_roundtrip(self):
        src = ("procedure P(x: int) { if (*) { havoc x; } "
               "while (*) { x := x + 1; } }")
        prog1 = parse_program(src)
        prog2 = parse_program(pp_program(prog1))
        assert prog1.proc("P").body == prog2.proc("P").body
