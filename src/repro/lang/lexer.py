"""Lexer for the mini-Boogie surface syntax.

One compiled pattern scans the source.  The token rules are those of
``str.isdigit``, ``isalpha`` and ``isalnum``.  The pattern's classes
are ASCII but for ``\\w``, which in a ``str`` pattern is exactly
``isalnum`` or ``_``; beyond ASCII, ``\\d`` and the others do not match
the predicates exactly (``2²`` is one ``int`` token).  So where the
pattern matches nothing, at a non-ASCII character or at an ASCII number
that one follows, :func:`_scan_unmatched` scans the token with the
predicates or raises the :class:`LexError`.
"""

from __future__ import annotations

import re
from typing import NamedTuple


class LexError(SyntaxError):
    pass


class Token(NamedTuple):
    kind: str   # 'id', 'int', 'punct', 'kw', 'eof'
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover
        return f"{self.kind}:{self.text!r}@{self.line}:{self.col}"


KEYWORDS = {
    "var", "function", "procedure", "returns", "requires", "ensures",
    "modifies", "int", "assert", "assume", "skip", "havoc", "if", "else",
    "while", "call", "return", "true", "false",
}

# Longest-match punctuation, ordered by length.
PUNCT = [
    "<==>", "==>", ":=", "==", "!=", "<=", ">=", "&&", "||",
    "(", ")", "{", "}", "[", "]", ",", ";", ":", "<", ">", "+", "-", "*",
    "!", "=",
]

#: An identifier continues with ``isalnum`` characters, ``_``, ``$``,
#: ``.`` and ``!``, and does not end with ``.`` or ``!``.
_ID_TAIL = r"[\w$]*(?:[.!]+[\w$]+)*"

_TOKEN = re.compile("|".join([
    r"(?P<space>[ \t\r]+)",
    rf"(?P<id>[A-Za-z_$]{_ID_TAIL})",
    "(?P<punct>" + "|".join(map(re.escape, PUNCT)) + ")",
    r"(?P<newline>\n)",
    r"(?P<int>[0-9]+)(?![0-9]|[^\x00-\x7f])",
    r"(?P<comment>//[^\n]*)",
    r"(?P<block>/\*(?s:.*?)\*/)",
]))


def _scan_unmatched(src: str, i: int, line: int,
                    col: int) -> tuple[str, int]:
    """``(kind, end)`` of the token at ``src[i]``, where the pattern
    matched nothing, or :class:`LexError`."""
    c = src[i]
    j = i + 1
    n = len(src)
    if c.isdigit():
        while j < n and src[j].isdigit():
            j += 1
        return "int", j
    if c.isalpha():  # an id: every keyword is ASCII
        while j < n and (src[j].isalnum() or src[j] in "_$.!"):
            j += 1
        while src[j - 1] in ".!":
            j -= 1
        return "id", j
    if src.startswith("/*", i):
        raise LexError(f"unterminated comment at line {line}")
    raise LexError(f"unexpected character {c!r} at line {line}, col {col}")


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    append = toks.append
    match = _TOKEN.match
    n = len(src)
    i = 0
    line = 1
    bol = 0         # index of the current line's first character
    eof_at = n      # where the end-of-file token sits
    while i < n:
        m = match(src, i)
        kind = m.lastgroup if m is not None else None
        if kind == "space":
            i = m.end()
        elif kind == "newline":
            i = bol = i + 1
            line += 1
        elif kind == "comment":
            j = m.end()
            if j == n:
                eof_at = i  # a trailing line comment leaves the column
            i = j
        elif kind == "block":
            j = m.end()
            newlines = src.count("\n", i, j)
            if newlines:
                line += newlines
                bol = src.rfind("\n", i, j) + 1
            i = j
        else:
            if kind is None:
                kind, j = _scan_unmatched(src, i, line, i - bol + 1)
            else:
                j = m.end()
            text = src[i:j]
            append(Token("kw" if kind == "id" and text in KEYWORDS else kind,
                         text, line, i - bol + 1))
            i = j
    append(Token("eof", "", line, eof_at - bol + 1))
    return toks
