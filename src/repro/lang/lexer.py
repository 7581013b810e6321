"""Regex lexer for MiniC.

MiniC is the C subset the benchmark programs are written in: enough of
C to port the paper's thirteen Table-I routines, while honoring the
paper's decidability restrictions (no pointers, no dynamic memory, no
recursion — the latter two enforced later, in semantic analysis).

One compiled pattern scans the source: each match is a run of blanks
and one newline, comment or token, and the group that matched says
which.  Columns count characters from the start of the line.
"""

from __future__ import annotations

import re

from ..errors import LexError
from .tokens import KEYWORDS, OPERATORS, Token

# Group numbers of the scanner's alternatives.  Order matters: the
# comments come before the ``/`` operator and hex before decimal.
# ``_OTHER_WORD`` takes a word starting with a non-ASCII letter (an
# identifier) or a non-decimal digit or numeral (an error); ``_END``
# keeps ``_OTHER`` from taking the blanks before the end of input.
_NEWLINE, _LINE_COMMENT, _COMMENT, _OPEN_COMMENT, _HEX, _NUMBER, \
    _NAME, _OP, _OTHER_WORD, _END, _OTHER = range(1, 12)

_SCAN = re.compile(r"[ \t\r]*(?:" + "|".join((
    r"(\n)",
    r"(//[^\n]*)",
    r"(/\*(?s:.*?)\*/)",
    r"(/\*)",
    r"(0[xX][\da-fA-F]*)",
    r"((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d*)?)",
    r"([A-Za-z_]\w*)",
    "(" + "|".join(map(re.escape, OPERATORS)) + ")",
    r"(\w+)",
    r"(\Z)",
    r"(.)",
)) + ")")


def tokenize(source: str) -> list[Token]:
    """Convert MiniC source text into a token list ending with EOF.

    The lexical rules and errors are listed in ``docs/minic.md``.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for match in _SCAN.finditer(source):
        group = match.lastindex
        start = match.start(group)
        col = start - line_start + 1
        if group == _OP:
            append(Token("op", match[group], line, col))
        elif group == _NAME or (group == _OTHER_WORD
                                and match[group][0].isalpha()):
            text = match[group]
            append(Token("kw" if text in KEYWORDS else "id", text, line, col))
        elif group == _NEWLINE:
            line, line_start = line + 1, start + 1
        elif group == _NUMBER or group == _HEX:
            append(_number(source, match, group, line, col))
        elif group == _COMMENT:
            text = match[group]
            if "\n" in text:
                line += text.count("\n")
                line_start = start + text.rfind("\n") + 1
        elif group != _LINE_COMMENT and group != _END:
            _stray(source, start, group, line, col)
    append(Token("eof", None, line, len(source) - line_start + 1))
    return tokens


def _number(source: str, match, group: int, line: int, col: int) -> Token:
    text = match[group]
    if group == _HEX and len(text) == 2:
        raise LexError("malformed hex literal", line=line, col=col)
    if group == _NUMBER and text[-1] in "eE+-":
        raise LexError("malformed float exponent", line=line, col=col)
    glued = source[match.end():match.end() + 1]
    if glued.isalpha() or glued == "_":
        raise LexError(f"bad character {glued!r} after number",
                       line=line, col=col)
    if glued.isdigit():
        raise LexError(f"non-decimal digit {glued!r} in number",
                       line=line, col=col)
    if group == _HEX:
        return Token("int", int(text, 16), line, col)
    if not text.isdecimal():
        return Token("float", float(text), line, col)
    try:
        return Token("int", int(text), line, col)
    except ValueError:      # more digits than int() converts
        raise LexError("integer literal too long", line=line,
                       col=col) from None


def _stray(source: str, start: int, group: int, line: int,
           col: int) -> None:
    """Raise for an unterminated comment or a character no token takes."""
    if group == _OPEN_COMMENT:
        raise LexError("unterminated /* comment", line=line, col=col)
    char = source[start]
    # A digit int() rejects, alone or after a dot, starts a number.
    digit = source[start + 1:start + 2] if char == "." else char
    if digit.isdigit():
        raise LexError(f"non-decimal digit {digit!r} in number",
                       line=line, col=col)
    raise LexError(f"unexpected character {char!r}", line=line, col=col)
