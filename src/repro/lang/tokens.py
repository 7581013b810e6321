"""Token definitions for the MiniC front end."""

from __future__ import annotations

KEYWORDS = frozenset({
    "int", "float", "void", "const",
    "if", "else", "while", "for", "do",
    "return", "break", "continue",
})

#: Multi-character operators, longest first so the lexer can use
#: greedy matching.
OPERATORS = (
    "<<=", ">>=",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~",
    "(", ")", "{", "}", "[", "]", ";", ",", "?", ":",
)


class Token:
    """A single lexical token; tokens with equal fields are equal.

    ``kind`` is one of: ``"id"``, ``"int"``, ``"float"``, ``"kw"``,
    ``"op"``, ``"eof"``.  ``value`` holds the identifier text, the
    numeric value, the keyword, or the operator string.
    """

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: str, value: object, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def matches(self, kind: str, value=None) -> bool:
        return self.kind == kind and (value is None or self.value == value)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return (self.kind, self.value, self.line, self.col) \
            == (other.kind, other.value, other.line, other.col)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, line={self.line})"
