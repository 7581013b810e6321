"""Hand-written lexer for MiniC.

MiniC is the C subset the benchmark programs are written in: enough of
C to port the paper's thirteen Table-I routines, while honoring the
paper's decidability restrictions (no pointers, no dynamic memory, no
recursion — the latter two enforced later, in semantic analysis).
"""

from __future__ import annotations

from ..errors import LexError
from .tokens import KEYWORDS, OPERATORS, Token


def tokenize(source: str) -> list[Token]:
    """Convert MiniC source text into a token list ending with EOF."""
    tokens: list[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)

    def error(message: str) -> LexError:
        return LexError(message, line=line, col=col)

    while i < n:
        ch = source[i]
        # Whitespace --------------------------------------------------
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        # Comments ----------------------------------------------------
        if source.startswith("//", i):
            end = source.find("\n", i)
            i = n if end == -1 else end
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end == -1:
                raise error("unterminated /* comment")
            newlines = source.count("\n", i, end)
            if newlines:
                line += newlines
                # The column restarts after the comment's last newline.
                col = end + 2 - source.rfind("\n", i, end)
            else:
                col += end + 2 - i
            i = end + 2
            continue
        # Numbers -----------------------------------------------------
        if source.startswith(("0x", "0X"), i):
            start = i
            i += 2
            while i < n and (source[i].isdigit()
                             or source[i].lower() in "abcdef"):
                i += 1
            if i == start + 2:
                raise error("malformed hex literal")
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise error(f"bad character {source[i]!r} after number")
            tokens.append(Token("int", int(source[start:i], 16), line, col))
            col += i - start
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            is_float = False
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                is_float = True
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and source[i] in "eE":
                is_float = True
                i += 1
                if i < n and source[i] in "+-":
                    i += 1
                if i >= n or not source[i].isdigit():
                    raise error("malformed float exponent")
                while i < n and source[i].isdigit():
                    i += 1
            if i < n and (source[i].isalpha() or source[i] == "_"):
                raise error(f"bad character {source[i]!r} after number")
            text = source[start:i]
            if is_float:
                tokens.append(Token("float", float(text), line, col))
            else:
                tokens.append(Token("int", int(text), line, col))
            col += i - start
            continue
        # Identifiers / keywords --------------------------------------
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            kind = "kw" if text in KEYWORDS else "id"
            tokens.append(Token(kind, text, line, col))
            col += i - start
            continue
        # Operators / punctuation -------------------------------------
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise error(f"unexpected character {ch!r}")

    tokens.append(Token("eof", None, line, col))
    return tokens
