"""Recursive-descent parser for MiniC, precedence climbing for operators.

Produces the :mod:`repro.lang.ast_nodes` tree.  Array dimensions and
``const`` initializers are constant-folded during parsing (constants
must be declared before use), so every declared type has concrete
dimensions by the time semantic analysis runs.
"""

from __future__ import annotations

import operator

from ..errors import ParseError
from . import ast_nodes as ast
from .lexer import tokenize
from .tokens import Token

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

#: Binary operator precedence tiers, weakest first.
_BINARY_TIERS = (
    ("||",),
    ("&&",),
    ("|",),
    ("^",),
    ("&",),
    ("==", "!="),
    ("<", "<=", ">", ">="),
    ("<<", ">>"),
    ("+", "-"),
    ("*", "/", "%"),
)

#: Binary operator -> its index in ``_BINARY_TIERS``.
_TIER = {op: tier for tier, ops in enumerate(_BINARY_TIERS) for op in ops}

#: Operators constant folding evaluates exactly (``/`` is special-cased).
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul}


def parse_program(source: str) -> ast.Program:
    """Parse MiniC source text into a :class:`~repro.lang.ast_nodes.Program`."""
    return _Parser(source).parse()


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.constants: dict[str, float] = {}

    # -- token helpers --------------------------------------------------
    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def at(self, kind: str, value=None) -> bool:
        token = self.tokens[self.pos]
        return token.kind == kind and (value is None or token.value == value)

    def accept(self, kind: str, value=None) -> Token | None:
        token = self.tokens[self.pos]
        if token.kind == kind and (value is None or token.value == value):
            self.pos += 1
            return token
        return None

    def expect(self, kind: str, value=None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {self.tok.value!r}")
        return token

    def error(self, message: str) -> ParseError:
        return ParseError(message, line=self.tok.line, col=self.tok.col)

    # -- top level -------------------------------------------------------
    def parse(self) -> ast.Program:
        program = ast.Program(source=self.source)
        while not self.at("eof"):
            const = self.accept("kw", "const") is not None
            base = self._type_name()
            name_tok = self.expect("id")
            if self.at("op", "(") and not const:
                program.functions.append(self._function(base, name_tok))
            else:
                program.globals.append(self._global(base, name_tok, const))
        return program

    def _type_name(self) -> str:
        for base in ("int", "float", "void"):
            if self.accept("kw", base):
                return base
        raise self.error(f"expected a type, found {self.tok.value!r}")

    def _dims(self) -> tuple[int, ...]:
        dims = []
        while self.accept("op", "["):
            dims.append(self._const_int())
            self.expect("op", "]")
        return tuple(dims)

    def _global(self, base: str, name_tok: Token, const: bool) -> ast.GlobalDecl:
        if base == "void":
            raise self.error("void is not a valid variable type")
        dims = self._dims()
        init = None
        if self.accept("op", "="):
            if dims:
                init = self._initializer_list()
            else:
                init = self._const_value()
                if const:
                    self.constants[name_tok.value] = init
        elif const:
            raise self.error("const declaration requires an initializer")
        self.expect("op", ";")
        return ast.GlobalDecl(type=ast.Type(base, dims), name=name_tok.value,
                              init=init, const=const, line=name_tok.line)

    def _function(self, base: str, name_tok: Token) -> ast.FunctionDef:
        self.expect("op", "(")
        params: list[ast.Param] = []
        if not self.at("op", ")"):
            if self.at("kw", "void") and self.peek().matches("op", ")"):
                self.advance()
            else:
                while True:
                    ptype = self._type_name()
                    if ptype == "void":
                        raise self.error("void parameter")
                    pname = self.expect("id")
                    if self.at("op", "["):
                        raise self.error(
                            "array parameters are not supported; "
                            "use a global array (MiniC has no pointers)")
                    params.append(ast.Param(ast.Type(ptype), pname.value,
                                            pname.line))
                    if not self.accept("op", ","):
                        break
        self.expect("op", ")")
        body = self._block()
        return ast.FunctionDef(name=name_tok.value, ret_type=ast.Type(base),
                               params=params, body=body, line=name_tok.line)

    # -- constant folding (for dims, const and array initializers) -------
    def _const_int(self) -> int:
        value = self._const_value()
        if not isinstance(value, int):
            raise self.error("array dimension must be an integer constant")
        if value <= 0:
            raise self.error("array dimension must be positive")
        return value

    def _const_value(self):
        return self._const_eval(self._ternary())

    def _const_eval(self, expr: ast.Expr):
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, ast.FloatLit):
            return expr.value
        if isinstance(expr, ast.Name):
            if expr.name in self.constants:
                return self.constants[expr.name]
            raise ParseError(f"{expr.name!r} is not a known constant",
                             line=expr.line)
        if isinstance(expr, ast.Unary):
            value = self._const_eval(expr.operand)
            if expr.op == "-":
                return -value
            if expr.op == "+":
                return value
            if expr.op == "~" and isinstance(value, int):
                return ~value
        if isinstance(expr, ast.Binary):
            left = self._const_eval(expr.left)
            right = self._const_eval(expr.right)
            if expr.op in _FOLD:
                return _FOLD[expr.op](left, right)
            if expr.op == "/" and right != 0:
                if isinstance(left, int) and isinstance(right, int):
                    return int(left / right)
                return left / right
        raise ParseError("expression is not a compile-time constant",
                         line=expr.line)

    def _initializer_list(self) -> list:
        """Flat or nested brace initializer; returns a flat number list."""
        self.expect("op", "{")
        values: list = []
        if not self.at("op", "}"):
            while True:
                if self.at("op", "{"):
                    values.extend(self._initializer_list())
                else:
                    values.append(self._const_value())
                if not self.accept("op", ","):
                    break
        self.expect("op", "}")
        return values

    # -- statements -------------------------------------------------------
    def _block(self) -> ast.Block:
        brace = self.expect("op", "{")
        stmts = []
        while not self.at("op", "}"):
            stmts.append(self._statement())
        self.expect("op", "}")
        return ast.Block(stmts, line=brace.line)

    def _statement(self) -> ast.Stmt:
        tok = self.tok
        if self.at("op", "{"):
            return self._block()
        if self.at("kw", "const") or self.at("kw", "int") or self.at("kw", "float"):
            return self._local_decl()
        if self.accept("kw", "if"):
            self.expect("op", "(")
            cond = self._expression()
            self.expect("op", ")")
            then = self._statement()
            orelse = self._statement() if self.accept("kw", "else") else None
            return ast.If(cond, then, orelse, line=tok.line)
        if self.accept("kw", "while"):
            self.expect("op", "(")
            cond = self._expression()
            self.expect("op", ")")
            return ast.While(cond, self._statement(), line=tok.line)
        if self.accept("kw", "do"):
            body = self._statement()
            self.expect("kw", "while")
            self.expect("op", "(")
            cond = self._expression()
            self.expect("op", ")")
            self.expect("op", ";")
            return ast.DoWhile(body, cond, line=tok.line)
        if self.accept("kw", "for"):
            return self._for(tok)
        if self.accept("kw", "return"):
            value = None if self.at("op", ";") else self._expression()
            self.expect("op", ";")
            return ast.Return(value, line=tok.line)
        if self.accept("kw", "break"):
            self.expect("op", ";")
            return ast.Break(line=tok.line)
        if self.accept("kw", "continue"):
            self.expect("op", ";")
            return ast.Continue(line=tok.line)
        if self.accept("op", ";"):
            return ast.Block([], line=tok.line)
        expr = self._expression()
        self.expect("op", ";")
        return ast.ExprStmt(expr, line=tok.line)

    def _local_decl(self) -> ast.Stmt:
        const = self.accept("kw", "const") is not None
        tok = self.tok
        base = self._type_name()
        if base == "void":
            raise self.error("void is not a valid variable type")
        decls = []
        while True:
            name = self.expect("id")
            dims = self._dims()
            init = None
            if self.accept("op", "="):
                if dims:
                    init = self._initializer_list()
                else:
                    init = self._expression()
                    if const:
                        self.constants[name.value] = self._const_eval(init)
            elif const:
                raise self.error("const declaration requires an initializer")
            decls.append(ast.Decl(type=ast.Type(base, dims), name=name.value,
                                  init=init, line=name.line))
            if not self.accept("op", ","):
                break
        self.expect("op", ";")
        if len(decls) == 1:
            return decls[0]
        return ast.DeclGroup(decls, line=tok.line)

    def _for(self, tok: Token) -> ast.For:
        self.expect("op", "(")
        init: ast.Stmt | None = None
        if self.at("kw", "int") or self.at("kw", "float"):
            init = self._local_decl()       # consumes the ';'
        else:
            if not self.at("op", ";"):
                init = ast.ExprStmt(self._expression(), line=self.tok.line)
            self.expect("op", ";")
        cond = None if self.at("op", ";") else self._expression()
        self.expect("op", ";")
        update = None if self.at("op", ")") else self._expression()
        self.expect("op", ")")
        return ast.For(init, cond, update, self._statement(), line=tok.line)

    # -- expressions -------------------------------------------------------
    def _expression(self) -> ast.Expr:
        expr = self._ternary()
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value in _ASSIGN_OPS:
            if not isinstance(expr, (ast.Name, ast.Index)):
                raise self.error("assignment target must be a variable "
                                 "or array element")
            op = self.advance().value
            value = self._expression()
            return ast.Assign(expr, op, value, line=expr.line)
        return expr

    def _ternary(self) -> ast.Expr:
        cond = self._binary(0)
        if self.accept("op", "?"):
            then = self._expression()
            self.expect("op", ":")
            other = self._ternary()
            return ast.Ternary(cond, then, other, line=cond.line)
        return cond

    def _binary(self, min_tier: int) -> ast.Expr:
        """Operands bind to operators of tier ``min_tier`` or stronger."""
        left = self._unary()
        while True:
            tok = self.tokens[self.pos]
            tier = _TIER.get(tok.value) if tok.kind == "op" else None
            if tier is None or tier < min_tier:
                return left
            self.pos += 1
            right = self._binary(tier + 1)
            left = ast.Binary(tok.value, left, right, line=left.line)

    def _unary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "op" and tok.value in ("-", "!", "~", "+"):
            self.advance()
            return ast.Unary(tok.value, self._unary(), line=tok.line)
        if tok.kind == "op" and tok.value in ("++", "--"):
            self.advance()
            target = self._unary()
            if not isinstance(target, (ast.Name, ast.Index)):
                raise self.error(f"{tok.value} needs a variable operand")
            return ast.IncDec(target, tok.value, prefix=True, line=tok.line)
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        tok = self.tokens[self.pos]
        while tok.kind == "op" and tok.value in ("++", "--"):
            if not isinstance(expr, (ast.Name, ast.Index)):
                raise self.error(f"{tok.value} needs a variable operand")
            self.pos += 1
            expr = ast.IncDec(expr, tok.value, prefix=False, line=expr.line)
            tok = self.tokens[self.pos]
        return expr

    def _primary(self) -> ast.Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "int":
            self.advance()
            return ast.IntLit(tok.value, line=tok.line)
        if tok.kind == "float":
            self.advance()
            return ast.FloatLit(tok.value, line=tok.line)
        if tok.kind == "id":
            self.advance()
            if self.accept("op", "("):
                args = []
                if not self.at("op", ")"):
                    while True:
                        args.append(self._expression())
                        if not self.accept("op", ","):
                            break
                self.expect("op", ")")
                return ast.Call(tok.value, args, line=tok.line)
            if self.at("op", "["):
                indices = []
                while self.accept("op", "["):
                    indices.append(self._expression())
                    self.expect("op", "]")
                return ast.Index(tok.value, indices, line=tok.line)
            return ast.Name(tok.value, line=tok.line)
        if self.accept("op", "("):
            expr = self._expression()
            self.expect("op", ")")
            return expr
        raise self.error(f"unexpected token {tok.value!r} in expression")
