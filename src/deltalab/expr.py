"""A small arithmetic expression language for test functions of z.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?          right associative
    unary   := '-' unary | atom
    atom    := NUMBER | 'z' | NAME '(' expr ')' | '(' expr ')'

Note that unary minus binds tighter than '^', so -2^2 is (-2)^2 = 4,
while 2^3^2 is 2^(3^2) = 512.  Division by a literal zero is rejected at
parse time; division that vanishes only at runtime raises when evaluated.

Parse trees are plain tuples: ('num', v), ('var',), ('neg', t),
('bin', op, l, r), ('call', name, t).  to_source prints a fully
parenthesized form that parses back to the identical tree.  make_function
compiles the tree once, through the ast module, into a Python function
that sees only FUNCTIONS and no builtins.
"""

from __future__ import annotations

import ast
import math
import re
from typing import Callable

__all__ = ["ExpressionError", "FUNCTIONS", "parse", "to_source", "make_function"]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "abs": abs,
    "sqrt": math.sqrt,
    "sinh": math.sinh,
    "cosh": math.cosh,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


class ExpressionError(ValueError):
    """Parse failure, carrying the byte offset and the expected tokens."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        loc = f" at offset {offset}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(message + loc + exp)
        self.offset = offset
        self.expected = expected


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionError(f"unrecognized character {text[bad_at]!r}", bad_at)
        if m.lastgroup == "num":
            tokens.append(("num", m.group("num"), m.start("num")))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            self.advance()
            return
        raise ExpressionError(f"unexpected {val or 'end of input'!r}", off, (repr(op),))

    def parse(self) -> tuple:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExpressionError(
                f"trailing input {val!r}", off, ("operator", "end of input")
            )
        return node

    def expr(self) -> tuple:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = ("bin", val, node, self.term())
            else:
                return node

    def term(self) -> tuple:
        node = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                if val == "/" and rhs == ("num", 0.0):
                    raise ExpressionError("division by literal zero", off)
                node = ("bin", val, node, rhs)
            else:
                return node

    def factor(self) -> tuple:
        node = self.unary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return ("bin", "^", node, self.factor())
        return node

    def unary(self) -> tuple:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return ("neg", self.unary())
        return self.atom()

    def atom(self) -> tuple:
        kind, val, off = self.advance()
        if kind == "num":
            return ("num", float(val))
        if kind == "name":
            if val == "z":
                return ("var",)
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            raise ExpressionError(
                f"unknown identifier {val!r}",
                off,
                ("z", *sorted(FUNCTIONS)),
            )
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(
            f"unexpected {val or 'end of input'!r}",
            off,
            ("number", "z", "function", "'('", "'-'"),
        )


def parse(text: str) -> tuple:
    """Parse an expression in the variable z into a tuple tree."""
    if not isinstance(text, str):
        raise TypeError("expression must be a string")
    try:
        return _Parser(text).parse()
    except RecursionError:
        raise _too_deep() from None


def _too_deep() -> ExpressionError:
    return ExpressionError("expression nests too deeply", 0)


def to_source(node: tuple) -> str:
    """Fully parenthesized source; parse(to_source(t)) == t."""
    tag = node[0]
    if tag == "num":
        return "1e999" if node[1] == math.inf else repr(node[1])  # repr(inf) is 'inf'
    if tag == "var":
        return "z"
    if tag == "neg":
        return f"(-{to_source(node[1])})"
    if tag == "call":
        return f"{node[1]}({to_source(node[2])})"
    if tag == "bin":
        return f"({to_source(node[2])} {node[1]} {to_source(node[3])})"
    raise ValueError(f"malformed node {node!r}")


_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult, "/": ast.Div, "^": ast.Pow}
_AT = {"lineno": 1, "col_offset": 0}  # compile() wants a position on every node


def _to_ast(node: tuple) -> ast.expr:
    tag = node[0]
    if tag == "num":
        return ast.Constant(node[1], **_AT)
    if tag == "var":
        return ast.Name("z", ast.Load(), **_AT)
    if tag == "neg":
        return ast.UnaryOp(ast.USub(), _to_ast(node[1]), **_AT)
    if tag == "call":
        return ast.Call(ast.Name(node[1], ast.Load(), **_AT), [_to_ast(node[2])], [], **_AT)
    return ast.BinOp(_to_ast(node[2]), _OPS[node[1]](), _to_ast(node[3]), **_AT)


def _compile(tree: tuple) -> Callable[[float], float]:
    """Compile a parse tree into ``lambda z: ...`` that sees only FUNCTIONS."""
    args = ast.arguments([], [ast.arg("z", **_AT)], None, [], [], None, [])
    try:
        code = compile(ast.Expression(ast.Lambda(args, _to_ast(tree), **_AT)),
                       "<expression>", "eval")
    except RecursionError:
        raise _too_deep() from None
    return eval(code, {"__builtins__": {}, **FUNCTIONS})


# What an evaluation error means, by the error Python's arithmetic and the
# math module raise: TypeError comes from a complex value (a negative base
# raised to a fractional power) reaching float() or a math function.
_EVAL_FAILURES = (
    (TypeError, "is complex"),
    (ZeroDivisionError, "divides by zero"),
    (OverflowError, "overflows"),
    (ValueError, "leaves a function's domain"),
)


def make_function(text: str) -> Callable[[float], float]:
    """Compile an expression into a float -> float callable.

    A point where the expression is complex, divides by zero, overflows
    or leaves a function's domain (log or sqrt of a negative number)
    raises ValueError naming the expression and that z.  A value that is
    inf or nan without raising (1/z at a subnormal z) is returned; the
    quadrature rejects it with NonFiniteIntegrandError.  An expression
    nested too deeply to parse or compile raises ExpressionError.
    """
    core = _compile(parse(text))

    def fn(z: float) -> float:
        try:
            return float(core(z))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            what = next(msg for cls, msg in _EVAL_FAILURES if isinstance(exc, cls))
            raise ValueError(f"expression {text!r} {what} at z = {z!r}") from None

    return fn
