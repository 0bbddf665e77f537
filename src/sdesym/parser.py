"""Recursive-descent parser for the expression grammar.

Grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ['^' unary]                # right associative
    atom   := NUMBER
            | IDENT                           # symbol
            | IDENT TICKS? '(' expr ')'       # function application
            | '(' expr ')'

Identifiers followed by '(' are function applications: exp, log, sin, cos
and sqrt are primitives, anything else becomes an opaque function symbol.
A run of apostrophes between the name and the parenthesis is a derivative
order tag: ``eta''(u)`` is the second derivative of eta at u.

Numeric literals are exact: ``0.5`` parses to the rational 1/2, not to a
binary float.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .expr import (
    Expr, Sym, ExprError, mul, pow_, prim, opaque, add, as_expr,
    PRIMITIVES,
)

__all__ = ["parse", "ExprSyntaxError"]

_FUNC_NAMES = set(PRIMITIVES) | {"sqrt"}


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, text: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (column {pos + 1}): {text!r}")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                while j < n and (text[j].isdigit() or text[j] == "."):
                    j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                lit = text[i:j]
                if lit.count(".") > 1:
                    raise ExprSyntaxError("bad numeric literal", self.text, i)
                self.tokens.append(("num", lit, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                name = text[i:j]
                ticks = 0
                while j < n and text[j] == "'":
                    ticks += 1
                    j += 1
                self.tokens.append(("ident", (name, ticks), i))
                i = j
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            raise ExprSyntaxError(f"unexpected character {ch!r}", self.text, i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


def parse(text: str) -> Expr:
    """Parse `text` to a canonical expression tree."""
    lx = _Lexer(text)
    e = _parse_expr(lx)
    kind, _, pos = lx.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", text, pos)
    return e


def _parse_expr(lx: _Lexer) -> Expr:
    e = _parse_term(lx)
    while lx.peek()[0] in ("+", "-"):
        op = lx.next()[0]
        rhs = _parse_term(lx)
        e = add(e, rhs) if op == "+" else add(e, mul(-1, rhs))
    return e


def _parse_term(lx: _Lexer) -> Expr:
    e = _parse_unary(lx)
    while lx.peek()[0] in ("*", "/"):
        op = lx.next()[0]
        rhs = _parse_unary(lx)
        e = mul(e, rhs) if op == "*" else mul(e, pow_(rhs, -1))
    return e


def _parse_unary(lx: _Lexer) -> Expr:
    if lx.peek()[0] == "-":
        lx.next()
        return mul(-1, _parse_unary(lx))
    return _parse_power(lx)


def _parse_power(lx: _Lexer) -> Expr:
    base = _parse_atom(lx)
    if lx.peek()[0] == "^":
        lx.next()
        exponent = _parse_unary(lx)
        return pow_(base, exponent)
    return base


def _parse_atom(lx: _Lexer) -> Expr:
    kind, val, pos = lx.next()
    if kind == "num":
        return as_expr(Fraction(Decimal(val)))
    if kind == "(":
        e = _parse_expr(lx)
        k2, _, p2 = lx.next()
        if k2 != ")":
            raise ExprSyntaxError("expected ')'", lx.text, p2)
        return e
    if kind == "ident":
        name, ticks = val
        if lx.peek()[0] == "(":
            lx.next()
            arg = _parse_expr(lx)
            k2, _, p2 = lx.next()
            if k2 != ")":
                raise ExprSyntaxError("expected ')'", lx.text, p2)
            if name in _FUNC_NAMES:
                if ticks:
                    raise ExprSyntaxError(
                        f"derivative tag on primitive {name!r}", lx.text, pos)
                return prim(name, arg)
            return opaque(name, ticks, arg)
        if ticks:
            raise ExprSyntaxError(
                "derivative tag must be followed by an argument list",
                lx.text, pos)
        return Sym(name)
    raise ExprSyntaxError("expected a value", lx.text, pos)
