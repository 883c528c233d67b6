"""A small expression language for series: literals, z, + - * / ^,
parentheses, and log in the two shapes log(1/(1-z)) and log(1-z).

Precedence, tightest first: ^  then unary -  then * /  then + -.
Exponents are literals known at parse time: an integer, or a parenthesized
integer or ratio such as ^(-3) or ^(1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .series import (
    PowerSeries,
    SeriesDomainError,
    ZeroToOrderError,
    constant,
    identity_z,
    log_geometric,
    ps_add,
    ps_div,
    ps_mul,
    ps_pow,
    ps_sub,
    valuation,
)


class LexError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at offset {pos}")
        self.pos = pos


class EvalError(ValueError):
    pass


# ---------------------------------------------------------------- AST

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: object
    right: object


@dataclass(frozen=True)
class Sub:
    left: object
    right: object


@dataclass(frozen=True)
class Mul:
    left: object
    right: object


@dataclass(frozen=True)
class Div:
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: Fraction


@dataclass(frozen=True)
class LogGeom:
    """log(1/(1-z)) = -log(1-z), the only log shape the language knows."""


# ---------------------------------------------------------------- lexer

@dataclass(frozen=True)
class Token:
    kind: str  # INT, NAME, or the operator/paren character itself
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("z", "log"):
                raise LexError(f"unknown identifier {word!r}", i)
            tokens.append(Token("NAME", word, i))
            i = j
        elif ch in "+-*/^()":
            tokens.append(Token(ch, ch, i))
            i += 1
        else:
            raise LexError(f"unexpected character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------- parser

class _Parser:
    def __init__(self, tokens: list[Token], length: int):
        self.tokens = tokens
        self.i = 0
        self.length = length

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.length)
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            pos = tok.pos if tok else self.length
            got = repr(tok.text) if tok else "end of input"
            raise ParseError(f"expected {kind!r}, got {got}", pos)
        return self.next()

    def parse_expr(self):
        node = self.parse_term()
        while (tok := self.peek()) and tok.kind in "+-":
            self.next()
            right = self.parse_term()
            node = Add(node, right) if tok.kind == "+" else Sub(node, right)
        return node

    def parse_term(self):
        node = self.parse_unary()
        while (tok := self.peek()) and tok.kind in "*/":
            self.next()
            right = self.parse_unary()
            node = Mul(node, right) if tok.kind == "*" else Div(node, right)
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok and tok.kind == "-":
            self.next()
            return Sub(Lit(Fraction(0)), self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "^":
            self.next()
            return Pow(base, self.parse_exponent())
        return base

    def parse_exponent(self) -> Fraction:
        tok = self.peek()
        if tok and tok.kind == "INT":
            self.next()
            return Fraction(int(tok.text))
        if tok and tok.kind == "(":
            self.next()
            sign = 1
            if (t := self.peek()) and t.kind == "-":
                self.next()
                sign = -1
            num = int(self.expect("INT").text)
            den = 1
            if (t := self.peek()) and t.kind == "/":
                self.next()
                den_tok = self.expect("INT")
                den = int(den_tok.text)
                if den == 0:
                    raise ParseError("zero denominator in exponent", den_tok.pos)
            self.expect(")")
            return Fraction(sign * num, den)
        pos = tok.pos if tok else self.length
        raise ParseError("exponent must be an integer or parenthesized ratio", pos)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return Lit(Fraction(int(tok.text)))
        if tok.kind == "NAME" and tok.text == "z":
            return Var()
        if tok.kind == "NAME" and tok.text == "log":
            self.expect("(")
            arg = self.parse_expr()
            self.expect(")")
            return self._log_node(arg, tok.pos)
        if tok.kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    @staticmethod
    def _log_node(arg, pos: int):
        one_minus_z = Sub(Lit(Fraction(1)), Var())
        if arg == Div(Lit(Fraction(1)), one_minus_z):
            return LogGeom()
        if arg == one_minus_z:
            return Sub(Lit(Fraction(0)), LogGeom())
        raise ParseError(
            "log supports only the shapes log(1/(1-z)) and log(1-z)", pos
        )


def parse(tokens: list[Token], length: int | None = None):
    if length is None:
        length = tokens[-1].pos + len(tokens[-1].text) if tokens else 0
    p = _Parser(tokens, length)
    try:
        node = p.parse_expr()
    except RecursionError:
        tok = p.peek()
        raise ParseError("expression nested too deeply",
                         tok.pos if tok else length) from None
    if (tok := p.peek()) is not None:
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return node


def parse_text(text: str):
    return parse(tokenize(text), len(text))


# ---------------------------------------------------------------- printer

def pretty(expr) -> str:
    """Render an AST so that reparsing gives back the identical tree.
    Binary subexpressions are fully parenthesized."""
    match expr:
        case Lit(value):
            if value.denominator == 1:
                return str(value.numerator)
            return f"({value.numerator}/{value.denominator})"
        case Var():
            return "z"
        case LogGeom():
            return "log(1/(1-z))"
        case Sub(Lit(value), inner) if value == 0:
            return f"-{pretty(inner)}"
        case Add(l, r):
            return f"({pretty(l)} + {pretty(r)})"
        case Sub(l, r):
            return f"({pretty(l)} - {pretty(r)})"
        case Mul(l, r):
            return f"({pretty(l)} * {pretty(r)})"
        case Div(l, r):
            return f"({pretty(l)} / {pretty(r)})"
        case Pow(base, e):
            bs = pretty(base)
            if not (bs.startswith("(") or isinstance(base, (Lit, Var, LogGeom))):
                bs = f"({bs})"
            if e.denominator == 1 and e >= 0:
                return f"{bs}^{e.numerator}"
            if e.denominator == 1:
                return f"{bs}^({e.numerator})"
            return f"{bs}^({e.numerator}/{e.denominator})"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------- evaluator

def evaluate(expr, order: int) -> PowerSeries:
    """Expand an expression into a truncated series of the given order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    try:
        return _eval(expr, order)
    except SeriesDomainError as exc:
        raise EvalError(str(exc)) from exc


def _eval(expr, order: int) -> PowerSeries:
    match expr:
        case Lit(value):
            return constant(value, order)
        case Var():
            return identity_z(order)
        case LogGeom():
            return log_geometric(order)
        case Add(l, r):
            return ps_add(_eval(l, order), _eval(r, order))
        case Sub(l, r):
            return ps_sub(_eval(l, order), _eval(r, order))
        case Mul(l, r):
            return ps_mul(_eval(l, order), _eval(r, order))
        case Div(l, r):
            try:
                return ps_div(_eval(l, order), _eval(r, order))
            except SeriesDomainError as exc:
                raise EvalError(f"in {pretty(expr)}: {exc}") from exc
        case Pow(base, e):
            b = _eval(base, order)
            try:
                return ps_pow(b, e)
            except SeriesDomainError as exc:
                if valuation(b) is None:
                    # The base's leading term may lie above the order.
                    exc = ZeroToOrderError(str(exc))
                raise EvalError(f"in {pretty(expr)}: {exc}") from exc
    raise TypeError(f"not an expression node: {expr!r}")
