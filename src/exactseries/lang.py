"""A small expression language for series: literals, z, + - * / ^,
parentheses, and log in the two shapes log(1/(1-z)) and log(1-z).

Precedence, tightest first: ^  then unary -  then * /  then + -.
Exponents are literals known at parse time: an integer, or a parenthesized
integer or ratio such as ^(-3) or ^(1/2).

An AST node is a tuple whose first item names its shape:

    ("lit", value)        a Fraction literal
    ("z",)                the variable
    ("log",)              log(1/(1-z)) = -log(1-z), the only log shape
    ("^", base, e)        base to the Fraction power e
    (op, left, right)     op one of "+", "-", "*", "/"

Unary minus is ("-", ("lit", 0), operand).  Trees compare by value, and the
tag keeps shapes with the same fields apart, such as 1*(1+z) and 1/(1+z).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .series import (
    PowerSeries,
    SeriesDomainError,
    constant,
    identity_z,
    log_geometric,
    ps_add,
    ps_affine,
    ps_div,
    ps_mul,
    ps_pow,
    ps_sub,
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


# ---------------------------------------------------------------- lexer

class Token(NamedTuple):
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
            node = (tok.kind, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while (tok := self.peek()) and tok.kind in "*/":
            self.next()
            node = (tok.kind, node, self.parse_unary())
        return node

    def parse_unary(self):
        tok = self.peek()
        if tok and tok.kind == "-":
            self.next()
            return ("-", ("lit", Fraction(0)), self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        tok = self.peek()
        if tok and tok.kind == "^":
            self.next()
            return ("^", base, self.parse_exponent())
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
            return ("lit", Fraction(int(tok.text)))
        if tok.kind == "NAME" and tok.text == "z":
            return ("z",)
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
        one_minus_z = ("-", ("lit", Fraction(1)), ("z",))
        if arg == ("/", ("lit", Fraction(1)), one_minus_z):
            return ("log",)
        if arg == one_minus_z:
            return ("-", ("lit", Fraction(0)), ("log",))
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
        case ("lit", value):
            if value.denominator == 1:
                return str(value.numerator)
            return f"({value.numerator}/{value.denominator})"
        case ("z",):
            return "z"
        case ("log",):
            return "log(1/(1-z))"
        case ("-", ("lit", 0), inner):
            return f"-{pretty(inner)}"
        case (("+" | "-" | "*" | "/") as op, l, r):
            return f"({pretty(l)} {op} {pretty(r)})"
        case ("^", base, e):
            bs = pretty(base)
            if base[0] == "^" or not (bs.startswith("(")
                                      or base[0] in ("lit", "z", "log")):
                bs = f"({bs})"
            if e.denominator == 1 and e >= 0:
                return f"{bs}^{e.numerator}"
            if e.denominator == 1:
                return f"{bs}^({e.numerator})"
            return f"{bs}^({e.numerator}/{e.denominator})"
    raise TypeError(f"not an expression node: {expr!r}")


# ---------------------------------------------------------------- evaluator

# The series operator of each binary node, looked up by name when it is
# applied, so that a rebound module global (a wrapper, a test double) is the
# one called.
_OPS = {"+": "ps_add", "-": "ps_sub", "*": "ps_mul", "/": "ps_div",
        "^": "ps_pow"}


def evaluate(expr, order: int) -> PowerSeries:
    """Expand an expression into a truncated series of the given order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    value = _eval(expr, order)
    return constant(value, order) if isinstance(value, Fraction) else value


def _eval(expr, order: int) -> PowerSeries | Fraction:
    """The series of expr, or its Fraction value when it has no z.

    + - * of two Fractions is a Fraction, and with one Fraction operand they
    scale or shift the series operand, as does / by a nonzero Fraction.  ^,
    / by zero and / of two Fractions build a constant series and take the
    series operator, so they raise and retry as any series operand would.
    """
    match expr:
        case ("lit", value):
            return value
        case ("z",):
            return identity_z(order)
        case ("log",):
            return log_geometric(order)
        case (op, left, right) if op in _OPS:
            a = _eval(left, order)
            # The right of ^ is its Fraction exponent, not a subtree.
            b = right if op == "^" else _eval(right, order)
            match op, a, b:
                case "+", Fraction(), Fraction():
                    return a + b
                case "-", Fraction(), Fraction():
                    return a - b
                case "*", Fraction(), Fraction():
                    return a * b
                case "+", Fraction(), _:
                    return ps_affine(b, 1, a)
                case "-", Fraction(), _:
                    return ps_affine(b, -1, a)
                case "*", Fraction(), _:
                    return ps_affine(b, a, 0)
                case "+", _, Fraction():
                    return ps_affine(a, 1, b)
                case "-", _, Fraction():
                    return ps_affine(a, 1, -b)
                case "*", _, Fraction():
                    return ps_affine(a, b, 0)
                case "/", PowerSeries(), Fraction() if b:
                    return ps_affine(a, 1 / b, 0)
            if isinstance(a, Fraction):
                a = constant(a, order)
            if op != "^" and isinstance(b, Fraction):
                b = constant(b, order)
            try:
                return globals()[_OPS[op]](a, b)
            except SeriesDomainError as exc:
                raise EvalError(f"in {pretty(expr)}: {exc}") from exc
    raise TypeError(f"not an expression node: {expr!r}")
