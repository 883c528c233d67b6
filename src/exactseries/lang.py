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

from collections import namedtuple
from fractions import Fraction

from .rationals import digit_limit_error
from .series import (
    PowerSeries,
    SeriesDomainError,
    constant,
    identity_z,
    log_geometric,
    ps_add,
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

# kind is INT, NAME, END, or the operator/paren character itself.
Token = namedtuple("Token", ["kind", "text", "pos"])


def tokenize(text: str) -> list[Token]:
    """The tokens of text.  Digits and letters are ASCII only."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "+-*/^()":
            tokens.append(Token(ch, ch, i))
            i += 1
        elif ch in "0123456789":
            j = i + 1
            while j < len(text) and text[j] in "0123456789":
                j += 1
            if error := digit_limit_error(j - i):
                raise LexError(error, i)
            tokens.append(Token("INT", text[i:j], i))
            i = j
        elif ch.isascii() and ch.isalpha():
            j = i + 1
            while j < len(text) and text[j].isascii() and text[j].isalpha():
                j += 1
            word = text[i:j]
            if word not in ("z", "log"):
                raise LexError(f"unknown identifier {word!r}", i)
            tokens.append(Token("NAME", word, i))
            i = j
        elif ch.isspace():
            i += 1
        else:
            raise LexError(f"unexpected character {ch!r}", i)
    return tokens


# ---------------------------------------------------------------- parser

class _Parser:
    """Recursive descent; the tokens end in an END token at the length."""

    def __init__(self, tokens: list[Token], length: int):
        self.tokens = [*tokens, Token("END", "end of input", length)]
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += tok.kind != "END"  # END stays, so peek() always has a token
        return tok

    def accept(self, kind: str) -> bool:
        found = self.peek().kind == kind
        self.i += found
        return found

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            got = tok.text if tok.kind == "END" else repr(tok.text)
            raise ParseError(f"expected {kind!r}, got {got}", tok.pos)
        return tok

    def parse_chain(self, ops: str = "+-"):
        """A left-deep chain: "+-" joins "*/" chains, "*/" unary operands."""
        node = self.parse_chain("*/") if ops == "+-" else self.parse_unary()
        while (op := self.peek().kind) in ops:
            self.i += 1
            node = (op, node, self.parse_chain("*/") if ops == "+-"
                    else self.parse_unary())
        return node

    def parse_unary(self):
        if self.accept("-"):
            return ("-", ("lit", Fraction(0)), self.parse_unary())
        base = self.parse_atom()
        return ("^", base, self.parse_exponent()) if self.accept("^") else base

    def parse_exponent(self) -> Fraction:
        tok = self.next()
        if tok.kind == "INT":
            return Fraction(int(tok.text))
        if tok.kind != "(":
            raise ParseError(
                "exponent must be an integer or parenthesized ratio", tok.pos)
        sign = -1 if self.accept("-") else 1
        num = int(self.expect("INT").text)
        den = 1
        if self.accept("/"):
            den_tok = self.expect("INT")
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("zero denominator in exponent", den_tok.pos)
        self.expect(")")
        return Fraction(sign * num, den)

    def parse_atom(self):
        tok = self.next()
        if tok.kind == "INT":
            return ("lit", Fraction(int(tok.text)))
        if tok.kind == "NAME" and tok.text == "z":
            return ("z",)
        if tok.kind == "NAME" and tok.text == "log":
            self.expect("(")
            arg = self.parse_chain()
            self.expect(")")
            return self._log_node(arg, tok.pos)
        if tok.kind == "(":
            node = self.parse_chain()
            self.expect(")")
            return node
        what = tok.text if tok.kind == "END" else f"token {tok.text!r}"
        raise ParseError(f"unexpected {what}", tok.pos)

    @staticmethod
    def _log_node(arg, pos: int):
        one_minus_z = ("-", ("lit", Fraction(1)), ("z",))
        if arg == ("/", ("lit", Fraction(1)), one_minus_z):
            return ("log",)
        if arg == one_minus_z:
            return ("-", ("lit", Fraction(0)), ("log",))
        raise ParseError(
            "log supports only the shapes log(1/(1-z)) and log(1-z)", pos)


def parse_text(text: str):
    """The AST of text.  A LexError or ParseError gives its offset in text,
    and an expression nested too deeply for Python's stack is a
    ParseError at the offset the parser had reached."""
    p = _Parser(tokenize(text), len(text))
    try:
        node = p.parse_chain()
    except RecursionError:
        raise ParseError("expression nested too deeply", p.peek().pos) from None
    if (tok := p.peek()).kind != "END":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return node


# ---------------------------------------------------------------- printer

def pretty(expr) -> str:
    """Render an AST so that reparsing gives back the identical tree.  Each
    binary node or left-deep chain of + - or * / is one (z + z - z)."""
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
        case (("+" | "-" | "*" | "/") as op, _, _):
            level = ("+", "-") if op in ("+", "-") else ("*", "/")
            rights = []
            while expr[0] in level and expr[:2] != ("-", ("lit", 0)):
                rights.append(f" {expr[0]} {pretty(expr[2])}")
                expr = expr[1]
            return f"({pretty(expr)}{''.join(reversed(rights))})"
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
    return _fold(expr, order)


def _fold(expr, order: int) -> PowerSeries:
    """expr's value at order, built bottom up: _leaf for each atom, and
    _apply for each binary node from its operands' values.  Binary nodes
    are walked down their left operands and applied on the way back up, so
    recursion depth is nesting depth, not length."""
    spine = []  # the binary nodes above expr, the lowest last
    while expr[0] in _OPS:
        spine.append(expr)
        expr = expr[1]
    value = _leaf(expr, order)
    for node in reversed(spine):
        # The right of ^ is its Fraction exponent, not a subtree.
        right = node[2] if node[0] == "^" else _fold(node[2], order)
        value = _apply(node, value, right)
    return value


def _leaf(expr, order: int) -> PowerSeries:
    """The series of an atom; a literal is a constant series."""
    match expr:
        case ("lit", value):
            return constant(value, order)
        case ("z",):
            return identity_z(order)
        case ("log",):
            return log_geometric(order)
    raise TypeError(f"not an expression node: {expr!r}")


def _apply(node, a, b) -> PowerSeries:
    """node's series operator on operand values a and b."""
    try:
        return globals()[_OPS[node[0]]](a, b)
    except SeriesDomainError as exc:
        raise EvalError(f"in {pretty(node)}: {exc}") from exc
