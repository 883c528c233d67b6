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
    value = _fold(expr, _leaf, _apply, order)
    return constant(value, order) if isinstance(value, Fraction) else value


def _fold(expr, leaf, apply, arg):
    """expr's value built bottom up: leaf(atom, arg) for each atom, and
    apply(node, a, b, arg) for each binary node from its operands' values
    (b is the Fraction exponent of ^).  Binary nodes are walked down their
    left operands and applied on the way back up, so recursion depth is
    nesting depth, not length."""
    spine = []  # the binary nodes above expr, the lowest last
    while expr[0] in _OPS:
        spine.append(expr)
        expr = expr[1]
    value = leaf(expr, arg)
    for node in reversed(spine):
        # The right of ^ is its Fraction exponent, not a subtree.
        right = node[2] if node[0] == "^" else _fold(node[2], leaf, apply, arg)
        value = apply(node, value, right, arg)
    return value


def _leaf(expr, order: int) -> PowerSeries | Fraction:
    """The series of an atom, or its Fraction value when it has no z."""
    match expr:
        case ("lit", value):
            return value
        case ("z",):
            return identity_z(order)
        case ("log",):
            return log_geometric(order)
    raise TypeError(f"not an expression node: {expr!r}")


def _apply(node, a, b, order: int) -> PowerSeries | Fraction:
    """node's operator on operand values a and b.  + - * of two Fractions
    is a Fraction; one Fraction operand scales or shifts the series, as does
    a nonzero Fraction divisor.  ^, / by zero and / of two Fractions take
    the series operator on constant series, so they raise and retry."""
    op = node[0]
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
        raise EvalError(f"in {pretty(node)}: {exc}") from exc


# ---------------------------------------------------------------- order loss

def order_loss(expr) -> int:
    """A lower bound, read from the tree alone, on the orders that
    evaluate(expr, order) loses: its result stops at order - loss.

    A division a/b loses b's valuation v (ps_div drops z^0..z^(v-1) of both
    operands), and a power e != 0 of a base with valuation s loses s - e*s
    when e*s is an integer in 0..s-1; every node loses at least what its
    operands lose.  Valuations are lower bounds too: z and log have 1,
    literals 0, a product the sum of its operands', a sum or difference the
    smaller of its operands' (a zero literal, as in unary minus, has none),
    a power e*s when that is an integer >= 0, and anything else 0.  What
    the tree cannot show, such as the cancellation in (1+z)-1-z, is not
    counted.
    """
    return _fold(expr, _leaf_loss, _apply_loss, None)[1]


def _leaf_loss(expr, _) -> tuple[int, int]:
    return (0 if expr[0] == "lit" else 1), 0


def _apply_loss(node, a, b, _) -> tuple[int, int]:
    """node's (valuation, loss) from its operands' (b is the exponent of ^)."""
    op, (s, loss) = node[0], a
    if op == "^":
        shift, rest = divmod(s * b.numerator, b.denominator)
        if rest or shift < 0 or not b:
            return 0, loss  # x^0 is 1 at x's order; else 0 is a safe bound
        return shift, loss + max(0, s - shift)
    t, loss = b[0], max(loss, b[1])
    if op == "*":
        return s + t, loss
    if op == "/":
        return 0, loss + t
    if node[1] == ("lit", 0):
        return t, loss
    return (s if node[2] == ("lit", 0) else min(s, t)), loss
