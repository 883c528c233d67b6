import sys
from fractions import Fraction

import pytest

from exactseries import lang
from exactseries.lang import (
    EvalError,
    LexError,
    ParseError,
    evaluate,
    parse_text,
    pretty,
    tokenize,
)
from exactseries.series import (
    coefficient,
    constant,
    lemma_coefficient,
    series,
)


class TestTokenize:
    def test_expression(self):
        kinds = [t.kind for t in tokenize("z^2/(1-z)^4")]
        assert kinds == ["NAME", "^", "INT", "/", "(", "INT", "-", "NAME",
                        ")", "^", "INT"]

    def test_log_form(self):
        texts = [t.text for t in tokenize("log(1/(1-z))")]
        assert texts == ["log", "(", "1", "/", "(", "1", "-", "z", ")", ")"]

    def test_lex_error_with_offset(self):
        with pytest.raises(LexError) as err:
            tokenize("z$")
        assert err.value.pos == 1

    def test_unknown_identifier(self):
        with pytest.raises(LexError):
            tokenize("sin(z)")

    # str.isdigit and str.isalpha accept these; int() would read the first
    # as an error without an offset and the second as 3.
    @pytest.mark.parametrize("text, pos", [
        ("2\u00b2", 1),  # superscript two
        ("z+\u0663", 2),  # Arabic-Indic digit three
        ("z\u00e9", 1),  # a non-ASCII letter
    ])
    def test_non_ascii_digit_or_letter(self, text, pos):
        with pytest.raises(LexError) as err:
            tokenize(text)
        assert err.value.pos == pos
        assert str(err.value) == (
            f"unexpected character {text[pos]!r} at offset {pos}")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="this Python has no int-to-str digit limit")
    def test_literal_over_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(LexError) as err:
            tokenize("z*" + "9" * (limit + 1))
        assert err.value.pos == 2
        assert str(err.value) == (f"integer of {limit + 1} digits is over "
                                  f"the limit of {limit} digits at offset 2")
        assert tokenize("9" * limit)[0].text == "9" * limit

    def test_no_digit_limit_before_python_3_10_7(self, monkeypatch):
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        assert tokenize("9" * 5000) == [lang.Token("INT", "9" * 5000, 0)]


class TestParse:
    def test_quotient_of_powers(self):
        expr = parse_text("z^2/(1-z)^4")
        assert expr == (
            "/",
            ("^", ("z",), Fraction(2)),
            ("^", ("-", ("lit", Fraction(1)), ("z",)), Fraction(4)),
        )

    def test_rational_exponent(self):
        expr = parse_text("(1+z/(1-z))^(1/2)")
        assert expr == (
            "^",
            ("+", ("lit", Fraction(1)),
             ("/", ("z",), ("-", ("lit", Fraction(1)), ("z",)))),
            Fraction(1, 2),
        )

    def test_negative_exponent(self):
        assert parse_text("(1-z)^(-3)") == (
            "^", ("-", ("lit", Fraction(1)), ("z",)), Fraction(-3)
        )

    def test_log_geometric_shape(self):
        assert parse_text("log(1/(1-z))") == ("log",)

    def test_negated_log_shape(self):
        assert parse_text("-log(1-z)") == (
            "-", ("lit", Fraction(0)), ("-", ("lit", Fraction(0)), ("log",))
        )

    # Look-alikes of the supported shapes: a tree comparison that ignored
    # the operators would take log(1*(1+z)) and log(1/(1+z)) for
    # log(1/(1-z)).
    @pytest.mark.parametrize("text", [
        "log(1+z)", "log(1*(1+z))", "log(1/(1+z))", "log(z-1)",
    ])
    def test_unsupported_log_shape(self, text):
        with pytest.raises(ParseError):
            parse_text(text)

    def test_non_literal_exponent(self):
        with pytest.raises(ParseError):
            parse_text("z^z")

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError):
            parse_text("(1+z")

    def test_trailing_tokens(self):
        with pytest.raises(ParseError):
            parse_text("1+z)")

    def test_precedence(self):
        # ^ binds tighter than unary -, which binds tighter than *
        expr = parse_text("-z^2*3")
        assert expr == parse_text("(-(z^2))*3")

    @pytest.mark.parametrize("text", [
        "(" * 2000 + "z" + ")" * 2000,
        "-" * 2000 + "z",
        "z^(1/2)*" + "(" * 2000 + "z" + ")" * 2000,
    ], ids=["parentheses", "unary-minus", "after-a-product"])
    def test_deep_nesting_is_a_parse_error_with_offset(self, text):
        with pytest.raises(ParseError) as err:
            parse_text(text)
        assert str(err.value).startswith("expression nested too deeply")
        assert 0 < err.value.pos < len(text)
        assert text[err.value.pos] in "(-"

    def test_nesting_limit_at_the_end_of_input_is_a_parse_error(self):
        # The recursion limit falls on the END token for one length of each
        # run; the error is still a ParseError with an offset in the input.
        runs = ["(" * n for n in range(150, 300)]
        runs += ["-" * n for n in range(800, 1000)]
        for text in runs:
            with pytest.raises(ParseError) as err:
                parse_text(text)
            assert err.value.pos <= len(text)


# The error contract of the parser: each malformed input with the exact
# exception, message and offset it raises.
ERROR_TABLE = [
    ("", ParseError, "unexpected end of input at offset 0", 0),
    ("   ", ParseError, "unexpected end of input at offset 3", 3),
    ("1+", ParseError, "unexpected end of input at offset 2", 2),
    ("-", ParseError, "unexpected end of input at offset 1", 1),
    ("(1+z", ParseError, "expected ')', got end of input at offset 4", 4),
    ("1+z)", ParseError, "trailing input ')' at offset 3", 3),
    ("(z))", ParseError, "trailing input ')' at offset 3", 3),
    ("z z", ParseError, "trailing input 'z' at offset 2", 2),
    ("z^", ParseError,
     "exponent must be an integer or parenthesized ratio at offset 2", 2),
    ("z^z", ParseError,
     "exponent must be an integer or parenthesized ratio at offset 2", 2),
    ("z^-1", ParseError,
     "exponent must be an integer or parenthesized ratio at offset 2", 2),
    ("z^(", ParseError, "expected 'INT', got end of input at offset 3", 3),
    ("z^(1", ParseError, "expected ')', got end of input at offset 4", 4),
    ("z^(1/", ParseError, "expected 'INT', got end of input at offset 5", 5),
    ("z^(1/2", ParseError, "expected ')', got end of input at offset 6", 6),
    ("z^(1/0)", ParseError, "zero denominator in exponent at offset 5", 5),
    ("z^(-)", ParseError, "expected 'INT', got ')' at offset 4", 4),
    ("z^(--1)", ParseError, "expected 'INT', got '-' at offset 4", 4),
    ("z^(1/2/3)", ParseError, "expected ')', got '/' at offset 6", 6),
    ("z^(1/2)^2", ParseError, "trailing input '^' at offset 7", 7),
    ("log", ParseError, "expected '(', got end of input at offset 3", 3),
    ("log 1-z", ParseError, "expected '(', got '1' at offset 4", 4),
    ("log(", ParseError, "unexpected end of input at offset 4", 4),
    ("log(1-z", ParseError, "expected ')', got end of input at offset 7", 7),
    ("log(1/(1-z)", ParseError,
     "expected ')', got end of input at offset 11", 11),
    ("log(z)", ParseError, "log supports only the shapes log(1/(1-z)) and "
     "log(1-z) at offset 0", 0),
    ("()", ParseError, "unexpected token ')' at offset 1", 1),
    ("*z", ParseError, "unexpected token '*' at offset 0", 0),
    ("1+*z", ParseError, "unexpected token '*' at offset 2", 2),
    ("z$", LexError, "unexpected character '$' at offset 1", 1),
    ("sin(z)", LexError, "unknown identifier 'sin' at offset 0", 0),
    ("Z", LexError, "unknown identifier 'Z' at offset 0", 0),
]


@pytest.mark.parametrize("text, kind, message, pos", ERROR_TABLE)
def test_error_contract(text, kind, message, pos):
    with pytest.raises(ValueError) as err:
        parse_text(text)
    assert (type(err.value), str(err.value), err.value.pos) == (
        kind, message, pos)


ROUND_TRIP_CORPUS = [
    "z",
    "1",
    "42",
    "-z",
    "1+z",
    "1-z",
    "z*z",
    "z/(1-z)",
    "z^2",
    "z^0",
    "z^(1/2)",
    "z^(-3)",
    "(1-z)^(-3)",
    "(1+z)^(5/3)",
    "z^2/(1-z)^4",
    "(1+z/(1-z))^2",
    "(1+z/(1-z))^(1/2)",
    "log(1/(1-z))",
    "log(1-z)",
    "-log(1-z)",
    "z*log(1/(1-z))",
    "z^3*log(1/(1-z))/(1-z)^4",
    "1+2*z+3*z^2",
    "(1+z)*(1-z)",
    "1/(1-z)",
    "2/3",
    "-1-z",
    "z-1",
    "(z+1)^7",
    "((1+z))",
    "z/(1-z)/(1-z)",
    "1-z-z^2-z^3",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CORPUS)
def test_pretty_round_trip(text):
    expr = parse_text(text)
    assert parse_text(pretty(expr)) == expr


@pytest.mark.parametrize("text, printed", [
    ("1-z+z^2-z^3", "(1 - z + z^2 - z^3)"),
    ("z*z/(1-z)*2", "(z * z / (1 - z) * 2)"),
    ("-z-z", "(-z - z)"),
    ("0+z+z", "(0 + z + z)"),
    ("z*z+z", "((z * z) + z)"),
    ("z+z*z", "(z + (z * z))"),
    ("z-(z-z)", "(z - (z - z))"),
])
def test_pretty_prints_a_chain_flat(text, printed):
    assert pretty(parse_text(text)) == printed
    assert parse_text(printed) == parse_text(text)


# Trees of 3000-term chains are compared through pretty or their values:
# CPython's tuple == recurses down the left-deep spine.
@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_pretty_round_trips_a_3000_term_chain(op):
    printed = pretty(parse_text(op.join(["z"] * 3000)))
    assert printed == "(" + f" {op} ".join(["z"] * 3000) + ")"
    assert pretty(parse_text(printed)) == printed


def test_pretty_parenthesizes_a_power_of_a_power():
    expr = parse_text("((z-z)^2)^(1/2)")
    assert pretty(expr) == "((z - z)^2)^(1/2)"
    assert parse_text(pretty(expr)) == expr


@pytest.mark.parametrize("node", [("%", ("z",), ("z",)), None])
def test_non_node_is_a_type_error(node):
    with pytest.raises(TypeError):
        pretty(node)
    with pytest.raises(TypeError):
        evaluate(node, 4)


class TestEvaluate:
    def test_shifted_reciprocal_power(self):
        s = evaluate(parse_text("z^2/(1-z)^4"), 12)
        assert coefficient(s, 5) == 20

    def test_log_coefficient(self):
        s = evaluate(parse_text("log(1/(1-z))"), 8)
        assert coefficient(s, 4) == Fraction(1, 4)

    def test_negative_power(self):
        s = evaluate(parse_text("(1-z)^(-3)"), 8)
        assert coefficient(s, 2) == 6

    def test_division_by_pure_z_power_fails(self):
        with pytest.raises(EvalError) as err:
            evaluate(parse_text("1/z"), 6)
        assert "z" in str(err.value)

    def test_division_by_zero_series(self):
        with pytest.raises(EvalError):
            evaluate(parse_text("1/(z-z)"), 6)

    def test_lemma_agreement(self):
        for p in range(0, 7):
            for q in range(0, 7):
                expr = parse_text(f"z^{p}/(1-z)^{q + 1}")
                s = evaluate(expr, 20)
                for n in range(0, 21):
                    assert coefficient(s, n) == lemma_coefficient(p, q, n)

    def test_convolution_form_collapses(self):
        # z^c/(1-z)^(c+1) * (1 + z/(1-z))^m == z^c * (1-z)^(-(m+c+1))
        for m in range(0, 5):
            for c in range(0, 4):
                left = evaluate(parse_text(
                    f"z^{c}/(1-z)^{c + 1}*(1+z/(1-z))^{m}"
                ), 24)
                right = evaluate(parse_text(
                    f"z^{c}*(1-z)^(-{m + c + 1})"
                ), 24)
                assert left.coeffs[: left.order + 1] == \
                    right.coeffs[: left.order + 1]


@pytest.mark.parametrize("text, name", [
    ("z+log(1/(1-z))", "ps_add"),
    ("z-z", "ps_sub"),
    ("z*z", "ps_mul"),
    ("z/(1-z)", "ps_div"),
    ("(1+z)^(1/2)", "ps_pow"),
    ("z+3", "ps_add"),
    ("1-z", "ps_sub"),
    ("2*z", "ps_mul"),
    ("z*2", "ps_mul"),
    ("z/2", "ps_div"),
])
def test_evaluate_calls_the_operator_the_module_binds(monkeypatch, text, name):
    """A rebound operator, such as a tracing wrapper, is the one called."""
    calls = []
    original = getattr(lang, name)

    def recording(a, b):
        calls.append(b)
        return original(a, b)
    monkeypatch.setattr(lang, name, recording)
    expected = evaluate(parse_text(text), 6)
    monkeypatch.undo()
    assert len(calls) == 1
    assert evaluate(parse_text(text), 6) == expected


class TestLongChains:
    """Length is not depth: a chain of 3000 terms evaluates in a loop."""

    @pytest.mark.parametrize("text, same", [
        ("+".join(["z"] * 3000), "3000*z"),
        ("-".join(["z"] * 3000), "-2998*z"),
        ("*".join(["(1+z)"] * 3000), "(1+z)^3000"),
        ("/".join(["(1+z)"] * 3000), "(1+z)^(-2998)"),
        ("z" + "*2" * 3000 + "/2" * 2999, "2*z"),
    ], ids=["add", "sub", "mul", "div", "scalars"])
    def test_value(self, text, same):
        assert evaluate(parse_text(text), 3) == evaluate(parse_text(same), 3)

    def test_operators_apply_in_order(self, monkeypatch):
        calls = []
        original = lang.ps_sub

        def recording(a, b):
            calls.append(coefficient(b, 0))
            return original(a, b)
        monkeypatch.setattr(lang, "ps_sub", recording)
        terms = [f"(z+{k})" for k in range(3000)]
        s = evaluate(parse_text("-".join(terms)), 1)
        assert calls == list(range(1, 3000))
        assert coefficient(s, 0) == -sum(range(1, 3000))
        assert coefficient(s, 1) == 1 - 2999

    def test_error_names_the_node_that_fails(self):
        text = "+".join(["z"] * 3000) + "+1/(z-z)"
        with pytest.raises(EvalError, match=r"^in \(1 / \(z - z\)\): "):
            evaluate(parse_text(text), 2)
        text = "*".join(["z"] * 3000) + "/(z-z)"
        with pytest.raises(EvalError) as err:
            evaluate(parse_text(text), 2)
        assert str(err.value).startswith(
            "in (" + " * ".join(["z"] * 3000) + " / (z - z)): ")


class TestZFreeSubtrees:
    @pytest.mark.parametrize("text, value", [
        ("2*3-1", 5), ("1/2", Fraction(1, 2)), ("-(4-4)", 0),
        ("2^(-1)", Fraction(1, 2)),
    ])
    def test_value_is_a_constant_series_at_the_order(self, text, value):
        assert evaluate(parse_text(text), 5) == constant(value, 5)

    @pytest.mark.parametrize("text, m, c", [
        ("3-z", -1, 3), ("z-3", 1, -3), ("2*z", 2, 0), ("z*2", 2, 0),
        ("z/(1+1)", Fraction(1, 2), 0), ("-z", -1, 0), ("1+z+2", 1, 3),
    ])
    def test_scalar_operand_scales_or_shifts(self, text, m, c):
        assert evaluate(parse_text(text), 5) == series([c, m, 0, 0, 0, 0])

    def test_divisor_over_the_power_bit_limit_scales(self):
        # 5 * 13 288 bits is over MAX_POWER_BITS; the divisor is z-free, so
        # the quotient scales z by its reciprocal.
        c = "9" * 4000
        expr = parse_text(f"z/({c}*{c}*{c}*{c}*{c})")
        assert evaluate(expr, 2) == series([0, Fraction(1, int(c) ** 5), 0])

    @pytest.mark.parametrize("text", ["z/0", "z/(1-1)", "z/(0*2)"])
    def test_zero_divisor_is_a_series_error(self, text):
        with pytest.raises(EvalError, match="zero to its order"):
            evaluate(parse_text(text), 5)
