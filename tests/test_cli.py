import contextlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings, strategies as st

from exactseries import cli
from exactseries.cli import parse_grid, run
from exactseries.lang import EvalError, evaluate, parse_text, pretty
from exactseries.rationals import format_rational
from exactseries.series import (
    MAX_ORDER,
    SeriesDomainError,
    ZeroToOrderError,
    coefficient,
    constant,
    identity_z,
    log_geometric,
    ps_add,
    ps_div,
    ps_mul,
    ps_pow,
    ps_sub,
)
from fractions import Fraction

GOLDEN_DIR = Path(__file__).parent / "golden"

REPORT_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["identity", "params", "routes", "verdict"],
        "additionalProperties": False,
        "properties": {
            "identity": {"type": "string"},
            "params": {
                "type": "object",
                "required": ["n", "c"],
                "additionalProperties": False,
                "properties": {
                    "m": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                    "n": {"type": "integer"},
                    "c": {"type": "integer"},
                },
            },
            "routes": {
                "type": "object",
                "additionalProperties": {
                    "type": "string", "pattern": r"^-?\d+(/\d+)?$"
                },
            },
            "verdict": {"type": "boolean"},
        },
    },
}


# CPython's int-to-str digit limit exists from 3.10.7 on, and 0 turns it off.
needs_digit_limit = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python has no int-to-str digit limit")


def decimal_digits(n: int) -> str:
    """Decimal digits of n >= 0, converted 1000 at a time so that CPython's
    int-to-str digit limit never applies."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


def record_orders(patch: pytest.MonkeyPatch) -> list[int]:
    """The orders at which the CLI evaluates an expression, in call order,
    as a list that fills while patch is active."""
    seen = []
    evaluate = cli.evaluate

    def recording_evaluate(tree, order):
        seen.append(order)
        return evaluate(tree, order)
    patch.setattr(cli, "evaluate", recording_evaluate)
    return seen


@pytest.fixture
def orders(monkeypatch):
    return record_orders(monkeypatch)


def reference_cmd_coeff(args) -> int:
    """``coeff --order K`` as one evaluation at order K, kept as the oracle
    for K as the cap of the retry loop: where the loop stops below K, it
    must print what order K gives.  That holds where no power is over the
    bit limit: the loop reports the first error met at the lowest order
    tried, and a power whose base is zero to that order is no error there
    but may be over the limit at K."""
    expr = parse_text(args.expr)
    if args.order < args.n:
        raise ValueError(f"--order {args.order} is below --n {args.n}")
    value = coefficient(evaluate(expr, args.order), args.n)
    if args.json:
        print(json.dumps({
            "expr": args.expr,
            "n": args.n,
            "coefficient": format_rational(value),
        }))
    else:
        print(format_rational(value))
    return 0


REFERENCE_OPS = {"+": ps_add, "-": ps_sub, "*": ps_mul, "/": ps_div,
                 "^": ps_pow}


def reference_evaluate(expr, order: int):
    """``lang.evaluate`` as it was before z-free subtrees became Fractions:
    every literal a constant series and every node its series operator,
    kept as the oracle for the scalar shortcuts."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    match expr:
        case ("lit", value):
            return constant(value, order)
        case ("z",):
            return identity_z(order)
        case ("log",):
            return log_geometric(order)
        case (op, left, right) if op in REFERENCE_OPS:
            a = reference_evaluate(left, order)
            b = right if op == "^" else reference_evaluate(right, order)
            try:
                return REFERENCE_OPS[op](a, b)
            except SeriesDomainError as exc:
                raise EvalError(f"in {pretty(expr)}: {exc}") from exc
    raise TypeError(f"not an expression node: {expr!r}")


def reference_evaluate_to(expr, n: int, cap: int):
    """``cli._evaluate_to`` as it was before it read its first order off the
    tree: it starts at order n.  Kept as the oracle for the start order,
    which may change no output and add no evaluation."""
    order = n
    while True:
        try:
            result = cli.evaluate(expr, order)
        except EvalError as exc:
            if order == cap or not isinstance(exc.__cause__, ZeroToOrderError):
                raise
            order = min(cap, 2 * order + 1)
            continue
        if result.order >= n or order == cap:
            return result
        order = min(cap, order + n - result.order)


def outputs(argv: list[str], entry=run) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process run of entry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def reference_run(argv: list[str]) -> int:
    """``cli.run`` as it was before it dispatched on argv[0]: the top-level
    parse_args, which matches the command, runs its parser and then checks
    for leftovers, and then the same ``_cmd_*`` call.  Kept as the oracle
    for every usage, help and error text of the dispatch."""
    parser, _ = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return getattr(cli, f"_cmd_{args.command}")(args)
    except (ValueError, IndexError) as exc:
        return cli._fail(args, exc, str(exc))
    except RecursionError as exc:
        return cli._fail(args, exc, "expression nested too deeply")
    except Exception as exc:
        return cli._fail(args, exc, f"unexpected {type(exc).__name__}: {exc}")


# Argv shapes where the command's own parser and the top-level one could
# part: help, missing and unknown commands and flags, leftovers, and the
# argparse rules on abbreviations, "--", repeats and leading dashes.
DISPATCH_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["-h", "coeff"],
    ["--help", "verify"],
    ["-h", "table"],
    ["coeff", "-h"],
    ["verify", "--help"],
    ["table", "-h"],
    ["coeff", "z", "--n", "1", "--help"],
    ["nonsense", "--n", "0"],
    ["--bogus", "coeff", "z", "--n", "1"],
    ["coeff"],
    ["coeff", "z"],
    ["verify", "log-dual", "--n", "0"],
    ["table", "euler", "--case", "c0"],
    ["coeff", "z", "--n", "1", "extra"],
    ["verify", "log-dual", "--n", "0", "--c", "0", "extra"],
    ["table", "euler", "--case", "c0", "--n-max", "1", "extra", "more"],
    ["coeff", "z", "--n", "1", "--bogus"],
    ["verify", "log-dual", "--n", "0", "--c", "0", "--bogus=1"],
    ["table", "euler", "--case", "c0", "--n-max", "1", "--bogus", "-x"],
    ["coeff", "z", "--bogus", "--n", "1", "extra"],
    ["coeff", "z^3", "--n", "3", "--ord", "5"],
    ["coeff", "z^3", "--n", "3", "--o", "5"],
    ["coeff", "--n", "1", "--", "-z"],
    ["coeff", "z", "--n", "1", "--n", "2"],
    ["coeff", "-z", "--n", "1"],
    ["coeff", "z", "--n"],
    ["coeff", "z", "--n", "x"],
    ["coeff", "z^2/(1-z)^4", "--n=5", "--json"],
    ["coeff", "1/z", "--n", "0", "--json"],
    ["verify", "vandermonde", "--m", "1/2", "--n", "0..2", "--c", "0..1"],
    ["verify", "log-dual", "--n", "0..2", "--c=-1..1", "--json"],
    ["verify", "nonsense", "--n", "0", "--c", "0"],
    ["table", "euler", "--case", "c9", "--n-max", "2"],
    ["table", "euler", "--case", "cm1", "--n-max", "2", "--csv", "--json"],
    ["table", "euler", "--case", "cm1", "--n-max", "2", "--json"],
]


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=shlex.join)
def test_dispatch_matches_the_top_level_parse(argv):
    assert outputs(argv) == outputs(argv, reference_run)


def test_coeff_request_skips_the_top_level_parse(monkeypatch):
    parser, _ = cli.build_parser()

    def unused(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a coeff request")
    # parse_args calls parse_known_args, so this catches both.
    monkeypatch.setattr(parser, "parse_known_args", unused)
    assert outputs(["coeff", "z^2/(1-z)^4", "--n", "5"]) == (0, "20\n", "")


def outputs_and_orders(argv: list[str], evaluate_to=None):
    """outputs(argv) and the orders evaluated at, in call order, with
    cli._evaluate_to replaced by evaluate_to if one is given."""
    with pytest.MonkeyPatch.context() as patch:
        seen = record_orders(patch)
        if evaluate_to is not None:
            patch.setattr(cli, "_evaluate_to", evaluate_to)
        return outputs(argv), seen


# Random expression trees, fully parenthesized.  The atoms include divisors
# and bases that are zero to some or every order; the exponents stay small,
# so no power reaches MAX_POWER_BITS.
expressions = st.recursive(
    st.sampled_from(["1", "2", "z", "log(1/(1-z))", "(z-z)", "z^10",
                     "((1+z)-1-z)"]),
    lambda children: st.one_of(
        st.builds("({}{}{})".format, children, st.sampled_from("+-*/"),
                  children),
        st.builds("({})^{}".format, children,
                  st.sampled_from(["2", "(-1)", "(1/2)", "(-3/2)"])),
    ),
    max_leaves=8,
)

# The same shapes with z-free atoms: zero, a ratio, a negative literal, and a
# z power with a constant factor, so that scalars meet every operator,
# including division by zero and powers of numbers.
scalar_expressions = st.recursive(
    st.sampled_from(["0", "1", "2", "(1/2)", "(-3)", "z", "(2*z)", "z^3",
                     "(z-z)", "log(1/(1-z))", "((1+z)-1-z)"]),
    lambda children: st.one_of(
        st.builds("({}{}{})".format, children, st.sampled_from("+-*/"),
                  children),
        st.builds("({})^{}".format, children,
                  st.sampled_from(["2", "(-1)", "(1/2)", "(-3/2)"])),
    ),
    max_leaves=8,
)


@given(expr=st.one_of(expressions, scalar_expressions))
@example(expr="((z-z)^2)^(1/2)")
@settings(max_examples=200)
def test_pretty_round_trips_random_trees(expr):
    tree = parse_text(expr)
    assert parse_text(pretty(tree)) == tree


@given(expr=scalar_expressions, n=st.integers(0, 12),
       extra=st.none() | st.integers(0, 40), as_json=st.booleans())
@example(expr="(1-(1-(4*z))^(1/2))/(2*z)", n=5, extra=None, as_json=False)
@example(expr="(z/(1-1))", n=2, extra=None, as_json=False)
@example(expr="((1/2)^(1/2))", n=0, extra=3, as_json=True)
@example(expr="(((-3)^(-1))-z)", n=0, extra=None, as_json=False)
@settings(max_examples=300, deadline=None)
def test_scalar_subtrees_print_what_constant_series_print(expr, n, extra,
                                                         as_json):
    argv = ["coeff", expr, "--n", str(n)]
    argv += [] if extra is None else ["--order", str(n + extra)]
    argv += ["--json"] if as_json else []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "evaluate", reference_evaluate)
        expected = outputs(argv)
    assert outputs(argv) == expected


class TestParseGrid:
    def test_single_value(self):
        assert parse_grid("7") == [Fraction(7)]
        assert parse_grid("1/2") == [Fraction(1, 2)]

    def test_range(self):
        assert parse_grid("0..3") == [0, 1, 2, 3]
        assert parse_grid("-2..1") == [-2, -1, 0, 1]

    def test_comma_list(self):
        assert parse_grid("0..2,1/2,-7/4") == [
            0, 1, 2, Fraction(1, 2), Fraction(-7, 4)
        ]

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            parse_grid("3..1")


# Integer flags read ASCII digits only, as expression literals do: int()
# alone would take Arabic-Indic digits and a "_" separator.
def int_error(text: str) -> str:
    return f"error: invalid literal for int() with base 10: {text!r}"


def usage_error(command: str, flag: str, text: str) -> str:
    return (f"exactseries {command}: error: argument {flag}: "
            f"invalid parse_int value: {text!r}")


@pytest.mark.parametrize("argv, last_line", [
    (["verify", "log-dual", "--n", "\u0663", "--c", "0"], int_error("\u0663")),
    (["verify", "log-dual", "--n", "1_0", "--c", "0"], int_error("1_0")),
    (["verify", "log-dual", "--n", "0..\u0663", "--c", "0"],
     int_error("\u0663")),
    (["verify", "vandermonde", "--m", "\u0661/2", "--n", "2", "--c", "0"],
     int_error("\u0661")),
    (["coeff", "z", "--n", "\u0663"], usage_error("coeff", "--n", "\u0663")),
    (["coeff", "z", "--n", "1_0"], usage_error("coeff", "--n", "1_0")),
    (["coeff", "z", "--n", "1", "--order", "\u0663"],
     usage_error("coeff", "--order", "\u0663")),
    (["table", "euler", "--case", "c0", "--n-max", "\u0662", "--csv"],
     usage_error("table", "--n-max", "\u0662")),
])
def test_integer_flags_are_ascii(argv, last_line):
    code, out, err = outputs(argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == last_line


@pytest.mark.parametrize("argv, first_line", [
    (["coeff", "z^3", "--n=+3"], "1"),
    (["verify", "log-dual", "--n=0", "--c=-7..3"],
     "log_dual n=0 c=-7: lhs=1/7 rhs=1/7 ok"),
    (["verify", "log-dual", "--n", " 0 .. 1 ", "--c", " -1 , 2 "],
     "log_dual n=0 c=-1: lhs=1 rhs=1 ok"),
    (["table", "euler", "--case", "c0", "--n-max=+1", "--csv"],
     "n,lhs,rhs,closed"),
])
def test_signed_and_spaced_integers_parse(argv, first_line):
    code, out, err = outputs(argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line


def test_readme_coeff_commands_print_their_values():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    # Lines "exactseries coeff ...  # value": a command and what it prints.
    commands = re.findall(r"^exactseries (coeff .*\S) +# (.+)$", readme,
                          re.MULTILINE)
    assert len(commands) >= 3
    for command, value in commands:
        assert outputs(shlex.split(command)) == (0, value + "\n", ""), command


class TestCoeff:
    def test_plain(self, capsys):
        assert run(["coeff", "z^2/(1-z)^4", "--n", "5"]) == 0
        assert capsys.readouterr().out == "20\n"

    def test_fractional_output(self, capsys):
        assert run(["coeff", "log(1/(1-z))", "--n", "4"]) == 0
        assert capsys.readouterr().out == "1/4\n"

    def test_json(self, capsys):
        assert run(["coeff", "(1-z)^(-3)", "--n", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"expr": "(1-z)^(-3)", "n": 2, "coefficient": "6"}

    def test_explicit_order(self, capsys):
        assert run(["coeff", "z/(1-z)", "--n", "3", "--order", "3"]) == 0
        assert capsys.readouterr().out == "1\n"

    def test_parse_error_exits_2(self, capsys):
        assert run(["coeff", "z^z", "--n", "1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_lex_error_exits_2(self):
        assert run(["coeff", "z$", "--n", "1"]) == 2

    def test_eval_error_exits_2(self):
        assert run(["coeff", "1/z", "--n", "1"]) == 2

    def test_order_below_n_rejected(self):
        assert run(["coeff", "z", "--n", "5", "--order", "3"]) == 2

    def test_zero_exponent_denominator_exits_2(self, capsys):
        assert run(["coeff", "z^(1/0)", "--n", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "offset 5" in err
        assert err.count("\n") == 1

    def test_power_over_bit_limit_exits_2(self, capsys):
        assert run(["coeff", "3^99999999999", "--n", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "over the limit" in err
        assert err.count("\n") == 1

    def test_z_free_power_no_larger_than_its_base(self, capsys):
        # c^5 is over MAX_POWER_BITS; its reciprocal is printed as the
        # quotient is, and squaring it is refused with the limit's message.
        c = "9" * 4000
        big = f"({c}*{c}*{c}*{c}*{c})"
        expected = f"{format_rational(Fraction(1, int(c) ** 5))}\n"
        for expr in (f"z*{big}^(-1)", f"z/{big}"):
            assert run(["coeff", expr, "--n", "1"]) == 0
            assert capsys.readouterr() == (expected, "")
        assert run(["coeff", f"{big}^2", "--n", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "over the limit" in err

    @pytest.mark.parametrize("expr", ["z^10/z^10", "z^12/z^6/z^6"])
    def test_division_by_z_power_retries_once(self, expr, capsys):
        # The divisions leave fewer than n + 1 coefficients; the missing
        # orders are asked for again.
        assert run(["coeff", expr, "--n", "5"]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("expr, n, expected", [
        ("z^20/z^20", 5, "0"),  # divisor zero to order n
        ("(z^10/z^10-1)/z^5", 3, "0"),  # numerator shorter than z^5
        ("(z^11/z^5)/z^6", 0, "1"),  # the same, with a nonzero answer
        ("(z^10)^(1/2)", 5, "1"),  # base zero to order n
        ("(z^10)^(1/2)", 0, "0"),
    ])
    def test_operand_zero_to_its_order_retries(self, expr, n, expected, capsys):
        assert run(["coeff", expr, "--n", str(n)]) == 0
        assert capsys.readouterr().out == expected + "\n"

    @pytest.mark.parametrize("expr", ["(z-z)/(z-z)", "1/((1+z)-1-z)",
                                      "(z-z)^(1/2)"])
    @pytest.mark.parametrize("n", [0, 3, 1000])
    def test_zero_to_every_order_exits_2(self, expr, n, orders, capsys):
        assert run(["coeff", expr, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        # The tree gives z-z valuation 1, so its quotient starts at n + 1.
        assert orders[0] == n + (expr == "(z-z)/(z-z)")
        assert max(orders) == n + cli.MAX_EXTRA_ORDERS

    @pytest.mark.parametrize("expr", ["1/z", "2^(1/2)", "(z+z^2)^(1/2)"])
    def test_final_errors_are_not_retried(self, expr, orders, capsys):
        assert run(["coeff", expr, "--n", "2"]) == 2
        # 1/z starts at n + 1, for its divisor's valuation 1.
        assert orders == [3 if expr == "1/z" else 2]
        assert capsys.readouterr().err.count("\n") == 1

    def test_plain_expression_evaluates_once_at_order_n(self, orders, capsys):
        assert run(["coeff", "z^2/(1-z)^4", "--n", "5"]) == 0
        assert capsys.readouterr().out == "20\n"
        assert orders == [5]

    def test_division_by_z_power_keeps_explicit_order(self, capsys):
        assert run(["coeff", "z^10/z^10", "--n", "5", "--order", "13"]) == 2
        err = capsys.readouterr().err
        assert err == "error: coefficient 5 outside truncation range 0..3\n"

    def test_order_caps_the_retry_loop(self, orders, capsys):
        # The tree gives (1+z^10)-1 valuation 0, so the retry loop finds the
        # ten orders its division loses.
        assert run(["coeff", "z^10/((1+z^10)-1)", "--n", "5",
                    "--order", "40"]) == 0
        assert capsys.readouterr().out == "0\n"
        assert orders == [5, 11, 15]

    @pytest.mark.parametrize("expr, first, value", [
        ("(1-(1-4*z)^(1/2))/(2*z)", 6, "42"),
        ("(1-(1-4*z)^(1/2))/(-2*z)", 6, "-42"),
        ("z^10/z^10", 15, "0"),
        ("(z^10)^(1/2)", 10, "1"),
        ("(z^10)^0", 5, "0"),
    ])
    def test_start_order_is_read_from_the_tree(self, expr, first, value,
                                               orders, capsys):
        # n plus what the tree shows the divisions and powers to lose.
        assert run(["coeff", expr, "--n", "5"]) == 0
        assert capsys.readouterr() == (value + "\n", "")
        assert orders == [first]

    @given(expr=st.one_of(expressions, scalar_expressions),
           n=st.integers(0, 12), extra=st.none() | st.integers(0, 40),
           as_json=st.booleans())
    @example(expr="(1-(1-(4*z))^(1/2))/(2*z)", n=5, extra=None, as_json=False)
    @example(expr="(z^10/z^10)", n=5, extra=8, as_json=False)
    @example(expr="(z/((1+z)-1))", n=3, extra=None, as_json=False)
    @example(expr="((z^10)^0)", n=5, extra=None, as_json=False)
    @example(expr="(1/((1+z)-1-z))", n=3, extra=40, as_json=True)
    @settings(max_examples=300, deadline=None)
    def test_start_order_changes_no_output_and_adds_no_work(self, expr, n,
                                                            extra, as_json):
        argv = ["coeff", expr, "--n", str(n)]
        argv += [] if extra is None else ["--order", str(n + extra)]
        argv += ["--json"] if as_json else []
        expected, reference = outputs_and_orders(argv, reference_evaluate_to)
        got, orders = outputs_and_orders(argv)
        assert got == expected
        assert len(orders) <= len(reference)
        # A final error ends both at their first order, and the tree may
        # start this one higher, as for 1/z.
        if got[0] == 0:
            assert orders[0] <= reference[-1]

    def test_high_order_is_not_evaluated_when_n_suffices(self, orders, capsys):
        assert run(["coeff", "z", "--n", "1", "--order", "1000000"]) == 0
        assert capsys.readouterr().out == "1\n"
        assert orders == [1]

    @pytest.mark.parametrize("argv, order", [
        (["z", "--n", "1000000000"], 1000000000),
        (["1/z", "--n", str(MAX_ORDER)], MAX_ORDER + 1),
        (["z", "--n", str(MAX_ORDER + 1), "--order", "1000000000"],
         MAX_ORDER + 1),
    ])
    def test_order_over_the_limit_is_refused_unevaluated(self, argv, order,
                                                         monkeypatch, capsys):
        def unreachable(tree, order):
            raise AssertionError(f"evaluated at order {order}")
        monkeypatch.setattr(cli, "evaluate", unreachable)
        assert run(["coeff", *argv]) == 2
        assert capsys.readouterr() == (
            "", f"error: evaluation order {order} is over the limit of "
                f"{MAX_ORDER}\n")

    def test_order_limit_is_evaluated(self, orders, capsys):
        assert run(["coeff", "z", "--n", str(MAX_ORDER)]) == 0
        assert capsys.readouterr() == ("0\n", "")
        assert orders == [MAX_ORDER]

    def test_retry_loop_stops_at_the_order_limit(self, orders, capsys):
        # The divisor is zero to every order, so the loop doubles the order
        # until the next one is over the limit, below the --order cap.
        assert run(["coeff", "1/((1+z)-1-z)", "--n", "3",
                    "--order", "1000000"]) == 2
        assert orders == [2**k - 1 for k in range(2, 14)]
        assert capsys.readouterr().err == (
            f"error: evaluation order {2**14 - 1} is over the limit of "
            f"{MAX_ORDER}\n")

    def test_power_over_bit_limit_above_the_order_needed(self, capsys):
        # (3z^10)^99999999 is zero to order 5, so its z^5 coefficient is 0;
        # at order 40 its leading coefficient would be over the bit limit.
        assert run(["coeff", "(3*z^10)^99999999", "--n", "5",
                    "--order", "40"]) == 0
        assert capsys.readouterr().out == "0\n"

    @pytest.mark.parametrize("as_json", [False, True])
    def test_first_error_at_the_lowest_order_is_reported(self, as_json,
                                                         orders, capsys):
        # At order 1 z^60 is zero to its order, so the power is 0 and 1/z
        # raises; one evaluation at order 64 would hit the bit limit first.
        argv = ["coeff", "(3*z^60)^99999999+1/z", "--n", "0", "--order", "64"]
        assert run(argv + ["--json"] * as_json) == 2
        message = ("in (1 / z): division would produce negative powers of z:"
                   " denominator has valuation 1, numerator does not")
        err = (json.dumps({"kind": "EvalError", "message": message})
               if as_json else f"error: {message}")
        assert capsys.readouterr() == ("", err + "\n")
        assert orders == [1]

    @pytest.mark.parametrize("order", [[], ["--order", "5"]])
    def test_negative_n_exits_2(self, order, capsys):
        assert run(["coeff", "1/(1-z)", "--n", "-3"] + order) == 2
        assert capsys.readouterr().err == "error: --n must be >= 0, got -3\n"

    @given(expr=expressions, n=st.integers(0, 12), extra=st.integers(0, 40),
           as_json=st.booleans())
    @example(expr="(z^10/z^10)", n=5, extra=8, as_json=False)
    @example(expr="(1/((1+z)-1-z))", n=3, extra=40, as_json=True)
    @settings(max_examples=100, deadline=None)
    def test_order_gives_what_one_evaluation_at_it_gives(self, expr, n, extra,
                                                         as_json):
        argv = ["coeff", expr, "--n", str(n), "--order", str(n + extra)]
        argv += ["--json"] if as_json else []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_cmd_coeff", reference_cmd_coeff)
            expected = outputs(argv)
        assert outputs(argv) == expected

    def test_explicit_order_reaches_past_the_cap(self, capsys):
        # z^100 is zero to every order up to n + MAX_EXTRA_ORDERS.
        assert run(["coeff", "z^100/z^100", "--n", "5"]) == 2
        assert run(["coeff", "z^100/z^100", "--n", "5", "--order", "200"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_unexpected_exception_exits_2(self, monkeypatch, capsys):
        def broken(args):
            raise TypeError("unsupported operand")
        monkeypatch.setattr(cli, "_cmd_coeff", broken)
        assert run(["coeff", "z", "--n", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "TypeError" in err

    def test_huge_integer_power(self, capsys):
        assert run(["coeff", "(1-z)^1000000", "--n", "2"]) == 0
        assert capsys.readouterr().out == "499999500000\n"

    @pytest.mark.parametrize("expr", [
        "(" * 2000 + "z" + ")" * 2000,  # recursion in the parser
    ])
    def test_deep_expression_exits_2(self, expr, capsys):
        assert run(["coeff", expr, "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # Length is not depth: a flat chain of 3000 terms has no nesting.
    @pytest.mark.parametrize("op, atom, value", [
        ("+", "z", 3000),
        ("-", "z", 1 - 2999),
        ("*", "(1+z)", 3000),  # (1+z)^3000
        ("/", "(1+z)", -2998),  # (1+z)^(1-2999)
    ], ids=["add", "sub", "mul", "div"])
    def test_flat_chain_of_3000_terms(self, op, atom, value, capsys):
        assert run(["coeff", op.join([atom] * 3000), "--n", "1"]) == 0
        assert capsys.readouterr() == (f"{value}\n", "")

    def test_error_at_the_top_of_a_long_chain(self, capsys):
        expr = "*".join(["z"] * 2999) + "/(z-z)"
        assert run(["coeff", expr, "--n", "0", "--order", "0"]) == 2
        chain = " * ".join(["z"] * 2999)
        assert capsys.readouterr().err == (
            f"error: in ({chain} / (z - z)): division by a series that is "
            "zero to its order\n")

    def test_deep_parentheses_report_offset(self, capsys):
        expr = "(" * 2000 + "z" + ")" * 2000
        assert run(["coeff", expr, "--n", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expression nested too deeply at offset ")

    def test_value_over_str_digit_limit_prints(self, capsys):
        digits = decimal_digits(2**20000)
        assert len(digits) > 4300
        assert run(["coeff", "2^20000", "--n", "0"]) == 0
        assert capsys.readouterr().out == digits + "\n"
        assert run(["coeff", "2^20000", "--n", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["coefficient"] == digits
        assert run(["coeff", "2^(-20000)", "--n", "0"]) == 0
        assert capsys.readouterr().out == f"1/{digits}\n"



def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


class TestJsonErrors:
    """Under --json an exit-2 error is one JSON object on stderr."""

    def error(self, argv, capsys) -> dict:
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        return json.loads(err)

    def test_lex_error(self, capsys):
        assert self.error(["coeff", "z$", "--n", "1", "--json"], capsys) == {
            "kind": "LexError",
            "message": "unexpected character '$' at offset 1", "pos": 1}

    def test_parse_error(self, capsys):
        assert self.error(["coeff", "z^(1/0)", "--n", "1", "--json"],
                          capsys) == {
            "kind": "ParseError",
            "message": "zero denominator in exponent at offset 5", "pos": 5}

    def test_eval_error_has_no_pos(self, capsys):
        error = self.error(["coeff", "1/z", "--n", "1", "--json"], capsys)
        assert set(error) == {"kind", "message"}
        assert error["kind"] == "EvalError"
        assert "negative powers of z" in error["message"]

    def test_deep_nesting_reports_pos(self, capsys):
        expr = "(" * 2000 + "z" + ")" * 2000
        error = self.error(["coeff", expr, "--n", "1", "--json"], capsys)
        assert error["kind"] == "ParseError"
        assert 0 <= error["pos"] < len(expr)
        assert error["message"] == (
            f"expression nested too deeply at offset {error['pos']}")

    def test_deep_sum_in_evaluator(self, capsys):
        # A flat sum is long, not deep: it has a value, and no error.
        expr = "+".join(["z"] * 3000)
        assert run(["coeff", expr, "--n", "1", "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out) == {"expr": expr, "n": 1, "coefficient": "3000"}

    def test_recursion_error(self, monkeypatch, capsys):
        def too_deep(expr, order):
            raise RecursionError("maximum recursion depth exceeded")
        monkeypatch.setattr(cli, "evaluate", too_deep)
        assert self.error(["coeff", "z", "--n", "1", "--json"], capsys) == {
            "kind": "RecursionError",
            "message": "expression nested too deeply"}

    @pytest.mark.parametrize("expr, char, pos", [
        ("2\u00b2", "\u00b2", 1),  # superscript two
        ("z+\u0663", "\u0663", 2),  # Arabic-Indic digit three
    ])
    def test_non_ascii_digit(self, expr, char, pos, capsys):
        assert self.error(["coeff", expr, "--n", "1", "--json"], capsys) == {
            "kind": "LexError",
            "message": f"unexpected character {char!r} at offset {pos}",
            "pos": pos}

    @needs_digit_limit
    def test_literal_over_the_digit_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        expr = "z^2+" + "7" * (limit + 1)
        assert self.error(["coeff", expr, "--n", "1", "--json"], capsys) == {
            "kind": "LexError",
            "message": f"integer of {limit + 1} digits is over the limit of "
                       f"{limit} digits at offset 4",
            "pos": 4}

    @needs_digit_limit
    @pytest.mark.parametrize("flag", ["--m", "--n", "--c"])
    def test_grid_value_over_the_digit_limit(self, flag, capsys):
        limit = sys.get_int_max_str_digits()
        huge = "1/" + "3" * (limit + 1)
        assert self.error(["verify", "vandermonde", "--m", "1", "--n", "0",
                           "--c", "0", flag, huge, "--json"], capsys) == {
            "kind": "ValueError",
            "message": f"integer of {limit + 1} digits is over the limit of "
                       f"{limit} digits"}

    @needs_digit_limit
    @pytest.mark.parametrize("grid", ["0..{huge}", "{huge}..0", "1,0..{huge}"])
    def test_range_bound_over_the_digit_limit(self, grid, capsys):
        limit = sys.get_int_max_str_digits()
        huge = "9" * (limit + 1)
        assert self.error(["verify", "log-dual", "--n", grid.format(huge=huge),
                           "--c", "0", "--json"], capsys) == {
            "kind": "ValueError",
            "message": f"integer of {limit + 1} digits is over the limit of "
                       f"{limit} digits"}

    def test_verify_and_table(self, capsys):
        assert self.error(["verify", "vandermonde", "--m", "1", "--n", "0",
                           "--c=-1", "--json"], capsys) == {
            "kind": "ValueError",
            "message": "vandermonde needs c >= 0, got c=-1"}
        assert self.error(["table", "euler", "--case", "c0", "--n-max", "-1",
                           "--json"], capsys) == {
            "kind": "ValueError", "message": "--n-max must be >= 0, got -1"}

    def test_unexpected_exception(self, monkeypatch, capsys):
        def broken(args):
            raise TypeError("unsupported operand")
        monkeypatch.setattr(cli, "_cmd_verify", broken)
        assert self.error(["verify", "log-dual", "--n", "0", "--c", "0",
                           "--json"], capsys) == {
            "kind": "TypeError",
            "message": "unexpected TypeError: unsupported operand"}

    def test_usage_error_stays_argparse_text(self, capsys):
        assert run(["coeff", "z", "--json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")


class TestVerifyCommand:
    def test_vandermonde_all_true(self, capsys):
        code = run(["verify", "vandermonde", "--m", "1/2",
                    "--n", "0..8", "--c", "0..3", "--json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        jsonschema.validate(reports, REPORT_SCHEMA)
        assert len(reports) == 9 * 4
        assert all(r["verdict"] for r in reports)

    def test_log_dual_plain(self, capsys):
        assert run(["verify", "log-dual", "--n", "0..6", "--c=-3..3"]) == 0
        out = capsys.readouterr().out
        assert out.count("ok") == 7 * 7
        assert "FAIL" not in out

    def test_log_closed_json(self, capsys):
        code = run(["verify", "log-closed", "--n", "0..6", "--c=-6..0",
                    "--json"])
        assert code == 0
        reports = json.loads(capsys.readouterr().out)
        jsonschema.validate(reports, REPORT_SCHEMA)
        assert len(reports) == 7 * 7
        assert all(r.keys() == {"identity", "params", "routes", "verdict"}
                   for r in reports)

    def test_log_closed_rejects_positive_c(self, capsys):
        assert run(["verify", "log-closed", "--n", "0..3", "--c", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: no closed-form route for c=1 >= 1; "
            "use the dual-series routes\n")

    def test_vandermonde_rejects_negative_c(self):
        assert run(["verify", "vandermonde", "--m", "1",
                    "--n", "0..3", "--c=-1..1"]) == 2

    def test_m_on_log_identity_rejected(self):
        assert run(["verify", "log-dual", "--m", "1",
                    "--n", "0..3", "--c", "0"]) == 2

    def test_m_on_log_identity_rejected_before_any_grid(self, monkeypatch,
                                                         capsys):
        # A grid such as 0..100000000 would be built in full before --m
        # was checked, so the check must come first.
        def unreachable(text):
            raise AssertionError(f"grid {text!r} built before the --m check")
        monkeypatch.setattr(cli, "parse_grid", unreachable)
        assert run(["verify", "log-dual", "--n", "0..100000000", "--c", "0",
                    "--m", "1"]) == 2
        assert capsys.readouterr() == (
            "", "error: --m does not apply to log-dual\n")

    @pytest.mark.parametrize("identity", ["vandermonde", "log-dual"])
    def test_empty_m_exits_2(self, identity, capsys):
        assert run(["verify", identity, "--m", "", "--n", "0", "--c", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_zero_denominator_m_exits_2(self, capsys):
        assert run(["verify", "vandermonde", "--m", "1/0",
                    "--n", "0", "--c", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_usage_error_exits_2(self, capsys):
        assert run(["verify", "nonsense", "--n", "0", "--c", "0"]) == 2
        capsys.readouterr()


class TestTableCommand:
    def test_plain_mode(self, capsys):
        assert run(["table", "euler", "--case", "c0", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].split() == ["3", "11/6", "11/6", "11/6"]

    def test_json_mode(self, capsys):
        assert run(["table", "euler", "--case", "cm1", "--n-max", "4",
                    "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[-1] == {"n": 4, "lhs": "1/5", "rhs": "1/5", "closed": "1/5"}

    def test_csv_header(self, capsys):
        assert run(["table", "euler", "--case", "cm4", "--n-max", "2",
                    "--csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,lhs,rhs,closed"

    def test_negative_n_max_exits_2(self, capsys):
        assert run(["table", "euler", "--case", "c0", "--n-max", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_unknown_case_exits_2(self, capsys):
        assert run(["table", "euler", "--case", "c9", "--n-max", "2"]) == 2
        capsys.readouterr()

    def test_disagreeing_route_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli.identities, "log_closed",
                            lambda n, c: Fraction(n))
        assert run(["table", "euler", "--case", "cm1", "--n-max", "2",
                    "--csv"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "0,1,1,0", "1,1/2,1/2,1", "2,1/3,1/3,2"]


@pytest.mark.parametrize("case", ["c0", "c1", "c2", "cm1", "cm2", "cm3", "cm4"])
def test_golden_tables(case, capsys):
    assert run(["table", "euler", "--case", case, "--n-max", "7",
                "--csv"]) == 0
    expected = (GOLDEN_DIR / f"table_{case}.csv").read_text()
    assert capsys.readouterr().out == expected


GOLDEN_VERIFY = {
    "vandermonde": ["vandermonde", "--m=1/2,-5/3,2", "--n", "0..4",
                    "--c", "0..2"],
    "log_dual": ["log-dual", "--n", "0..4", "--c=-7..3"],
    "log_closed": ["log-closed", "--n", "0..4", "--c=-7..0"],
}


@pytest.mark.parametrize("suffix", ["txt", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_golden_verify(name, suffix, capsys):
    flags = ["--json"] if suffix == "json" else []
    assert run(["verify", *GOLDEN_VERIFY[name], *flags]) == 0
    expected = (GOLDEN_DIR / f"verify_{name}.{suffix}").read_text()
    assert capsys.readouterr().out == expected


def child_env() -> dict[str, str]:
    """The environment of a child that imports the checkout's package,
    installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "exactseries.cli", "coeff",
         "z^2/(1-z)^4", "--n", "5"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "20\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_the_command_by_sigpipe():
    # About 129 kB of JSON, more than a pipe holds, so the command is still
    # writing when the reader closes the pipe after one line.
    with subprocess.Popen(
        [sys.executable, "-m", "exactseries.cli", "verify", "log-dual",
         "--n", "0..60", "--c=-7..3", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as proc:
        assert proc.stdout.readline() == b"[\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
        assert proc.stderr.read() == b""
