"""Command-line front end: coefficient extraction, identity sweeps, and
the numeric tables for the logarithmic-series cases.

Exit codes: 0 success (all verdicts true), 1 any failed verdict,
2 usage / lexical / parse / evaluation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import identities
from .lang import (EvalError, LexError, ParseError, evaluate, order_loss,
                   parse_text)
from .rationals import format_rational, parse_int, parse_rational
from .series import MAX_ORDER, PowerSeries, ZeroToOrderError, coefficient

TABLE_CASES = {
    "c0": 0,
    "c1": 1,
    "c2": 2,
    "cm1": -1,
    "cm2": -2,
    "cm3": -3,
    "cm4": -4,
}

# Without --order, coeff evaluates at most this many orders above n.  This
# bounds the work spent on a divisor that cancels to every order, such as
# (1+z)-1-z, while leaving room for divisions by z^v with v far above n.
MAX_EXTRA_ORDERS = 64


def parse_grid(text: str) -> list[Fraction]:
    """Grid flag syntax: a single rational, an inclusive integer range
    ``a..b``, or a comma-separated list of either."""
    values: list[Fraction] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_text, _, hi_text = part.partition("..")
            lo, hi = parse_int(lo_text), parse_int(hi_text)
            if hi < lo:
                raise ValueError(f"empty range {part!r}")
            values.extend(Fraction(v) for v in range(lo, hi + 1))
        else:
            values.append(parse_rational(part))
    return values


def _int_grid(values: list[Fraction], flag: str) -> list[int]:
    out = []
    for v in values:
        if v.denominator != 1:
            raise ValueError(f"{flag} must be integer, got {format_rational(v)}")
        out.append(int(v))
    return out


def _evaluate_to(expr, n: int, cap: int) -> PowerSeries:
    """Evaluate expr at order n plus what its divisions and powers lose as
    far as the tree shows it (lang.order_loss, never more than they lose),
    and again at higher orders up to cap while that falls short of z^n.

    The loop is for what the tree cannot show.  A loss is the same v at any
    order above v, so a short result, such as one whose divisor cancels to
    a higher valuation, is evaluated again with the shortfall added.  An
    operand that is zero to its order may have its leading term above it,
    so that error doubles the order.  Every other error is final: it ends
    the search, so the error reported is the first one met at the lowest
    order tried.  One evaluation at cap may meet another one first, such
    as a power over the bit limit whose base is zero to the lower order.
    An order above series.MAX_ORDER is refused before it is evaluated.
    """
    order = min(cap, n + order_loss(expr))
    while True:
        if order > MAX_ORDER:
            raise ValueError(f"evaluation order {order} is over the limit "
                             f"of {MAX_ORDER}")
        try:
            result = evaluate(expr, order)
        except EvalError as exc:
            if order == cap or not isinstance(exc.__cause__, ZeroToOrderError):
                raise
            order = min(cap, 2 * order + 1)
            continue
        if result.order >= n or order == cap:
            return result
        order = min(cap, order + n - result.order)


def _cmd_coeff(args) -> int:
    expr = parse_text(args.expr)
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    cap = args.n + MAX_EXTRA_ORDERS if args.order is None else args.order
    if cap < args.n:
        raise ValueError(f"--order {args.order} is below --n {args.n}")
    value = coefficient(_evaluate_to(expr, args.n, cap), args.n)
    if args.json:
        print(json.dumps({
            "expr": args.expr,
            "n": args.n,
            "coefficient": format_rational(value),
        }))
    else:
        print(format_rational(value))
    return 0


def _row_json(identity: str, params: dict, route_values: dict,
              verdict: bool) -> dict:
    params = {k: (format_rational(v) if isinstance(v, Fraction) else v)
              for k, v in params.items()}
    return {
        "identity": identity,
        "params": params,
        "routes": {k: format_rational(v) for k, v in route_values.items()},
        "verdict": verdict,
    }


def _cmd_verify(args) -> int:
    identity = args.identity.replace("-", "_")
    # Before any grid is built: a range of --n or --c may be large.
    if args.m is not None and identity != "vandermonde":
        raise ValueError(f"--m does not apply to {args.identity}")
    ns = _int_grid(parse_grid(args.n), "--n")
    cs = _int_grid(parse_grid(args.c), "--c")
    ms = [Fraction(0)] if args.m is None else parse_grid(args.m)
    reports = [_row_json(identity, *row)
               for row in identities.verify_rows(identity, ms, ns, cs)]
    if args.json:
        print(json.dumps(reports, indent=2))
    else:
        for r in reports:
            params = " ".join(f"{k}={v}" for k, v in r["params"].items())
            routes = " ".join(f"{k}={v}" for k, v in r["routes"].items())
            status = "ok" if r["verdict"] else "FAIL"
            print(f"{r['identity']} {params}: {routes} {status}")
    return 0 if all(r["verdict"] for r in reports) else 1


def _cmd_table(args) -> int:
    c = TABLE_CASES[args.case]
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0, got {args.n_max}")
    reports = [_row_json("log_table", *row)
               for row in identities.log_table_rows(c, range(args.n_max + 1))]
    rows = [{"n": r["params"]["n"], "lhs": r["routes"]["lhs"],
             "rhs": r["routes"]["rhs"],
             "closed": r["routes"].get("closed", "-")} for r in reports]
    if args.json:
        print(json.dumps(rows, indent=2))
    elif args.csv:
        print("n,lhs,rhs,closed")
        for row in rows:
            print(f"{row['n']},{row['lhs']},{row['rhs']},{row['closed']}")
    else:
        print(f"{'n':>4}  {'lhs':>16}  {'rhs':>16}  {'closed':>16}")
        for row in rows:
            print(f"{row['n']:>4}  {row['lhs']:>16}  "
                  f"{row['rhs']:>16}  {row['closed']:>16}")
    return 0 if all(r["verdict"] for r in reports) else 1


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser,
                            dict[str, argparse.ArgumentParser]]:
    """The argument parser and its map from command name to subparser,
    built once per process.  Each command runs the module's
    ``_cmd_<command>``, looked up by name at dispatch."""
    parser = argparse.ArgumentParser(
        prog="exactseries",
        description="Exact binomial-coefficient series identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="coefficient of z^n in an expression")
    p_coeff.add_argument("expr")
    p_coeff.add_argument("--n", type=parse_int, required=True,
                         help="print the coefficient of z^N")
    p_coeff.add_argument("--order", type=parse_int, default=None,
                         help="highest order to evaluate at "
                              f"(default: n + {MAX_EXTRA_ORDERS})")
    p_coeff.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="multi-route identity sweep")
    p_verify.add_argument("identity",
                          choices=["vandermonde", "log-dual", "log-closed"])
    p_verify.add_argument("--m", default=None,
                          help="rational or grid (vandermonde only)")
    p_verify.add_argument("--n", required=True, help="integer grid, e.g. 0..12")
    p_verify.add_argument("--c", required=True, help="integer grid, e.g. -5..5")
    p_verify.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="numeric tables of worked cases")
    p_table.add_argument("family", choices=["euler"])
    p_table.add_argument("--case", required=True, choices=sorted(TABLE_CASES))
    p_table.add_argument("--n-max", type=parse_int, required=True, dest="n_max")
    fmt = p_table.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true")
    fmt.add_argument("--json", action="store_true")

    return parser, sub.choices


def _fail(args, exc: Exception, message: str) -> int:
    """Report an error on stderr and return exit code 2: one ``error:``
    line, or under --json one JSON object with kind, message and, for a
    lexical or parse error, the input offset pos."""
    if args.json:
        error = {"kind": type(exc).__name__, "message": message}
        if isinstance(exc, (LexError, ParseError)):
            error["pos"] = exc.pos
        print(json.dumps(error), file=sys.stderr)
    else:
        print(f"error: {message}", file=sys.stderr)
    return 2


def run(argv: list[str]) -> int:
    parser, commands = build_parser()
    try:
        if argv and argv[0] in commands:
            # The command's own parser alone: the top-level parse_args would
            # run it too, after matching the command.  Leftovers get the
            # top level's message, as parse_args gives them.
            args, extras = commands[argv[0]].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            args.command = argv[0]
        else:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except (ValueError, IndexError) as exc:
        return _fail(args, exc, str(exc))
    except RecursionError as exc:
        return _fail(args, exc, "expression nested too deeply")
    except Exception as exc:
        # A bug, but exit 1 is reserved for a false verdict.
        return _fail(args, exc, f"unexpected {type(exc).__name__}: {exc}")


def main() -> None:
    # A reader that closes stdout early, as head does, ends the command by
    # SIGPIPE, as it ends other tools, instead of an error report.  Python
    # ignores SIGPIPE, so each write would raise BrokenPipeError.  Imported
    # here, so that importing this module stays as cheap as it was.
    import signal
    if hasattr(signal, "SIGPIPE"):  # not on Windows
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
