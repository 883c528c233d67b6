"""The benchmark's three workloads: how each operation is drawn from the
seed, how it calls the program, and how its output is judged.

Every workload is made of rounds.  A round has a fixed make-up (which
families, how many operations, which size bins); the seed only picks the
values inside it.  Sizes are stratified: each round takes one value from
every bin of a ladder, so the spread of operation costs, and with it the
latency percentiles, is the same whatever the seed.

A judge returns OK, ERROR (the program failed to answer, or broke the
exit-code contract) or WRONG (it answered, and the answer disagrees with the
oracles).  Both ERROR and WRONG count as failed operations; WRONG also makes
the run incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable, NamedTuple

import exactseries.cli as cli
import exactseries.identities as identities

import oracles

OK, ERROR, WRONG = "ok", "error", "wrong"

MIN_OPS = 100  # leaves ten samples beyond the 90th percentile
SHOW_FAILURES = 10


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` runs the program once (that call is what is
    timed) and ``judge`` classifies its output."""

    label: str
    call: Callable[[], object]
    judge: Callable[[object], str]


class Proc(NamedTuple):
    """Outcome of one command: exit code, stdout and stderr text."""

    rc: int
    out: str
    err: str


def digest_text(result) -> str:
    """What of an output goes into the run's digest.  Not stderr, whose
    tracebacks name paths of the checkout."""
    if isinstance(result, Proc):
        return repr((result.rc, result.out))
    return repr(result)


def ladder(rng, starts: tuple[int, ...]) -> list[int]:
    """One size from each bin [start, start + start // 16]."""
    return [start + rng.randrange(1 + start // 16) for start in starts]


# Bin starts grow geometrically: the cost of an operation grows like a power
# of n, so every bin adds about the same step of log-cost, and the latency
# distribution has no sparse stretch for a percentile to fall into.  A round
# holds a number of operations that is odd and ends in 5 (45, 75, 25): with
# R rounds, the median and the 90th percentile then fall in the middle of a
# group of R like operations, not on the edge between two groups.
GRID_SIZES = (3, 4, 5, 7, 9, 11, 14, 18, 23, 29, 36, 45, 56, 70, 88)
COEFF_SIZES = (3, 4, 5, 6, 8, 10, 12, 15, 18, 22, 27, 33, 40)


def small_rational(rng, p_max: int, q_max: int) -> Fraction:
    return Fraction(rng.randint(-p_max, p_max), rng.randint(1, q_max))


def rational_text(value: Fraction) -> str:
    """``p`` or ``p/q``.  Not the program's own formatter, whose calls the
    traced run would count as work of the program."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ------------------------------------------------------ identity routes

def expected_routes(identity: str, m: Fraction, n: int, c: int) -> dict:
    """Route values a correct report carries at (m, n, c)."""
    if identity == "vandermonde":
        closed = oracles.vandermonde_closed(m, n, c)
        finite = (oracles.vandermonde_sum(int(m), n, c)
                  if m.denominator == 1 else closed)
        return {"sum": finite, "closed": closed, "series": closed}
    if identity == "log_dual":
        return {"lhs": oracles.log_lhs(n, c), "rhs": oracles.log_rhs(n, c)}
    return {"lhs": oracles.log_lhs(n, c), "closed": oracles.log_closed(n, c)}


def judge_points(identity: str, m: Fraction, ns, cs, points) -> str:
    """``points`` is a list of (params, routes, verdict), one per grid point
    in grid order, with params and routes already parsed to numbers."""
    grid = [(n, c) for n in ns for c in cs]
    if len(points) != len(grid):
        return WRONG
    for (params, routes, verdict), (n, c) in zip(points, grid):
        want = {"n": n, "c": c}
        if identity == "vandermonde":
            want["m"] = m
        if (params != want or not verdict
                or routes != expected_routes(identity, m, n, c)):
            return WRONG
    return OK


def verify_grid_op(identity: str, m: Fraction, ns: range, cs: range) -> Op:
    def call():
        return identities.verify(identity, ms=[m], ns=ns, cs=cs)

    def judge(reports):
        points = [(r.params, r.route_values, r.verdict) for r in reports]
        if any(r.identity != identity for r in reports):
            return WRONG
        return judge_points(identity, m, ns, cs, points)

    label = (f"verify {identity} m={m} n={ns.start}..{ns.stop - 1} "
             f"c={cs.start}..{cs.stop - 1}")
    return Op(label, call, judge)


def verify_grid_round(rng) -> list[Op]:
    """Per identity, one grid of 2 n values x 2 c values starting in each
    bin of GRID_SIZES: 45 grids.

    The denominator of m and the c windows follow the bin index, so every
    round holds the same mix of costs; the seed picks the n inside each bin
    and the numerator of m.
    """
    ops = []
    for i, n0 in enumerate(ladder(rng, GRID_SIZES)):
        ns = range(n0, n0 + 2)
        m = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), 1 + i % 6)
        c0 = i % 4
        ops.append(verify_grid_op("vandermonde", m, ns, range(c0, c0 + 2)))
        c0 = i % 9 - 5
        ops.append(verify_grid_op("log_dual", Fraction(0), ns, range(c0, c0 + 2)))
        c0 = i % 6 - 6
        ops.append(verify_grid_op("log_closed", Fraction(0), ns, range(c0, c0 + 2)))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------- coefficient families
# Each takes (rng, n, i), i the index of n's size bin, and returns an
# expression and its z^n coefficient.  Choices that change the cost a lot
# (a denominator, a log power) follow the bin index, so each round holds the
# same mix of costs.

def proper_fraction(rng, q: int) -> Fraction:
    """p/q with 0 < |p| <= 5 and q not dividing p, so never an integer."""
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.choice([p for p in range(1, 6) if p % q]), q)


def family_rational_power(rng, n, i):
    a = rng.randint(1, 4)
    e = proper_fraction(rng, 2 + i % 4)
    return f"(1-{a}*z)^({rational_text(e)})", oracles.rational_power(a, e, n)


def family_shifted_geometric(rng, n, i):
    p, q = rng.randint(0, 4), rng.randint(0, 5)
    return f"z^{p}/(1-z)^{q + 1}", oracles.shifted_geometric_power(p, q, n)


def family_catalan(rng, n, i):
    return "(1-(1-4*z)^(1/2))/(2*z)", oracles.catalan(n)


def family_log_power(rng, n, i):
    k = 1 + i % 3
    power = "" if k == 1 else f"^{k}"
    return (f"log(1/(1-z)){power}/(1-z)",
            oracles.log_power_over_geometric(k, n))


def family_binomial_product(rng, n, i):
    # A positive integer b keeps one rational ps_pow per product; a negative
    # one would add a second, doubling the cost of the family.
    a = proper_fraction(rng, 2 + i % 3)
    b = rng.randint(1, 4)
    return (f"(1+z)^({rational_text(a)})*(1+z)^{b}",
            oracles.binomial_product(a, b, n))


def family_polynomial_power(rng, n, i):
    coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-3, 3),
              rng.choice((-3, -2, -1, 1, 2, 3))]
    k = max(2, math.ceil(n / 2)) + rng.randint(0, 2)
    text = f"({coeffs[0]}{coeffs[1]:+d}*z{coeffs[2]:+d}*z^2)^{k}"
    return text, oracles.polynomial_power(coeffs, k, n)


FAMILIES = (family_rational_power, family_catalan, family_binomial_product,
            family_shifted_geometric, family_log_power, family_polynomial_power)
CHEAP_FAMILIES = FAMILIES[3:]


def judge_coefficient(expected: Fraction, text: str) -> str:
    try:
        value = Fraction(text.strip())
    except ValueError:
        return WRONG
    return OK if value == expected else WRONG


def coeff_in_process(argv: list[str]) -> Proc:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return Proc(rc, out.getvalue(), err.getvalue())


def judge_success(proc: Proc, check_stdout: Callable[[str], str]) -> str:
    """Exit 0 with a silent stderr: judge the output.  Exit 1 with a silent
    stderr is a false verdict, a wrong answer.  Anything else is an error."""
    if proc.err:
        return ERROR
    if proc.rc == 0:
        return check_stdout(proc.out)
    return WRONG if proc.rc == 1 else ERROR


def expand_op(expr: str, n: int, expected) -> Op:
    argv = ["coeff", expr, "--n", str(n)]
    return Op(f"coeff {expr} --n {n}",
              lambda: coeff_in_process(argv),
              lambda proc: judge_success(
                  proc, lambda out: judge_coefficient(expected, out)))


def expand_round(rng) -> list[Op]:
    """Per family, one coefficient in each bin of COEFF_SIZES; the cheap
    families skip the smallest bin: 75 requests."""
    ops = []
    for family in FAMILIES:
        sizes = COEFF_SIZES[1:] if family in CHEAP_FAMILIES else COEFF_SIZES
        for i, n in enumerate(ladder(rng, sizes)):
            expr, expected = family(rng, n, i)
            ops.append(expand_op(expr, n, expected))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------- subprocesses

TABLE_CASES = {"c0": 0, "c1": 1, "c2": 2, "cm1": -1, "cm2": -2, "cm3": -3,
               "cm4": -4}


def parse_text_report(line: str):
    """``vandermonde m=1/2 n=3 c=0: sum=.. closed=.. series=.. ok``"""
    head, _, tail = line.partition(": ")
    identity, *params = head.split()
    *routes, status = tail.split()
    parsed = {}
    for item in params:
        key, _, value = item.partition("=")
        parsed[key] = Fraction(value) if key == "m" else int(value)
    values = {}
    for item in routes:
        key, _, value = item.partition("=")
        values[key] = Fraction(value)
    return identity, parsed, values, status == "ok"


def parse_json_report(item: dict):
    params = {key: Fraction(value) if key == "m" else value
              for key, value in item["params"].items()}
    values = {key: Fraction(value) for key, value in item["routes"].items()}
    return item["identity"], params, values, item["verdict"] is True


def cli_verify_op(spawn, identity: str, m: Fraction, ns: range, cs: range,
                  as_json: bool) -> Op:
    argv = ["verify", identity.replace("_", "-"),
            f"--n={ns.start}..{ns.stop - 1}", f"--c={cs.start}..{cs.stop - 1}"]
    if identity == "vandermonde":
        argv.append(f"--m={rational_text(m)}")
    if as_json:
        argv.append("--json")

    def check(out: str) -> str:
        try:
            if as_json:
                reports = [parse_json_report(item) for item in json.loads(out)]
            else:
                reports = [parse_text_report(line) for line in out.splitlines()]
        except (ValueError, KeyError, TypeError, AttributeError):
            return WRONG
        if any(r[0] != identity for r in reports):
            return WRONG
        return judge_points(identity, m, ns, cs, [r[1:] for r in reports])

    return Op(" ".join(argv), lambda: spawn(argv),
              lambda proc: judge_success(proc, check))


def cli_table_op(spawn, case: str, n_max: int, fmt: str) -> Op:
    argv = ["table", "euler", f"--case={case}", f"--n-max={n_max}", fmt]
    c = TABLE_CASES[case]

    def check(out: str) -> str:
        try:
            if fmt == "--json":
                rows = [(r["n"], r["lhs"], r["rhs"], r["closed"])
                        for r in json.loads(out)]
            else:
                lines = out.splitlines()
                if lines[0] != "n,lhs,rhs,closed":
                    return WRONG
                rows = [line.split(",") for line in lines[1:]]
            rows = [(int(n), Fraction(lhs), Fraction(rhs),
                     None if closed == "-" else Fraction(closed))
                    for n, lhs, rhs, closed in rows]
        except (ValueError, KeyError, TypeError, IndexError):
            return WRONG
        if [row[0] for row in rows] != list(range(n_max + 1)):
            return WRONG
        for n, lhs, rhs, closed in rows:
            if lhs != rhs or lhs != oracles.log_lhs(n, c):
                return WRONG
            if closed != (None if c >= 1 else lhs):
                return WRONG
        return OK

    return Op(" ".join(argv), lambda: spawn(argv),
              lambda proc: judge_success(proc, check))


def cli_coeff_op(spawn, expr: str, n: int, expected, as_json: bool) -> Op:
    argv = ["coeff", expr, f"--n={n}"] + (["--json"] if as_json else [])

    def check(out: str) -> str:
        if not as_json:
            return judge_coefficient(expected, out)
        try:
            data = json.loads(out)
        except ValueError:
            return WRONG
        if not isinstance(data, dict) or data.keys() != {"expr", "n", "coefficient"}:
            return WRONG
        if data["expr"] != expr or data["n"] != n:
            return WRONG
        return judge_coefficient(expected, str(data["coefficient"]))

    return Op(" ".join(argv), lambda: spawn(argv),
              lambda proc: judge_success(proc, check))


def judge_usage_error(proc: Proc) -> str:
    """Bad input must exit 2 with one ``error:`` line and no output."""
    lines = proc.err.splitlines()
    good = (proc.rc == 2 and not proc.out and len(lines) == 1
            and lines[0].startswith("error:"))
    return OK if good else ERROR


def fixed_fault_ops(spawn) -> list[Op]:
    """Two operations that fail at the time the benchmark was written, on
    inputs that never depend on the seed:

    - ``z^10/z^10`` is 1, so its z^5 coefficient is 0; the program evaluates
      at order n + 8 and each division by z^10 loses ten orders, so it
      exits 2 with "outside truncation range".
    - ``--m 1/0`` must be refused with exit 2 and an ``error:`` line; the
      program lets a ZeroDivisionError escape as a traceback with exit 1.
    """
    z10 = ["coeff", "z^10/z^10", "--n=5"]
    m10 = ["verify", "vandermonde", "--m=1/0", "--n=0", "--c=0"]
    return [
        Op(" ".join(z10), lambda: spawn(z10),
           lambda proc: judge_success(proc, lambda out: judge_coefficient(0, out))),
        Op(" ".join(m10), lambda: spawn(m10), judge_usage_error),
    ]


def cli_round(rng, spawn) -> list[Op]:
    """Three small ``coeff`` commands from three different families (one as
    --json), every identity once as text and once as --json on a small grid,
    all seven ``table euler`` cases as --csv and --json, and the two fixed
    faulty commands: 25 commands."""
    ops = []
    for i, family in enumerate(rng.sample(FAMILIES, 3)):
        n = rng.randint(3, 10)
        expr, expected = family(rng, n, rng.randrange(12))
        ops.append(cli_coeff_op(spawn, expr, n, expected, as_json=i == 1))
    for as_json in (False, True):
        n0 = rng.randint(0, 8)
        ns = range(n0, n0 + 4)
        c0 = rng.randint(0, 2)
        ops.append(cli_verify_op(spawn, "vandermonde", small_rational(rng, 6, 6),
                                 ns, range(c0, c0 + 3), as_json))
        c0 = rng.randint(-4, 1)
        ops.append(cli_verify_op(spawn, "log_dual", Fraction(0), ns,
                                 range(c0, c0 + 4), as_json))
        c0 = rng.randint(-5, -2)
        ops.append(cli_verify_op(spawn, "log_closed", Fraction(0), ns,
                                 range(c0, c0 + 3), as_json))
    for case in TABLE_CASES:
        for fmt in ("--csv", "--json"):
            ops.append(cli_table_op(spawn, case, rng.randint(6, 14), fmt))
    ops.extend(fixed_fault_ops(spawn))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------- the loop

class Run:
    """Counts, latencies and the output digest of one workload run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.outcomes = Counter()
        self.failures: dict[str, str] = {}
        self.rounds = 0
        self.digest = hashlib.sha256()
        self.digest_ops = 0
        self.stdout_bytes = 0

    def execute(self, op, in_digest: bool) -> None:
        start = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # the program crashed: count it, go on
            result = exc
        self.latencies.append(perf_counter() - start)
        if isinstance(result, Exception):
            kind, text = ERROR, f"raised {type(result).__name__}"
        else:
            try:
                kind = op.judge(result)
            except Exception:  # output of a shape the judge cannot read
                kind = WRONG
            text = digest_text(result)
        self.outcomes[kind] += 1
        if kind != OK and len(self.failures) < SHOW_FAILURES:
            self.failures.setdefault(op.label, kind)
        if in_digest:
            self.digest.update(text.encode() + b"\n")
            self.digest_ops += 1
        if isinstance(result, Proc):
            self.stdout_bytes += len(result.out.encode())

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def run_workload(make_round, rng, seconds: float) -> Run:
    """Whole rounds until the operations took ``seconds`` and MIN_OPS ran.

    The digest covers the rounds that bring the count to MIN_OPS, which
    every run completes, so runs of different speed hash the same outputs.
    """
    run = Run()
    while run.busy_s < seconds or len(run.latencies) < MIN_OPS:
        in_digest = len(run.latencies) < MIN_OPS
        for op in make_round(rng):
            run.execute(op, in_digest)
        run.rounds += 1
    return run
