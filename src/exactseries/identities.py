"""Multi-route evaluation of the binomial convolution identity and the
logarithmic-series identities.

Each identity is computed along several independent routes (finite sum,
closed form, series-coefficient extraction); exact agreement of all routes
is the verification verdict.  Summation bounds are computed up front from
the vanishing conventions of the binomial symbol, never by iterating until
terms look small.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .binomial import binom, harmonic
from .series import binomial_series, coefficient, ps_monomial_shift


def _check_n(n: int) -> None:
    if n < 0:
        raise ValueError(
            f"identity evaluators need integer n >= 0 (the defining sums "
            f"do not terminate otherwise), got n={n}"
        )


def _check_vandermonde(n: int, c: int) -> None:
    _check_n(n)
    if c < 0:
        raise ValueError(f"vandermonde needs c >= 0, got c={c}")


def vandermonde_sum(m: Fraction | int, n: int, c: int) -> Fraction:
    """Sum over k of C(m, k) * C(n, c+k); terminates because c+k > n kills
    every later term for integer n >= 0."""
    _check_vandermonde(n, c)
    m = Fraction(m)
    total = Fraction(0)
    for k in range(0, max(0, n - c) + 1):
        total += binom(m, k) * binom(n, c + k)
    return total


def vandermonde_closed(m: Fraction | int, n: int, c: int) -> Fraction:
    """Closed form C(m+n, n-c); the lower index n-c stays an integer even
    for rational m."""
    _check_vandermonde(n, c)
    return binom(Fraction(m) + n, n - c)


def vandermonde_series_route(m: Fraction | int, n: int, c: int, N: int) -> Fraction:
    """Coefficient of z^n in z^c * (1-z)^(-(m+c+1)), built from series ops."""
    _check_vandermonde(n, c)
    if N < n:
        raise ValueError(f"truncation order {N} is below requested coefficient {n}")
    expansion = binomial_series(-(Fraction(m) + c + 1), N, at_minus_z=True)
    return coefficient(ps_monomial_shift(expansion, c), n)


def log_lhs(n: int, c: int) -> Fraction:
    """The alternating series C(n,c+1) - C(n,c+2)/2 + C(n,c+3)/3 - ...

    Only terms with 0 <= c+k <= n survive, so the sum is finite.  The row
    C(n, c+k) is rolled forward in integers with
    C(n, j+1) = C(n, j) * (n-j) / (j+1), and each term is added as an
    integer numerator over L, the lcm of the surviving k; the one Fraction
    is built at the end.
    """
    _check_n(n)
    k0 = max(1, -c)
    ks = range(k0, n - c + 1)
    lcd = functools.reduce(math.lcm, ks, 1)
    total = 0
    row = math.comb(n, c + k0)
    for k in ks:
        total += (row if k % 2 == 1 else -row) * (lcd // k)
        row = row * (n - c - k) // (c + k + 1)
    return Fraction(total, lcd)


def log_rhs(n: int, c: int) -> Fraction:
    """The dual series sum over lam >= 1 of C(n-lam, n-lam-c)/lam.

    Past lam = n-c every lower index is negative and the term vanishes;
    c > n gives the empty sum.  For c >= 0 every surviving upper index
    N = n-lam is at least c, where the complement rewrite makes the term
    C(N, c); that row is rolled downward in integers with
    C(N, c) = C(N+1, c) * (N+1-c) / (N+1).  For c < 0 a term with N >= 0
    has lower index N-c > N and vanishes, so only the -c terms with N < 0
    survive; for those, reflection gives C(N, j) = (-1)^j C(-c-1, j) with
    j = N-c.  Each term is added as an integer numerator over L, the lcm of
    the surviving lam, and the one Fraction is built at the end.
    """
    _check_n(n)
    if c < 0:
        lams = range(n + 1, n - c + 1)
        lcd = functools.reduce(math.lcm, lams, 1)
        total = 0
        for lam in lams:
            j = n - lam - c
            term = math.comb(-c - 1, j) * (lcd // lam)
            total += -term if j % 2 else term
        return Fraction(total, lcd)
    lams = range(1, n - c + 1)
    lcd = functools.reduce(math.lcm, lams, 1)
    total = 0
    row = math.comb(n, c)
    for lam in lams:
        row = row * (n - lam + 1 - c) // (n - lam + 1)
        total += row * (lcd // lam)
    return Fraction(total, lcd)


def log_closed(n: int, c: int) -> Fraction:
    """Closed form of the logarithmic series: harmonic(n) at c = 0, and
    (-1)^(d-1) (d-1)! / ((n+1)...(n+d)) at c = -d for d >= 1.

    The negative-c formula beyond d = 4 extrapolates the proven d <= 4
    pattern; the verification grids cross-check it against the term-by-term
    series.  No closed form is available for c >= 1.
    """
    _check_n(n)
    if c > 0:
        raise ValueError(
            f"no closed form for c={c} >= 1; use the dual-series routes"
        )
    if c == 0:
        return harmonic(n)
    d = -c
    denom = math.prod(n + i for i in range(1, d + 1))
    return Fraction((-1) ** (d - 1) * math.factorial(d - 1), denom)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of verifying one identity at one parameter point."""

    identity: str
    params: dict
    route_values: dict
    verdict: bool
    notes: tuple[str, ...] = field(default_factory=tuple)


IDENTITIES = ("vandermonde", "log_dual", "log_closed")


def _report(identity: str, params: dict, routes: dict,
            notes: tuple[str, ...] = ()) -> IdentityReport:
    values = list(routes.values())
    verdict = all(v == values[0] for v in values)
    return IdentityReport(identity, params, routes, verdict, notes)


def verify(
    identity: str,
    ms: Sequence[Fraction | int] = (Fraction(0),),
    ns: Iterable[int] = (),
    cs: Iterable[int] = (),
) -> list[IdentityReport]:
    """Evaluate every applicable route of ``identity`` over the parameter
    grid, one report per grid point, in grid order."""
    if identity not in IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; choose from {IDENTITIES}")
    reports = []
    if identity == "vandermonde":
        for m, n, c in itertools.product(ms, ns, cs):
            m = Fraction(m)
            routes = {
                "sum": vandermonde_sum(m, n, c),
                "closed": vandermonde_closed(m, n, c),
                "series": vandermonde_series_route(m, n, c, n),
            }
            reports.append(_report(identity, {"m": m, "n": n, "c": c}, routes))
    elif identity == "log_dual":
        for n, c in itertools.product(ns, cs):
            routes = {"lhs": log_lhs(n, c), "rhs": log_rhs(n, c)}
            reports.append(_report(identity, {"n": n, "c": c}, routes))
    else:
        for n, c in itertools.product(ns, cs):
            routes = {"lhs": log_lhs(n, c), "closed": log_closed(n, c)}
            notes = ("closed form extrapolated beyond proven range",) if c < -4 else ()
            reports.append(_report(identity, {"n": n, "c": c}, routes, notes))
    return reports


def log_table(c: int, ns: Iterable[int]) -> list[IdentityReport]:
    """Rows of the worked log-series table for shift c, one report per n:
    routes lhs and rhs, and closed where a closed form exists (c <= 0)."""
    reports = []
    for n in ns:
        routes = {"lhs": log_lhs(n, c), "rhs": log_rhs(n, c)}
        if c <= 0:
            routes["closed"] = log_closed(n, c)
        reports.append(_report("log_table", {"n": n, "c": c}, routes))
    return reports
