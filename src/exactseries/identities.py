"""Multi-route evaluation of the binomial convolution identity and the
logarithmic-series identities.

Each identity is computed along several independent routes (finite sum,
closed form, series-coefficient extraction), listed once in ``IDENTITIES``;
exact agreement of all routes is the verdict.  Summation bounds are
computed up front from the vanishing conventions of the binomial symbol,
never by iterating until terms look small.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

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


def vandermonde_series_route(m: Fraction | int, n: int, c: int) -> Fraction:
    """Coefficient of z^n in z^c * (1-z)^(-(m+c+1)), built from series ops."""
    _check_vandermonde(n, c)
    expansion = binomial_series(-(Fraction(m) + c + 1), n, at_minus_z=True)
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

    With j = n-lam-c, upper negation (Concrete Mathematics (5.14)) makes
    each term s_j/lam, where s_j = (-1)^j C(-c-1, j) is the coefficient of
    z^j in (1-z)^-(c+1), for every integer c.  The row is rolled in
    integers from s_0 = 1 with s_(j+1) = s_j * (j+c+1) / (j+1), lam running
    down from n-c (c > n gives the empty sum); for c < 0 the row is 0 from
    j = -c on, so lam stops at n+1.  Each term is added as an integer
    numerator over L, the lcm of the summed lam, and the one Fraction is
    built at the end.
    """
    _check_n(n)
    lams = range(n + 1 if c < 0 else 1, n - c + 1)
    lcd = functools.reduce(math.lcm, lams, 1)
    total = 0
    row = 1
    for j, lam in enumerate(reversed(lams)):
        total += row * (lcd // lam)
        row = row * (j + c + 1) // (j + 1)
    return Fraction(total, lcd)


def log_closed(n: int, c: int) -> Fraction:
    """Closed form of the logarithmic series: harmonic(n) at c = 0, and
    (-1)^(d-1) (d-1)! / ((n+1)...(n+d)) at c = -d for every d >= 1, by
    Concrete Mathematics (5.41), sum_k C(n,k) (-1)^k / (x+k) =
    n! / (x (x+1) ... (x+n)), at x = d.  No closed-form route for c >= 1.
    """
    _check_n(n)
    if c > 0:
        raise ValueError(f"no closed-form route for c={c} >= 1; "
                         "use the dual-series routes")
    if c == 0:
        return harmonic(n)
    d = -c
    denom = math.prod(n + i for i in range(1, d + 1))
    return Fraction((-1) ** (d - 1) * math.factorial(d - 1), denom)


# Each identity's routes in print order, label -> route function name.  The
# routes of one identity take the same arguments and check them themselves.
# Names are looked up per call, so a rebound module attribute is what runs.
IDENTITIES = {
    "vandermonde": {"sum": "vandermonde_sum", "closed": "vandermonde_closed",
                    "series": "vandermonde_series_route"},
    "log_dual": {"lhs": "log_lhs", "rhs": "log_rhs"},
    "log_closed": {"lhs": "log_lhs", "closed": "log_closed"},
}
# The worked log-series table: the routes of both log identities, lhs, rhs
# and closed.  log_closed refuses c >= 1, so a table there sweeps log_dual.
IDENTITIES["log_table"] = {**IDENTITIES["log_dual"], **IDENTITIES["log_closed"]}


def _reports(names: dict, points: Iterable[dict]
             ) -> Iterator[tuple[dict, dict, bool]]:
    """One row (params, route_values, verdict) per point, a dict of the
    route arguments in order: every route in ``names`` runs at it, and the
    verdict is that all agree."""
    routes = {label: globals()[name] for label, name in names.items()}
    for params in points:
        values = {label: route(*params.values())
                  for label, route in routes.items()}
        first, *rest = values.values()
        yield params, values, all(v == first for v in rest)


def verify_rows(
    identity: str,
    ms: Sequence[Fraction | int] = (Fraction(0),),
    ns: Iterable[int] = (),
    cs: Iterable[int] = (),
) -> Iterator[tuple[dict, dict, bool]]:
    """Evaluate every route of ``identity`` over the parameter grid, one
    row (params, route_values, verdict) per grid point, in grid order.
    ``ms`` applies to vandermonde only; the log identities take points
    (n, c).  An unknown identity is refused here, before any row."""
    if identity not in IDENTITIES:
        raise ValueError(
            f"unknown identity {identity!r}; choose from {tuple(IDENTITIES)}")
    if identity == "vandermonde":
        points = ({"m": Fraction(m), "n": n, "c": c}
                  for m, n, c in itertools.product(ms, ns, cs))
    else:
        points = ({"n": n, "c": c} for n, c in itertools.product(ns, cs))
    return _reports(IDENTITIES[identity], points)


def verify(
    identity: str,
    ms: Sequence[Fraction | int] = (Fraction(0),),
    ns: Iterable[int] = (),
    cs: Iterable[int] = (),
) -> list[IdentityReport]:
    """``verify_rows`` as a list with one report per grid point."""
    from .report import IdentityReport
    return [IdentityReport(identity, *row)
            for row in verify_rows(identity, ms, ns, cs)]
