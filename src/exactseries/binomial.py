"""Generalized binomial coefficients and harmonic numbers, exactly.

The binomial coefficient C(p, q) is defined for any rational upper index p
and any integer lower index q by the falling-factorial product

    C(p, q) = p/1 * (p-1)/2 * ... * (p-q+1)/q

with C(p, 0) = 1 (empty product) and C(p, q) = 0 for q < 0.  The last
convention is what lets the identity sums in :mod:`exactseries.identities`
drop out-of-range terms silently.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


def binom(upper: Fraction | int, lower: int) -> Fraction:
    """Exact generalized binomial coefficient C(upper, lower).

    Total function: lower < 0 gives 0, lower == 0 gives 1, and an integer
    0 <= upper < lower gives 0 (the factor upper - upper is in the product)
    without running the loop.  The product is accumulated factor by factor
    so every intermediate stays reduced.
    """
    upper = Fraction(upper)
    if lower < 0 or (upper.denominator == 1
                     and 0 <= upper.numerator < lower):
        return Fraction(0)
    acc = Fraction(1)
    for i in range(1, lower + 1):
        acc = acc * (upper - i + 1) / i
    return acc


def harmonic(n: int) -> Fraction:
    """Exact harmonic number 1 + 1/2 + ... + 1/n; harmonic(0) = 0.

    The terms are summed as integer numerators L/k over L = lcm(1..n), and
    the one Fraction is built at the end.
    """
    if n < 0:
        raise ValueError(f"harmonic number needs n >= 0, got {n}")
    ks = range(1, n + 1)
    lcd = functools.reduce(math.lcm, ks, 1)
    return Fraction(sum([lcd // k for k in ks]), lcd)
