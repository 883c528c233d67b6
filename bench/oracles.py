"""Reference values for the benchmark, computed apart from exactseries.

Nothing here imports the package under test.  Integer binomials come from
``math.comb``; binomials with a rational upper index come from one integer
falling-factorial product turned into a single Fraction at the end; series
coefficients come from plain integer convolutions over a common denominator.
None of this shares a code path with the program's step-by-step Fraction
recurrences, so agreement is evidence, not a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction


def ibinom(a: int, b: int) -> int:
    """C(a, b) for any integer a and integer b; 0 when b < 0.

    For negative a this is the generalized coefficient
    (-1)^b C(b - a - 1, b), the same convention the program uses.
    """
    if b < 0:
        return 0
    if a >= 0:
        return math.comb(a, b)
    return (-1) ** b * math.comb(b - a - 1, b)


def gbinom(x: Fraction | int, k: int) -> Fraction:
    """C(x, k) for rational x = p/q: prod_{i<k} (p - i q) / (q^k k!)."""
    if k < 0:
        return Fraction(0)
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    return Fraction(math.prod(p - i * q for i in range(k)),
                    q ** k * math.factorial(k))


def harmonic(n: int) -> Fraction:
    """H_n = 1 + 1/2 + ... + 1/n, summed over the common denominator n!."""
    f = math.factorial(n)
    return Fraction(sum(f // k for k in range(1, n + 1)), f)


def _sum_over_k(terms: list[tuple[int, int]]) -> Fraction:
    """Sum of num/k over (num, k) pairs, over the common denominator lcm(k)."""
    if not terms:
        return Fraction(0)
    den = math.lcm(*(k for _, k in terms))
    return Fraction(sum(num * (den // k) for num, k in terms), den)


# ------------------------------------------------------------ identities

def vandermonde_closed(m: Fraction, n: int, c: int) -> Fraction:
    """C(m + n, n - c)."""
    return gbinom(Fraction(m) + n, n - c)


def vandermonde_sum(m: int, n: int, c: int) -> int:
    """sum_k C(m, k) C(n, c + k) for integer m, over integer binomials."""
    return sum(ibinom(m, k) * ibinom(n, c + k) for k in range(0, n - c + 1))


def log_lhs(n: int, c: int) -> Fraction:
    """C(n, c+1) - C(n, c+2)/2 + C(n, c+3)/3 - ..., terms with 0 <= c+k <= n."""
    return _sum_over_k([((-1) ** (k - 1) * math.comb(n, c + k), k)
                        for k in range(max(1, -c), n - c + 1)])


def log_rhs(n: int, c: int) -> Fraction:
    """sum_{lam >= 1} C(n - lam, n - lam - c) / lam, up to lam = n - c."""
    return _sum_over_k([(ibinom(n - lam, n - lam - c), lam)
                        for lam in range(1, n - c + 1)])


def log_closed(n: int, c: int) -> Fraction:
    """H_n at c = 0; (-1)^(d-1) (d-1)! / ((n+1)...(n+d)) at c = -d."""
    if c == 0:
        return harmonic(n)
    d = -c
    return Fraction((-1) ** (d - 1) * math.factorial(d - 1),
                    math.prod(range(n + 1, n + d + 1)))


# ------------------------------------------------- coefficients of z^n

def catalan(n: int) -> int:
    """C(2n, n) / (n + 1)."""
    return math.comb(2 * n, n) // (n + 1)


def shifted_geometric_power(p: int, q: int, n: int) -> int:
    """[z^n] z^p / (1 - z)^(q+1) = C(n - p + q, n - p) for integer q >= 0."""
    return ibinom(n - p + q, n - p)


def rational_power(a: int, e: Fraction, n: int) -> Fraction:
    """[z^n] (1 - a z)^e = C(e, n) (-a)^n."""
    return gbinom(e, n) * (-a) ** n


def binomial_product(a: Fraction, b: Fraction, n: int) -> Fraction:
    """[z^n] (1 + z)^a (1 + z)^b = C(a + b, n)."""
    return gbinom(Fraction(a) + Fraction(b), n)


def _convolve(x: list[int], y: list[int], n: int) -> list[int]:
    return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(n + 1)]


def polynomial_power(coeffs: list[int], k: int, n: int) -> int:
    """[z^n] (coeffs[0] + coeffs[1] z + ...)^k, in integers."""
    base = (list(coeffs) + [0] * (n + 1))[: n + 1]
    out = [1] + [0] * n
    for _ in range(k):
        out = _convolve(out, base, n)
    return out[n]


def log_power_over_geometric(k: int, n: int) -> Fraction:
    """[z^n] log(1/(1-z))^k / (1 - z).

    k = 1 is H_n.  Otherwise log(1/(1-z)) is scaled by D = lcm(1..n) to
    integer coefficients D/j, raised to the k-th power by integer
    convolution, summed up to z^n (the 1/(1-z) factor), and divided by D^k.
    """
    if k == 1:
        return harmonic(n)
    den = math.lcm(*range(1, n + 1)) if n else 1
    scaled = [0] + [den // j for j in range(1, n + 1)]
    out = [1] + [0] * n
    for _ in range(k):
        out = _convolve(out, scaled, n)
    return Fraction(sum(out), den ** k)
