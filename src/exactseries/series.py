"""Dense truncated formal power series over exact rationals.

A series stores coefficients for z^0 .. z^order.  Coefficients beyond the
truncation order are unknown, not zero: arithmetic between series of
different orders truncates to the smaller order, and asking for a
coefficient beyond the order is an error rather than a silent 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .binomial import binom


@dataclass(frozen=True)
class PowerSeries:
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a series stores at least the z^0 coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return ps_add(self, other)

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        return ps_mul(self, other)


def series(coeffs: Iterable[Fraction | int]) -> PowerSeries:
    """Build a series from an iterable of rationals (or ints)."""
    # Tuples in this module, and *-arguments, are built from lists, never
    # from generators.  tuple() of a generator allocates at a guessed length
    # and resizes, so the block it frees joins CPython's tuple free list of
    # another length than the one it came from.  Those lists keep up to 2000
    # blocks for each length below 20 and only a full garbage collection
    # empties them, so a process could hold some 36 000 idle blocks (4 MB).
    return PowerSeries(tuple([Fraction(c) for c in coeffs]))


def constant(value: Fraction | int, order: int) -> PowerSeries:
    cs = [Fraction(0)] * (order + 1)
    cs[0] = Fraction(value)
    return PowerSeries(tuple(cs))


def identity_z(order: int) -> PowerSeries:
    """The series of the variable itself: z, to the given order."""
    cs = [Fraction(0)] * (order + 1)
    if order >= 1:
        cs[1] = Fraction(1)
    return PowerSeries(tuple(cs))


def ps_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    return PowerSeries(tuple([a.coeffs[k] + b.coeffs[k] for k in range(n + 1)]))


def ps_sub(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    return PowerSeries(tuple([a.coeffs[k] - b.coeffs[k] for k in range(n + 1)]))


def _integer_numerators(cs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Rationals cs as integer numerators over one denominator, their lcm."""
    d = math.lcm(*[c.denominator for c in cs])
    return [c.numerator * (d // c.denominator) for c in cs], d


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the smaller order.

    Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009): each
    operand becomes integer numerators over one denominator, packed into one
    integer at ``bits`` bits per coefficient, so a single big-integer
    multiplication yields every coefficient of the product in its own slot.
    """
    n = min(a.order, b.order)
    xs, dx = _integer_numerators(a.coeffs[: n + 1])
    ys, dy = _integer_numerators(b.coeffs[: n + 1])
    # Every product slot is a sum of at most n + 1 terms x_i * y_j, so it
    # fits in bits - 1 bits plus a sign.
    bits = (max(map(abs, xs)) * max(map(abs, ys)) * (n + 1)).bit_length() + 1
    px = py = 0
    for x, y in zip(reversed(xs), reversed(ys)):
        px = (px << bits) + x
        py = (py << bits) + y
    # The low n + 1 slots depend only on the product modulo 2^(bits*(n+1)).
    prod = (px * py) & ((1 << bits * (n + 1)) - 1)
    mask, half, d = (1 << bits) - 1, 1 << (bits - 1), dx * dy
    out = []
    for _ in range(n + 1):
        slot = prod & mask
        if slot >= half:
            slot -= 1 << bits
        prod = (prod - slot) >> bits
        out.append(Fraction(slot, d))
    return PowerSeries(tuple(out))


def ps_monomial_shift(a: PowerSeries, p: int) -> PowerSeries:
    """Multiply by z^p: shift coefficients up, keep the order, drop the top."""
    if p < 0:
        raise ValueError(f"monomial shift needs p >= 0, got {p}")
    zeros = (Fraction(0),) * min(p, a.order + 1)
    return PowerSeries((zeros + a.coeffs)[: a.order + 1])


def coefficient(a: PowerSeries, n: int) -> Fraction:
    """Coefficient of z^n; out of truncation range is an error, never 0."""
    if not 0 <= n <= a.order:
        raise IndexError(
            f"coefficient {n} outside truncation range 0..{a.order}"
        )
    return a.coeffs[n]


def binomial_series(m: Fraction | int, order: int, at_minus_z: bool = False) -> PowerSeries:
    """Expansion of (1+z)^m to the given order; coefficient k is C(m, k).

    With ``at_minus_z`` the variable is negated, giving (1-z)^m.  The row is
    built with the ratio recurrence C(m, k) = C(m, k-1) * (m-k+1)/k.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    m = Fraction(m)
    sign = -1 if at_minus_z else 1
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * (sign * (m - k + 1)) / k)
    return PowerSeries(tuple(out))


def log_geometric(order: int) -> PowerSeries:
    """-log(1-z) = z + z^2/2 + z^3/3 + ... to the given order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    return PowerSeries(
        tuple([Fraction(0)] + [Fraction(1, k) for k in range(1, order + 1)])
    )


def lemma_coefficient(p: int, q: Fraction | int, n: int) -> Fraction:
    """Coefficient of z^n in z^p/(1-z)^(q+1), as the closed form C(n-p+q, n-p).

    The lower index n-p (not q) keeps the formula valid for rational q, and
    makes the value 0 for n < p without a special case.
    """
    return binom(Fraction(q) + n - p, n - p)


def valuation(a: PowerSeries) -> int | None:
    """Index of the first nonzero coefficient, or None if all stored
    coefficients vanish."""
    for k, c in enumerate(a.coeffs):
        if c != 0:
            return k
    return None


class SeriesDomainError(ValueError):
    """Raised for a division or power that has no truncated-series value."""


class ZeroToOrderError(SeriesDomainError):
    """Raised when an operand is zero to its truncation order but the result
    needs its leading term; the same operation at a higher order may succeed."""


def ps_inverse(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse, ps_pow(a, -1); needs a nonzero constant term."""
    return ps_pow(a, -1)


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Exact division a/b, factoring a common power of z first.

    Legal whenever the denominator's lowest power of z also divides the
    numerator; z^2/z is fine, 1/z is not.  A denominator that is zero to its
    order, or a numerator zero to an order below the denominator's
    valuation, raises ZeroToOrderError: the quotient's leading coefficient
    lies beyond what the operands know.
    """
    v = valuation(b)
    if v is None:
        raise ZeroToOrderError("division by a series that is zero to its order")
    if v > 0:
        if any(c != 0 for c in a.coeffs[:v]):
            raise SeriesDomainError(
                "division would produce negative powers of z: denominator "
                f"has valuation {v}, numerator does not"
            )
        if a.order < v:
            raise ZeroToOrderError(
                f"numerator is zero to its order {a.order}, below the "
                f"denominator's valuation {v}"
            )
        a = PowerSeries(a.coeffs[v:])
        b = PowerSeries(b.coeffs[v:])
    return ps_mul(a, ps_inverse(b))


def _int_nth_root(value: int, d: int) -> int | None:
    """Exact d-th root (d >= 1) of a nonzero integer, or None."""
    x = abs(value)
    # Integer Newton iteration from above converges to floor(x^(1/d)).
    r = 1 << -(-x.bit_length() // d)
    while (nxt := ((d - 1) * r + x // r ** (d - 1)) // d) < r:
        r = nxt
    r = -r if value < 0 else r
    return r if r**d == value else None


# Largest power fraction_pow computes, in bits (about 19 700 digits): CPython's
# gcd is quadratic, so Fraction arithmetic on much larger values would hang.
MAX_POWER_BITS = 1 << 16


def fraction_pow(base: Fraction, exponent: Fraction) -> Fraction:
    """base**exponent for a nonzero base when the result is rational;
    otherwise an error.  A result above about MAX_POWER_BITS bits is an
    error too, raised before any of it is computed."""
    height = max(abs(base.numerator), base.denominator)
    bits = abs(exponent) * (height.bit_length() - 1)
    if bits > MAX_POWER_BITS:
        raise SeriesDomainError(f"{base}^{exponent} has about {int(bits)} bits, "
                                f"over the limit of {MAX_POWER_BITS}")
    num = _int_nth_root(base.numerator, exponent.denominator)
    den = _int_nth_root(base.denominator, exponent.denominator)
    if num is None or den is None:
        raise SeriesDomainError(
            f"{base}^{exponent} is not rational; only exact powers are supported"
        )
    return Fraction(num, den) ** exponent.numerator


def ps_pow(a: PowerSeries, exponent: Fraction | int) -> PowerSeries:
    """Raise a series to a rational power.

    The base is normalized as z^s * u with u(0) != 0; the result
    z^(s*e) * u^e must again have only nonnegative integer powers of z, and
    u(0)^e must be rational.  The coefficients b of u^e follow J. C. P.
    Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7); with e + 1 = p/q,

        q * k * u0 * b_k = sum_{j=1..k} (p*j - q*k) * u_j * b_{k-j},

    so the weights are integers and the cost is O(order^2) whatever the
    exponent.  The sum runs on integers: u becomes integer numerators ``us``
    (the recurrence is homogeneous in u, so u's denominator cancels), and
    c = (u/u0)^e is kept as integer numerators ``cs`` over one running
    denominator ``lcd``, so step k is one integer sum and one gcd.
    """
    e = Fraction(exponent)
    if e == 0:
        return constant(1, a.order)
    s = valuation(a)
    if s is None:
        if e.denominator == 1 and e > 0:
            return constant(0, a.order)
        raise SeriesDomainError("zero series cannot be raised to this power")
    shift = e * s
    if shift.denominator != 1 or shift < 0:
        raise SeriesDomainError(
            f"power produces z^({shift}), not a nonnegative integer power"
        )
    shift = int(shift)
    u = a.coeffs[s:]
    order = min(a.order, len(u) - 1 + shift)
    p, q = (e + 1).as_integer_ratio()
    b0 = fraction_pow(u[0], e)
    b = [b0]
    us, _ = _integer_numerators(u)
    terms = [(j, uj) for j, uj in enumerate(us) if j and uj]
    # Step k reads cs[k - j] only for 1 <= j <= reach, so when lcd grows only
    # the last ``reach`` entries of cs still need rescaling.
    reach = terms[-1][0] if terms else 0
    cs, lcd = [1], 1
    for k in range(1, order - shift + 1):
        qk = q * k
        acc = sum((p * j - qk) * uj * cs[k - j] for j, uj in terms if j <= k)
        den = lcd * qk * us[0]
        g = math.gcd(acc, den)
        num, den = acc // g, den // g
        if den < 0:
            num, den = -num, -den
        b.append(Fraction(b0.numerator * num, b0.denominator * den))
        if lcd % den:
            scale = den // math.gcd(lcd, den)
            lcd *= scale
            lo = max(0, k + 1 - reach)
            cs[lo:] = [x * scale for x in cs[lo:]]
        cs.append(num * (lcd // den))
    zeros = (Fraction(0),) * min(shift, order + 1)
    return PowerSeries((zeros + tuple(b))[: order + 1])
