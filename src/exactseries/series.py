"""Dense truncated formal power series over exact rationals.

A series stores coefficients for z^0 .. z^order.  Coefficients beyond the
truncation order are unknown, not zero: arithmetic between series of
different orders truncates to the smaller order, and asking for a
coefficient beyond the order is an error rather than a silent 0.

Coefficient k is stored as nums[k]/den, integer numerators over one
denominator (the layout of FLINT's ``fmpq_poly``), reduced on construction so
that den > 0 and gcd(den, *nums) == 1: equal series compare equal.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from fractions import Fraction

from .binomial import binom
from .rationals import format_rational


class PowerSeries:
    """A series whose coefficient k is nums[k]/den: immutable, compared
    and hashed by value.  A plain class, not a frozen dataclass, so that
    importing the package does not import ``dataclasses`` (and ``inspect``
    with it)."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int = 1):
        nums = tuple(nums)
        if not nums:
            raise ValueError("a series stores at least the z^0 coefficient")
        if den == 0:
            raise ZeroDivisionError("a series needs a nonzero denominator")
        # Tuples and *-arguments are lists or stored tuples: CPython's tuple
        # free lists (2000 idle blocks a length) gain a block when a tuple()
        # of a generator resizes, and in 3.11 for each length-20 tuple freed.
        g = math.gcd(math.gcd(*nums), den)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = tuple([x // g for x in nums]), den // g
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__: their default for a
        # slotted class sets each slot with the __setattr__ above.
        return PowerSeries, (self.nums, self.den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nums, self.den) == (other.nums, other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"PowerSeries(nums={self.nums!r}, den={self.den!r})"

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced Fractions, built on each call."""
        return tuple([Fraction(x, self.den) for x in self.nums])


def series(coeffs: Iterable[Fraction | int]) -> PowerSeries:
    """Build a series from an iterable of rationals (or ints)."""
    cs = [Fraction(c) for c in coeffs]
    den = functools.reduce(math.lcm, [c.denominator for c in cs], 1)
    return PowerSeries([c.numerator * (den // c.denominator) for c in cs], den)


def constant(value: Fraction | int, order: int) -> PowerSeries:
    value = Fraction(value)
    nums = [0] * (order + 1)
    nums[0] = value.numerator
    return PowerSeries(nums, value.denominator)


def identity_z(order: int) -> PowerSeries:
    """The series of the variable itself: z, to the given order."""
    nums = [0] * (order + 1)
    if order >= 1:
        nums[1] = 1
    return PowerSeries(nums)


def ps_add(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    den = math.lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    return PowerSeries([x * sa + y * sb for x, y in zip(a.nums, b.nums)], den)


def ps_sub(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    return ps_add(a, PowerSeries([-y for y in b.nums], b.den))


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at the smaller order.

    Kronecker substitution (D. Harvey, J. Symbolic Comput. 44, 2009): each
    operand's numerators are packed into one integer at ``bits`` bits per
    coefficient, so a single big-integer multiplication yields every
    numerator of the product, over a.den * b.den, in its own slot.  A
    constant operand instead scales the other's numerators.
    """
    if not any(a.nums[1:]):
        a, b = b, a
    if not any(b.nums[1:]):
        # b is the constant b0/den to its order, which also bounds the product.
        return PowerSeries([x * b.nums[0] for x in a.nums[: b.order + 1]],
                           a.den * b.den)
    n = min(a.order, b.order)
    xs, ys = a.nums[: n + 1], b.nums[: n + 1]
    # Every product slot is a sum of at most n + 1 terms x_i * y_j, so it
    # fits in bits - 1 bits plus a sign.
    bits = (max(map(abs, xs)) * max(map(abs, ys)) * (n + 1)).bit_length() + 1
    px = py = 0
    for x, y in zip(reversed(xs), reversed(ys)):
        px = (px << bits) + x
        py = (py << bits) + y
    # The low n + 1 slots depend only on the product modulo 2^(bits*(n+1)).
    prod = (px * py) & ((1 << bits * (n + 1)) - 1)
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    for _ in range(n + 1):
        slot = prod & mask
        if slot >= half:
            slot -= 1 << bits
        prod = (prod - slot) >> bits
        out.append(slot)
    return PowerSeries(out, a.den * b.den)


def ps_monomial_shift(a: PowerSeries, p: int) -> PowerSeries:
    """Multiply by z^p: shift coefficients up, keep the order, drop the top."""
    if p < 0:
        raise ValueError(f"monomial shift needs p >= 0, got {p}")
    zeros = (0,) * min(p, a.order + 1)
    return PowerSeries((zeros + a.nums)[: a.order + 1], a.den)


def coefficient(a: PowerSeries, n: int) -> Fraction:
    """Coefficient of z^n; out of truncation range is an error, never 0."""
    if not 0 <= n <= a.order:
        raise IndexError(
            f"coefficient {n} outside truncation range 0..{a.order}"
        )
    return Fraction(a.nums[n], a.den)


def binomial_series(m: Fraction | int, order: int, at_minus_z: bool = False) -> PowerSeries:
    """Expansion of (1+z)^m to the given order; coefficient k is C(m, k).

    With ``at_minus_z`` the variable is negated, giving (1-z)^m: ps_pow of
    the series 1 - z instead of 1 + z.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    base = [1, -1 if at_minus_z else 1] + [0] * (order - 1)
    return ps_pow(PowerSeries(base[: order + 1]), m)


def log_geometric(order: int) -> PowerSeries:
    """-log(1-z) = z + z^2/2 + z^3/3 + ... to the given order."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    den = functools.reduce(math.lcm, range(1, order + 1), 1)
    return PowerSeries([0] + [den // k for k in range(1, order + 1)], den)


def lemma_coefficient(p: int, q: Fraction | int, n: int) -> Fraction:
    """Coefficient of z^n in z^p/(1-z)^(q+1), as the closed form C(n-p+q, n-p).

    The lower index n-p (not q) keeps the formula valid for rational q, and
    makes the value 0 for n < p without a special case.
    """
    return binom(Fraction(q) + n - p, n - p)


def valuation(a: PowerSeries) -> int | None:
    """Index of the first nonzero coefficient, or None if all stored
    coefficients vanish."""
    return next((k for k, x in enumerate(a.nums) if x), None)


class SeriesDomainError(ValueError):
    """Raised for a division or power that has no truncated-series value."""


class ZeroToOrderError(SeriesDomainError):
    """Raised by ps_div and ps_pow when an operand is zero to its order but
    the result needs its leading term; a higher order may then succeed."""


def ps_inverse(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse, ps_pow(a, -1); needs a nonzero constant term."""
    return ps_pow(a, -1)


def ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Exact division a/b, factoring a common power of z first.

    Legal whenever the denominator's lowest power of z also divides the
    numerator; z^2/z is fine, 1/z is not.  A denominator that is zero to its
    order, or a numerator zero to an order below the denominator's
    valuation, raises ZeroToOrderError: the quotient's leading coefficient
    lies beyond what the operands know.  A denominator c*z^v, a constant
    once z^v is factored out, scales the numerator by 1/c; any other is
    inverted and multiplied.
    """
    v = valuation(b)
    if v is None:
        raise ZeroToOrderError("division by a series that is zero to its order")
    if v > 0:
        if any(a.nums[:v]):
            raise SeriesDomainError(
                "division would produce negative powers of z: denominator "
                f"has valuation {v}, numerator does not"
            )
        if a.order < v:
            raise ZeroToOrderError(
                f"numerator is zero to its order {a.order}, below the "
                f"denominator's valuation {v}"
            )
        a = PowerSeries(a.nums[v:], a.den)
        b = PowerSeries(b.nums[v:], b.den)
    if any(b.nums[1:]):
        return ps_mul(a, ps_inverse(b))
    # b is the constant b0/den to its order, which also bounds the quotient.
    return PowerSeries([x * b.den for x in a.nums[: b.order + 1]],
                       a.den * b.nums[0])


def _int_nth_root(value: int, d: int) -> int | None:
    """Exact d-th root (d >= 1) of a nonzero integer, or None."""
    x = abs(value)
    # Integer Newton iteration from above converges to floor(x^(1/d)).  For
    # x < 2^d the floor is 1; starting at 2 would build 2^(d-1).
    r = 1 << -(-x.bit_length() // d) if x.bit_length() > d else 1
    while (nxt := ((d - 1) * r + x // r ** (d - 1)) // d) < r:
        r = nxt
    r = -r if value < 0 else r
    return r if r**d == value else None


# Largest power _rational_pow computes, in bits (about 19 700 digits):
# CPython's gcd is quadratic, so Fraction arithmetic on much larger values
# would hang.
MAX_POWER_BITS = 1 << 16


def _rational_pow(num: int, den: int, en: int, ed: int) -> tuple[int, int]:
    """(num/den)^(en/ed) for num != 0 < den and ed > 0, as a reduced
    numerator and a positive denominator, when the result is rational;
    otherwise an error.  A result above about MAX_POWER_BITS bits is an
    error too, raised before any of it is computed."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    # |e| * (h - 1) > MAX_POWER_BITS for h the height's bit length, times ed.
    # With |e| <= 1 the result is no larger than the base, which exists.
    bits = abs(en) * (max(abs(num), den).bit_length() - 1)
    if abs(en) > ed and bits > MAX_POWER_BITS * ed:
        raise SeriesDomainError(
            f"{_power_text(num, den, en, ed)} has about {bits // ed} "
            f"bits, over the limit of {MAX_POWER_BITS}")
    if ed != 1:
        rn, rd = _int_nth_root(num, ed), _int_nth_root(den, ed)
        if rn is None or rd is None:
            raise SeriesDomainError(
                f"{_power_text(num, den, en, ed)} is not rational; "
                "only exact powers are supported")
        num, den = rn, rd
    if en < 0:
        num, den, en = (-den, -num, -en) if num < 0 else (den, num, -en)
    return num**en, den**en


def _power_text(num: int, den: int, en: int, ed: int) -> str:
    # As lang.pretty writes it, a negative or non-integer part in parentheses;
    # format_rational, not str(): a base may be past the int-to-str limit.
    return "^".join(format_rational(x) if x.denominator == 1 and x >= 0
                    else f"({format_rational(x)})"
                    for x in (Fraction(num, den), Fraction(en, ed)))


def ps_pow(a: PowerSeries, exponent: Fraction | int) -> PowerSeries:
    """Raise a series to a rational power.

    The base is normalized as z^s * u with u(0) != 0; the result
    z^(s*e) * u^e must again have only nonnegative integer powers of z, and
    u(0)^e must be rational.  The coefficients b of u^e follow J. C. P.
    Miller's recurrence (Knuth, TAOCP Vol. 2, 4.7); with e + 1 = p/q,

        q * k * u0 * b_k = sum_{j=1..k} (p*j - q*k) * u_j * b_{k-j},

    so the weights are integers and the cost is O(order^2) whatever the
    exponent.  The sum runs on u's integer numerators ``us`` (the recurrence
    is homogeneous in u, so u's denominator cancels).  c = (u/u0)^e is kept
    as integer numerators ``cs[k]`` over ``lcds[k]``, the running ``lcd``
    when entry k was last rescaled: step k's sum cancels only against its
    small factor k*q*u0, and what is left of that multiplies ``lcd``.  The
    output is scaled to the last ``lcd``; PowerSeries reduces it once.
    """
    en, ed = Fraction(exponent).as_integer_ratio()
    if en == 0:
        return constant(1, a.order)
    s = valuation(a)
    if s is None:
        if ed == 1 and en > 0:
            return constant(0, a.order)
        raise ZeroToOrderError("zero series cannot be raised to this power")
    shift, rest = divmod(en * s, ed)
    if rest or shift < 0:
        raise SeriesDomainError(f"power produces z^({Fraction(en * s, ed)}), "
                                "not a nonnegative integer power")
    us = a.nums[s:]
    order = min(a.order, len(us) - 1 + shift)
    b0n, b0d = _rational_pow(us[0], a.den, en, ed)
    # (u/u0)^e does not change when u is negated, so u is taken with
    # u0 > 0: every step's factor k*q*u0 is then positive.
    sign = -1 if us[0] < 0 else 1
    p, q = en + ed, ed
    qu0 = q * us[0] * sign
    terms = [(j, p * j, sign * uj) for j, uj in enumerate(us) if j and uj]
    # Step k reads cs[k - j] only for 1 <= j <= reach, so when lcd grows only
    # the last ``reach`` entries of cs and lcds need rescaling.  A monomial
    # u has no terms, every c_k is 0, and no step runs.
    reach = terms[-1][0] if terms else 0
    cs, lcds, lcd = [1], [1], 1
    for k in range(1, order - shift + 1 if terms else 1):
        qk = q * k
        acc = 0
        for j, pj, uj in terms:  # in order of j
            if j > k:
                break
            acc += (pj - qk) * uj * cs[k - j]
        g = math.gcd(acc, k * qu0)
        if (scale := k * qu0 // g) > 1:
            lcd *= scale
            lo = max(0, k + 1 - reach)
            cs[lo:] = [x * scale for x in cs[lo:]]
            lcds[lo:] = [lcd] * (k - lo)
        cs.append(acc // g)
        lcds.append(lcd)
    out = [0] * min(shift, order + 1)
    out += [b0n * x * (lcd // d) for x, d in zip(cs, lcds)]
    out += [0] * (order + 1 - len(out))
    return PowerSeries(out[: order + 1], b0d * lcd)
