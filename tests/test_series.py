import copy
import gc
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactseries.binomial import binom
from exactseries.lang import evaluate
from exactseries.rationals import format_rational
from exactseries.series import (
    MAX_POWER_BITS,
    PowerSeries,
    SeriesDomainError,
    ZeroToOrderError,
    _int_nth_root,
    _rational_pow,
    binomial_series,
    coefficient,
    constant,
    identity_z,
    lemma_coefficient,
    log_geometric,
    ps_add,
    ps_affine,
    ps_div,
    ps_inverse,
    ps_monomial_shift,
    ps_mul,
    ps_pow,
    ps_sub,
    series,
    valuation,
)


def geometric(order: int) -> PowerSeries:
    return series([1] * (order + 1))


def expand_shifted_geom_power(p: int, q: int, order: int) -> PowerSeries:
    """Brute-force z^p/(1-z)^(q+1): multiply q+1 copies of the geometric
    series, then shift.  Deliberately avoids binom/binomial_series."""
    acc = constant(1, order)
    for _ in range(q + 1):
        acc = ps_mul(acc, geometric(order))
    return ps_monomial_shift(acc, p)


class TestRingOps:
    def test_add(self):
        assert ps_add(series([1, 1]), series([1, -1])).coeffs == (2, 0)
        assert ps_add(series([1, 1, 1]), series([0, 1, 2])).coeffs == (1, 2, 3)

    def test_add_zero_identity(self):
        a = series([3, Fraction(1, 2), 5])
        assert ps_add(a, constant(0, 2)) == a

    def test_mul(self):
        out = ps_mul(series([1, 1]), series([1, -1]))
        assert out.coeffs == (1, 0)
        out = ps_mul(series([1, 1, 0]), series([1, -1, 0]))
        assert out.coeffs == (1, 0, -1)

    def test_mul_one_identity(self):
        a = series([2, 3, Fraction(5, 7)])
        assert ps_mul(a, constant(1, 2)) == a

    def test_geometric_times_one_minus_z(self):
        out = ps_mul(geometric(10), series([1, -1] + [0] * 9))
        assert out.coeffs == (1,) + (0,) * 10

    def test_min_order_rule(self):
        out = ps_mul(series([1, 1, 1, 1]), series([1, 1]))
        assert out.order == 1

    def test_shift(self):
        assert ps_monomial_shift(series([1, 1, 1]), 1).coeffs == (0, 1, 1)

    def test_shift_zero_identity(self):
        a = series([4, 5, 6])
        assert ps_monomial_shift(a, 0) == a

    def test_shift_of_geometric(self):
        for p in range(4):
            shifted = ps_monomial_shift(geometric(10), p)
            for n in range(p, 11):
                assert coefficient(shifted, n) == 1

    def test_shift_rejects_negative(self):
        with pytest.raises(ValueError):
            ps_monomial_shift(series([1]), -1)


@pytest.mark.parametrize("build", [
    lambda order: binomial_series(Fraction(1, 2), order),
    log_geometric,
    lambda order: evaluate(("z",), order),
], ids=["binomial_series", "log_geometric", "evaluate"])
def test_negative_order_is_refused(build):
    with pytest.raises(ValueError) as info:
        build(-1)
    assert str(info.value) == "order must be >= 0, got -1"


class TestCoefficient:
    def test_in_range(self):
        assert coefficient(geometric(8), 5) == 1
        assert coefficient(log_geometric(5), 3) == Fraction(1, 3)

    def test_out_of_range_is_error(self):
        a = geometric(4)
        with pytest.raises(IndexError):
            coefficient(a, 5)
        with pytest.raises(IndexError):
            coefficient(a, -1)


class TestBinomialSeries:
    def test_negative_cube(self):
        # (1-z)^(-3): coefficient of z^2 is C(4, 2)
        assert coefficient(binomial_series(-3, 6, at_minus_z=True), 2) == 6

    def test_zero_exponent(self):
        assert binomial_series(0, 5).coeffs == (1, 0, 0, 0, 0, 0)

    def test_sqrt_squares_back(self):
        root = binomial_series(Fraction(1, 2), 12)
        assert ps_mul(root, root).coeffs == (1, 1) + (0,) * 11

    def test_geometric_agrees(self):
        assert binomial_series(-1, 9, at_minus_z=True) == geometric(9)


class TestLogGeometric:
    def test_coefficients(self):
        s = log_geometric(8)
        assert coefficient(s, 0) == 0
        assert coefficient(s, 4) == Fraction(1, 4)
        assert coefficient(s, 7) == Fraction(1, 7)

    def test_times_one_minus_z(self):
        n = 12
        out = ps_mul(log_geometric(n), series([1, -1] + [0] * (n - 1)))
        for k in range(2, n + 1):
            assert coefficient(out, k) == Fraction(1, k) - Fraction(1, k - 1)


class TestLemmaCoefficient:
    def test_worked_value(self):
        assert lemma_coefficient(2, 3, 5) == 20
        assert coefficient(expand_shifted_geom_power(2, 3, 8), 5) == 20

    def test_geometric_case(self):
        for n in range(10):
            assert lemma_coefficient(0, 0, n) == 1

    def test_collapsed_form_value(self):
        assert lemma_coefficient(2, 5, 6) == 126
        assert coefficient(expand_shifted_geom_power(2, 5, 8), 6) == 126

    def test_vanishes_below_shift(self):
        assert lemma_coefficient(4, 2, 3) == 0

    def test_against_expansion_grid(self):
        for p in range(0, 9):
            for q in range(0, 9):
                brute = expand_shifted_geom_power(p, q, 24)
                alt = ps_monomial_shift(
                    binomial_series(-q - 1, 24, at_minus_z=True), p
                )
                for n in range(p, 25):
                    expected = lemma_coefficient(p, q, n)
                    assert coefficient(brute, n) == expected
                    assert coefficient(alt, n) == expected


small_rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
)
random_series = st.lists(small_rationals, min_size=1, max_size=17).map(series)


@given(a=random_series, b=random_series)
def test_mul_commutes(a, b):
    assert ps_mul(a, b) == ps_mul(b, a)


@given(a=random_series, b=random_series, c=random_series)
@settings(max_examples=60)
def test_mul_associates(a, b, c):
    assert ps_mul(ps_mul(a, b), c) == ps_mul(a, ps_mul(b, c))


@given(a=random_series, b=random_series, c=random_series)
@settings(max_examples=60)
def test_mul_distributes(a, b, c):
    assert ps_mul(a, ps_add(b, c)) == ps_add(ps_mul(a, b), ps_mul(a, c))


@given(a=small_rationals, b=small_rationals)
@settings(max_examples=40)
def test_binomial_series_multiplicative(a, b):
    n = 10
    lhs = ps_mul(binomial_series(a, n), binomial_series(b, n))
    assert lhs == binomial_series(a + b, n)


@given(m=small_rationals, at_minus_z=st.booleans())
def test_binomial_series_matches_binom(m, at_minus_z):
    sign = -1 if at_minus_z else 1
    expected = tuple(binom(m, k) * sign**k for k in range(13))
    assert binomial_series(m, 12, at_minus_z).coeffs == expected


@pytest.mark.parametrize("m", [0.5, "1/2", Fraction(1, 2)])
def test_binomial_series_normalises_m_to_fraction(m):
    coeffs = binomial_series(m, 4).coeffs
    assert all(type(c) is Fraction for c in coeffs)
    assert coeffs == binomial_series(Fraction(1, 2), 4).coeffs


class TestDivisionAndPowers:
    def test_inverse_of_one_minus_z(self):
        assert ps_inverse(series([1, -1] + [0] * 8)) == geometric(9)

    def test_inverse_needs_unit_constant(self):
        with pytest.raises(SeriesDomainError):
            ps_inverse(series([0, 1]))

    def test_div_factors_common_z_power(self):
        # z^2 / z = z
        out = ps_div(series([0, 0, 1, 0]), series([0, 1, 0, 0]))
        assert out.coeffs[:2] == (0, 1)

    def test_div_rejects_negative_powers(self):
        with pytest.raises(SeriesDomainError):
            ps_div(constant(1, 4), series([0, 1, 0, 0, 0]))

    def test_div_by_series_zero_to_its_order(self):
        with pytest.raises(ZeroToOrderError):
            ps_div(constant(1, 3), constant(0, 3))

    def test_div_numerator_zero_below_divisor_valuation(self):
        # z^8/z^5 at order 7 knows only three zeros; (that)/z^3 needs its
        # fourth coefficient.
        with pytest.raises(ZeroToOrderError):
            ps_div(constant(0, 2), series([0, 0, 0, 1, 0, 0, 0, 0]))

    def test_pow_and_inverse_of_series_zero_to_its_order(self):
        with pytest.raises(ZeroToOrderError):
            ps_pow(constant(0, 4), Fraction(1, 2))
        with pytest.raises(ZeroToOrderError):
            ps_inverse(constant(0, 4))

    def test_div_by_constant_times_z_power_scales(self):
        # (z + z^2)/(z/3) = 3 + 3z, known only to the divisor's order 1 - 1.
        out = ps_div(series([0, 1, 1, 0]), series([0, Fraction(1, 3)]))
        assert out == series([3])
        # z^3/(-2z^2) = -z/2, known to the numerator's order 4 - 2.
        out = ps_div(series([0, 0, 0, 1, 0]), series([0, 0, -2, 0, 0, 0, 0]))
        assert out == series([0, Fraction(-1, 2), 0])

    def test_div_negative_powers_is_not_an_order_error(self):
        with pytest.raises(SeriesDomainError) as info:
            ps_div(series([0, 1, 0]), series([0, 0, 1]))
        assert not isinstance(info.value, ZeroToOrderError)

    def test_pow_negative_integer(self):
        out = ps_pow(series([1, -1] + [0] * 8), -1)
        assert out == geometric(9)

    def test_pow_half(self):
        root = ps_pow(series([1, 1] + [0] * 10), Fraction(1, 2))
        assert root == binomial_series(Fraction(1, 2), 11)

    def test_pow_of_scaled_constant(self):
        out = ps_pow(constant(Fraction(9, 4), 3), Fraction(1, 2))
        assert out.coeffs[0] == Fraction(3, 2)

    def test_pow_irrational_rejected(self):
        with pytest.raises(SeriesDomainError):
            ps_pow(constant(2, 3), Fraction(1, 2))


class TestFractionPow:
    # _rational_pow(num, den, en, ed) is (num/den)^(en/ed) as a reduced
    # numerator and a positive denominator.
    @pytest.mark.parametrize("root", [10**20 + 7, 10**60 + 7])
    def test_exact_square_of_large_integer(self, root):
        assert _rational_pow(root**2, 1, 1, 2) == (root, 1)

    def test_exact_cube_of_large_integer(self):
        root = 10**60 + 7
        assert _rational_pow(root**3, 1, 2, 3) == (root**2, 1)

    def test_negative_odd_root(self):
        root = -(10**20 + 7)
        assert _rational_pow(root**5, 7**5, 1, 5) == (root, 7)

    def test_near_square_is_not_rational(self):
        with pytest.raises(SeriesDomainError):
            _rational_pow((10**20 + 7) ** 2 + 1, 1, 1, 2)

    def test_power_above_bit_limit_is_refused_before_computing(self):
        with pytest.raises(SeriesDomainError, match="over the limit"):
            _rational_pow(3, 1, 99999999999, 1)
        with pytest.raises(SeriesDomainError, match="over the limit"):
            _rational_pow(1, 2, MAX_POWER_BITS + 1, 1)

    def test_power_no_larger_than_its_base_is_never_refused(self):
        # The base alone is over MAX_POWER_BITS; |e| <= 1 cannot grow it.
        big = 3**50000
        assert _rational_pow(big, 7, -1, 1) == (7, big)
        assert _rational_pow(big**2, 1, -1, 2) == (1, big)
        assert _rational_pow(-(big**3), 1, 2, 3) == (big**2, 1)

    def test_messages_print_bases_past_the_digit_limit(self):
        big = 3**50001
        with pytest.raises(SeriesDomainError, match="over the limit") as raised:
            _rational_pow(big, 1, 2, 1)
        assert str(raised.value).startswith(format_rational(Fraction(big)) + "^2 ")
        with pytest.raises(SeriesDomainError, match="not rational"):
            _rational_pow(big, 1, 1, 2)

    def test_power_at_bit_limit_and_powers_of_one(self):
        assert _rational_pow(2, 1, MAX_POWER_BITS, 1) == (2**MAX_POWER_BITS, 1)
        assert _rational_pow(-1, 1, 10**12 + 1, 1) == (-1, 1)

    def test_negative_even_root_is_not_rational(self):
        with pytest.raises(SeriesDomainError):
            _rational_pow(-4, 1, 1, 2)

    def test_root_of_small_base_builds_no_large_power(self):
        # Newton's iteration started from 2 would build 2^(d-1), an integer
        # of 1.25 MB at d = 10^7, before finding the root 1.
        d = 10**7
        tracemalloc.start()
        try:
            assert _rational_pow(1, 1, 1, d) == (1, 1)
            assert _rational_pow(-1, 1, 3, d + 1) == (-1, 1)
            with pytest.raises(SeriesDomainError):
                _rational_pow(5, 3, 1, d)
            assert binomial_series(Fraction(1, d), 2).coeffs[1] == Fraction(1, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


# ------------------------------------------------ reference product algorithm
# The schoolbook Cauchy product that the integer (Kronecker) kernel replaced:
# O(n^2) Fraction products, an oracle that shares no code with ps_mul.

def reference_ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    n = min(a.order, b.order)
    out = []
    for k in range(n + 1):
        out.append(sum((a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1)),
                       Fraction(0)))
    return series(out)


# Mixed-sign rationals; denominators up to 10^9, whose lcm is large; the zero
# series; and constant series +-M, whose top product slot is exactly the
# signed bound the kernel sizes its slots for.  Orders 0..20, independently.
mul_operands = st.one_of(
    st.lists(
        st.one_of(small_rationals,
                  st.builds(Fraction, st.integers(-10**9, 10**9),
                            st.integers(1, 10**9))),
        min_size=1, max_size=21,
    ).map(series),
    st.integers(0, 20).map(lambda order: constant(0, order)),
    st.builds(lambda m, order: series([m] * (order + 1)),
              st.integers(-2**80, 2**80), st.integers(0, 20)),
)


@given(a=mul_operands, b=mul_operands)
@example(a=series([7] * 6), b=series([5] * 4))
@example(a=series([-7] * 3), b=series([5] * 3))
@settings(max_examples=300)
def test_mul_matches_reference(a, b):
    out = ps_mul(a, b)
    assert out == reference_ps_mul(a, b)
    assert all(type(c) is Fraction for c in out.coeffs)


# ------------------------------------------------- reference power algorithms
# The repeated-multiplication / binomial-composition ps_pow and the direct
# ps_inverse that the Miller recurrence replaced.  They are O(e*n^2) and
# O(n^3), so they run only at small orders, as oracles for the new kernel.

def reference_ps_inverse(a: PowerSeries) -> PowerSeries:
    if not any(a.coeffs):
        raise ZeroToOrderError("cannot invert a series that is zero to its order")
    if a.coeffs[0] == 0:
        raise SeriesDomainError("cannot invert a series with zero constant term")
    inv0 = 1 / a.coeffs[0]
    out = [inv0]
    for k in range(1, a.order + 1):
        acc = sum((a.coeffs[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
        out.append(-inv0 * acc)
    return series(out)


def reference_ps_pow(a: PowerSeries, exponent) -> PowerSeries:
    e = Fraction(exponent)
    if e.denominator == 1 and e >= 0:
        out = constant(1, a.order)
        for _ in range(int(e)):
            out = reference_ps_mul(out, a)
        return out
    s = valuation(a)
    if s is None:
        raise ZeroToOrderError("zero series cannot be raised to this power")
    shift = e * s
    if shift.denominator != 1 or shift < 0:
        raise SeriesDomainError(
            f"power produces z^({shift}), not a nonnegative integer power"
        )
    u = series(a.coeffs[s:])
    lead = Fraction(*_rational_pow(*u.coeffs[0].as_integer_ratio(),
                                   *e.as_integer_ratio()))
    # u^e = lead * sum_k C(e, k) w^k with w = u/u0 - 1 (valuation >= 1)
    w = series(
        (c / u.coeffs[0] if k > 0 else Fraction(0)) for k, c in enumerate(u.coeffs)
    )
    acc = constant(lead, u.order)
    wpow = constant(1, u.order)
    for k in range(1, u.order + 1):
        wpow = reference_ps_mul(wpow, w)
        term = series(lead * binom(e, k) * c for c in wpow.coeffs)
        acc = ps_add(acc, term)
    result = ps_monomial_shift(
        series(acc.coeffs + (Fraction(0),) * int(shift)), int(shift)
    )
    return series(result.coeffs[: min(a.order, acc.order + int(shift)) + 1])


def outcome(f, *args):
    """The value of f(*args), or the type of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc)


nonzero_rationals = small_rationals.filter(lambda x: x != 0)


@st.composite
def power_cases(draw, max_order=12):
    """(base, exponent) with valuation 0..8 and a leading coefficient that is
    usually an exact q-th power, so fractional exponents mostly succeed."""
    q = draw(st.integers(1, 4))
    e = Fraction(draw(st.integers(-6, 6)), q)
    lead = draw(nonzero_rationals)
    if draw(st.integers(0, 3)):
        lead = lead**q
    s = draw(st.sampled_from([0, 0, 0, 1, 2, 3, q, 2 * q]))
    tail = draw(st.lists(small_rationals, max_size=max_order))
    coeffs = ([0] * s + [lead] + tail)[: max_order + 1]
    return series(coeffs), e


zero_series = st.integers(0, 12).map(lambda order: constant(0, order))
any_exponent = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@given(case=power_cases())
@settings(max_examples=300)
def test_pow_matches_reference(case):
    a, e = case
    assert outcome(ps_pow, a, e) == outcome(reference_ps_pow, a, e)


@given(a=zero_series, e=any_exponent)
def test_pow_of_zero_series_matches_reference(a, e):
    assert outcome(ps_pow, a, e) == outcome(reference_ps_pow, a, e)


@given(case=power_cases(max_order=6), e=st.integers(20, 150))
@settings(max_examples=25, deadline=None)
def test_pow_large_integer_exponent_matches_reference(case, e):
    a, _ = case
    assert outcome(ps_pow, a, e) == outcome(reference_ps_pow, a, e)


@given(a=st.lists(small_rationals, min_size=1, max_size=13).map(series))
def test_inverse_matches_reference(a):
    assert outcome(ps_inverse, a) == outcome(reference_ps_inverse, a)


def test_pow_irrational_lead_raises_like_reference():
    a = series([0, 0, 2, 1, 3])
    for e in (Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3)):
        assert outcome(ps_pow, a, e) is SeriesDomainError
        assert outcome(reference_ps_pow, a, e) is SeriesDomainError


# ---------------------------------------------- reference Miller power loop
# The Fraction Miller loop that the integer inner sum in ps_pow replaced: the
# same recurrence, summed one Fraction product at a time.  It shares no
# arithmetic with the kernel it judges.

def reference_miller_pow(a: PowerSeries, exponent) -> PowerSeries:
    e = Fraction(exponent)
    if e == 0:
        return constant(1, a.order)
    s = valuation(a)
    if s is None:
        if e.denominator == 1 and e > 0:
            return constant(0, a.order)
        raise ZeroToOrderError("zero series cannot be raised to this power")
    shift = e * s
    if shift.denominator != 1 or shift < 0:
        raise SeriesDomainError(
            f"power produces z^({shift}), not a nonnegative integer power"
        )
    shift = int(shift)
    u = a.coeffs[s:]
    order = min(a.order, len(u) - 1 + shift)
    p, q = (e + 1).as_integer_ratio()
    b = [Fraction(*_rational_pow(*u[0].as_integer_ratio(),
                                 *e.as_integer_ratio()))]
    for k in range(1, order - shift + 1):
        acc = sum(((p * j - q * k) * u[j] * b[k - j]
                   for j in range(1, k + 1) if u[j]), Fraction(0))
        b.append(acc / (q * k * u[0]))
    zeros = (Fraction(0),) * min(shift, order + 1)
    return series((zeros + tuple(b))[: order + 1])


def assert_pow_matches_miller(a, e):
    out = outcome(ps_pow, a, e)
    assert out == outcome(reference_miller_pow, a, e)
    if isinstance(out, PowerSeries):
        assert all(type(c) is Fraction for c in out.coeffs)


# Numerators and denominators up to 10^6, so that the running denominator of
# the kernel grows at many steps.
wide_rationals = st.builds(Fraction, st.integers(-10**6, 10**6),
                           st.integers(1, 10**6))


@st.composite
def miller_cases(draw, coeffs, denominators=(1, 2, 3, 4), negative_lead=False):
    """(base, exponent) at orders 0..40 with a lead that is an exact q-th
    power, so that u0^e is rational; with ``negative_lead`` it is negative
    and odd roots keep it so."""
    q = draw(st.sampled_from(denominators))
    e = Fraction(draw(st.integers(-6, 6)), q)
    root = draw(coeffs.filter(lambda x: x != 0))
    lead = -abs(root) ** q if negative_lead else root**q
    order = draw(st.integers(0, 40))
    tail = draw(st.lists(coeffs, min_size=order, max_size=order))
    return series([lead] + tail), e


@given(case=miller_cases(wide_rationals))
@settings(max_examples=80, deadline=None)
def test_pow_dense_wide_denominators_matches_miller(case):
    assert_pow_matches_miller(*case)


@given(case=miller_cases(small_rationals, denominators=(1, 3, 5),
                         negative_lead=True))
@example(case=(series([Fraction(-8, 27), 1, -2, Fraction(1, 3)] + [5] * 20),
               Fraction(1, 3)))
@example(case=(series([-2, 3, 0, -1, Fraction(7, 2)] * 8), Fraction(-5, 3)))
@settings(max_examples=80, deadline=None)
def test_pow_negative_lead_matches_miller(case):
    assert_pow_matches_miller(*case)


@given(lead=nonzero_rationals, e=any_exponent,
       far=st.dictionaries(st.integers(1, 40), nonzero_rationals,
                           min_size=1, max_size=3),
       order=st.integers(0, 40))
@settings(max_examples=80, deadline=None)
def test_pow_sparse_far_reach_matches_miller(lead, e, far, order):
    """u has a few nonzero coefficients, the last one up to 40 places out, so
    the kernel keeps a wide rescale window while most terms are zero."""
    lead = lead**e.denominator
    a = series([lead] + [far.get(j, 0) for j in range(1, order + 1)])
    assert_pow_matches_miller(a, e)


@given(s=st.integers(1, 5), data=st.data())
@settings(max_examples=80, deadline=None)
def test_pow_shift_beyond_order_matches_miller(s, data):
    """z^s * u to a power e with e*s above the order: every coefficient is
    zero and the Miller loop runs no step."""
    shift = data.draw(st.integers(s + 1, 4 * s))
    order = data.draw(st.integers(s, shift - 1))
    lead = data.draw(nonzero_rationals) ** s
    tail = data.draw(st.lists(small_rationals, min_size=order - s,
                              max_size=order - s))
    a = series([0] * s + [lead] + tail)
    e = Fraction(shift, s)
    assert valuation(a) == s and e * s > a.order
    assert_pow_matches_miller(a, e)
    assert ps_pow(a, e).coeffs == (0,) * (order + 1)


@given(case=miller_cases(wide_rationals, denominators=(1,)))
@settings(max_examples=80, deadline=None)
def test_inverse_matches_miller(case):
    a, _ = case
    expected = outcome(reference_miller_pow, a, -1)
    assert outcome(ps_pow, a, -1) == expected
    assert outcome(ps_inverse, a) == expected


def test_pow_of_z_squared_beyond_order():
    assert ps_pow(series([0, 1]), 2).coeffs == (0, 0)


def test_huge_shifts_pad_at_most_order_plus_one_zeros():
    # Padding with [0] * shift would raise MemoryError here, not hang.
    assert ps_pow(series([0, 1, 0]), 10**15) == constant(0, 2)
    assert ps_monomial_shift(series([1, 2]), 10**15) == constant(0, 1)


# ------------------------------------------------------- reference division
# ps_div before a constant divisor became a scale: the operands shifted by
# the divisor's valuation, then always a product with the divisor's inverse.

def reference_ps_div(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    v = valuation(b)
    if v is None:
        raise ZeroToOrderError("division by a series that is zero to its order")
    if any(a.nums[:v]):
        raise SeriesDomainError("division would produce negative powers of z")
    if a.order < v:
        raise ZeroToOrderError("numerator is zero to an order below v")
    return ps_mul(PowerSeries(a.nums[v:], a.den),
                  ps_inverse(PowerSeries(b.nums[v:], b.den)))


@st.composite
def monomial_divisions(draw):
    """(a, b) with b = c*z^v to its order, c rational, often negative or not
    an integer; a few divisors carry a tail past z^v, and most numerators
    are multiples of z^v.  Both orders are drawn from 0..20 apart, so b's
    lies below a's as often as above."""
    v = draw(st.integers(0, 4))
    tail = draw(st.one_of(st.just([]), st.lists(small_rationals, max_size=3)))
    order = draw(st.integers(0, 20))
    head = [0] * v + [draw(nonzero_rationals)] + tail
    b = series((head + [0] * order)[: order + 1])
    a = draw(mul_operands)
    if draw(st.integers(0, 3)):
        a = ps_monomial_shift(a, v)
    return a, b


@given(case=monomial_divisions())
@settings(max_examples=300)
def test_div_matches_inverse_product(case):
    assert outcome(ps_div, *case) == outcome(reference_ps_div, *case)


# ------------------------------------------------------------ the stored form
# A series is integer numerators over one denominator, reduced on
# construction: den > 0 and gcd(den, *nums) == 1.

def assert_reduced(a: PowerSeries):
    assert all(type(x) is int for x in a.nums) and type(a.den) is int
    assert a.den > 0 and math.gcd(a.den, *a.nums) == 1


def test_constructor_reduces():
    assert PowerSeries((2, 4), 6) == PowerSeries((1, 2), 3)
    assert PowerSeries((2, 4), 6).nums == (1, 2)
    a = PowerSeries((1, 3), -2)
    assert (a.nums, a.den) == ((-1, -3), 2)
    assert a.coeffs == (Fraction(-1, 2), Fraction(-3, 2))
    assert PowerSeries([0, 0, 0], -7) == constant(0, 2)


def test_constructor_rejects_empty_and_zero_denominator():
    with pytest.raises(ValueError):
        PowerSeries(())
    with pytest.raises(ZeroDivisionError):
        PowerSeries((1,), 0)


class TestPowerSeriesValue:
    """What the frozen dataclass PowerSeries gave, kept by the plain class."""

    def test_fields_cannot_be_set_or_deleted(self):
        a = PowerSeries((1, 2), 3)
        for name in ("nums", "den"):
            with pytest.raises(AttributeError):
                setattr(a, name, 5)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert (a.nums, a.den) == ((1, 2), 3)

    def test_equal_series_hash_equal(self):
        a, b = PowerSeries((2, 4), 6), PowerSeries(nums=[1, 2], den=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, PowerSeries((1, 2))}) == 2
        assert a != PowerSeries((1, 2, 0), 3)
        assert a != ((1, 2), 3)

    def test_repr_is_the_dataclass_text(self):
        assert repr(PowerSeries((2, 4), -6)) == \
            "PowerSeries(nums=(-1, -2), den=3)"
        assert repr(constant(5, 0)) == "PowerSeries(nums=(5,), den=1)"

    def test_copy_and_pickle_give_an_equal_series(self):
        a = binomial_series(Fraction(-1, 3), 6)
        for other in (copy.copy(a), copy.deepcopy(a),
                      pickle.loads(pickle.dumps(a))):
            assert type(other) is PowerSeries and other == a


@given(data=st.data(), a=mul_operands, b=mul_operands, m=small_rationals,
       order=st.integers(0, 20), p=st.integers(0, 25), at_minus_z=st.booleans())
@settings(max_examples=150, deadline=None)
def test_every_result_is_reduced(data, a, b, m, order, p, at_minus_z):
    assert_reduced(a)
    assert_reduced(constant(m, order))
    assert_reduced(identity_z(order))
    assert_reduced(log_geometric(order))
    assert_reduced(binomial_series(m, order, at_minus_z))
    assert_reduced(ps_add(a, b))
    assert_reduced(ps_sub(a, b))
    assert_reduced(ps_sub(a, a))
    assert_reduced(ps_mul(a, b))
    assert_reduced(ps_monomial_shift(a, p))
    base, e = data.draw(power_cases())
    for out in (outcome(ps_pow, base, e), outcome(ps_div, a, b),
                outcome(ps_div, ps_monomial_shift(a, p), base)):
        if isinstance(out, PowerSeries):
            assert_reduced(out)


# --------------------------------------------- reference binomial series row
# The Fraction ratio recurrence C(m, k) = C(m, k-1) * (m-k+1)/k that
# binomial_series used before it became ps_pow of 1 +- z.

def reference_binomial_series(m, order: int, at_minus_z: bool = False) -> PowerSeries:
    m = Fraction(m)
    sign = -1 if at_minus_z else 1
    out = [Fraction(1)]
    for k in range(1, order + 1):
        out.append(out[-1] * (sign * (m - k + 1)) / k)
    return series(out)


@given(m=wide_rationals, order=st.integers(0, 100), at_minus_z=st.booleans())
@example(m=Fraction(-10**6, 999_999), order=100, at_minus_z=True)
@example(m=Fraction(10**6), order=0, at_minus_z=False)
@settings(max_examples=80, deadline=None)
def test_binomial_series_matches_ratio_recurrence(m, order, at_minus_z):
    assert binomial_series(m, order, at_minus_z) == \
        reference_binomial_series(m, order, at_minus_z)


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="measures CPython's tuple free lists")
def test_series_ops_leave_allocated_blocks_flat():
    # A tuple built from a generator is resized after it is allocated, so
    # its block is freed onto the free list of another length.  Those lists
    # hold up to 2000 blocks per length below 20 and, with gc off, nothing
    # empties them: built that way, 300 rounds leave some 36 000 blocks.
    def one_round():
        for n in range(19):
            a = series([Fraction(1, k + 1) for k in range(n + 1)])
            g = log_geometric(n)
            ps_add(a, g)
            ps_sub(a, g)
            ps_mul(a, g)
            ps_pow(a, Fraction(-1, 2))

    one_round()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(300):
            one_round()
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 2000


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="measures CPython's tuple free lists")
def test_log_geometric_leaves_allocated_blocks_flat():
    # CPython 3.11 never reuses a freed tuple of length 20, so an argument
    # tuple math.lcm(*range(1, 21)) left one block per call: about 2000
    # over these 3000 calls.  The lcm is folded pairwise instead.
    log_geometric(20)
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(3000):
            log_geometric(20)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < 500


def test_series_leaves_allocated_blocks_flat():
    # As in log_geometric, math.lcm(*denominators) of 20 coefficients left
    # an argument tuple of length 20 behind on each call: about 2000 blocks
    # over these calls.  The results are kept, so that their own stored
    # tuples of length 20 are never freed; the same series built from its
    # integers is the baseline.
    coeffs = [Fraction(1, k + 1) for k in range(20)]
    den = series(coeffs).den

    def grown(build) -> int:
        kept = []
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(3000):
                kept.append(build())
            return sys.getallocatedblocks() - before
        finally:
            gc.enable()

    direct = grown(lambda: PowerSeries([den // k for k in range(1, 21)],
                                       den // 1))
    assert grown(lambda: series(coeffs)) - direct < 500


# ------------------------------------------------- reference fraction_pow
# The power of a Fraction as it was computed on Fractions, before the
# exponent and the bit limit moved to integers (series._rational_pow): the
# oracle for that arithmetic, its errors and their messages.  Only the
# integer root is shared with the kernel.

def reference_fraction_pow(base: Fraction, exponent: Fraction) -> Fraction:
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


def outcome_with_message(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def fraction_pow_cases(draw):
    """(base, exponent): the base is often an exact root's power, negative
    with odd roots too, and |exponent| is small or within two of the bit
    limit on either side."""
    d = draw(st.integers(1, 6))
    base = draw(nonzero_rationals)
    if draw(st.booleans()):
        base = base**d
    height_bits = max(abs(base.numerator), base.denominator).bit_length() - 1
    if height_bits and draw(st.booleans()):
        en = MAX_POWER_BITS * d // height_bits + draw(st.integers(-2, 2))
    else:
        en = draw(st.integers(0, 12))
    return base, Fraction(draw(st.sampled_from([1, -1])) * en, d)


@given(case=fraction_pow_cases())
@example(case=(Fraction(-8, 27), Fraction(-1, 3)))
@example(case=(Fraction(-32, 243), Fraction(-3, 5)))
@example(case=(Fraction(-4), Fraction(1, 2)))
@example(case=(Fraction(3), Fraction(MAX_POWER_BITS)))
@example(case=(Fraction(2), Fraction(-MAX_POWER_BITS - 1)))
@example(case=(Fraction(4, 9), Fraction(2 * MAX_POWER_BITS + 1, 2)))
@settings(max_examples=200, deadline=None)
def test_fraction_pow_matches_reference(case):
    base, exponent = case
    expected = outcome_with_message(reference_fraction_pow, *case)
    if isinstance(expected, Fraction):
        expected = expected.as_integer_ratio()
    assert outcome_with_message(_rational_pow, *base.as_integer_ratio(),
                                *exponent.as_integer_ratio()) == expected


# ------------------------------------------------------- monomial bases
# A base c*z^s has no term past its lead, so ps_pow runs no Miller step.

@given(lead=nonzero_rationals, s=st.integers(0, 5), e=any_exponent,
       extra=st.integers(0, 15))
@example(lead=Fraction(2), s=0, e=Fraction(-1), extra=11)
@example(lead=Fraction(1), s=3, e=Fraction(3), extra=9)
@example(lead=Fraction(4), s=2, e=Fraction(5, 2), extra=2)
@example(lead=Fraction(-27, 8), s=3, e=Fraction(-1, 3), extra=0)
@settings(max_examples=200, deadline=None)
def test_pow_of_monomial_matches_miller(lead, s, e, extra):
    """c * z^s to a rational power at order s + extra; e*s may be negative,
    not an integer, or above the order."""
    lead = lead**e.denominator
    a = series([0] * s + [lead] + [0] * extra)
    assert_pow_matches_miller(a, e)


def test_pow_of_monomial_pads_with_zeros():
    assert ps_pow(series([0, 0, 4, 0, 0, 0]), Fraction(3, 2)) == \
        series([0, 0, 0, 8, 0, 0])
    assert ps_pow(series([0, 0, 4, 0]), Fraction(5, 2)) == constant(0, 3)
    assert ps_pow(series([0, 0, 4, 0]), 2) == constant(0, 3)


# ----------------------------------------------------- scaling and shifting

@given(a=random_series, m=small_rationals, c=small_rationals)
def test_affine_matches_constant_series_ops(a, m, c):
    out = ps_affine(a, m, c)
    assert_reduced(out)
    assert out == ps_add(ps_mul(constant(m, a.order), a), constant(c, a.order))


def test_affine_takes_integer_factors():
    a = series([Fraction(1, 2), 3, Fraction(-5, 6)])
    assert ps_affine(a, -1, 1) == series([Fraction(1, 2), -3, Fraction(5, 6)])
    assert ps_affine(a, 0, Fraction(2, 3)) == constant(Fraction(2, 3), 2)
