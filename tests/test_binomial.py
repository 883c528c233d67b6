import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactseries.binomial import binom, harmonic


def factorial_binom(n: int, q: int) -> Fraction:
    # independent oracle: n! / (q! (n-q)!)
    return Fraction(math.factorial(n), math.factorial(q) * math.factorial(n - q))


class TestBinom:
    def test_integer_case(self):
        assert binom(5, 2) == 10

    def test_lower_zero_is_empty_product(self):
        for p in (0, 7, Fraction(1, 2), Fraction(-5, 3)):
            assert binom(p, 0) == 1

    def test_negative_upper(self):
        assert binom(-1, 2) == 1

    def test_negative_lower_is_zero(self):
        assert binom(3, -1) == 0
        assert binom(Fraction(1, 2), -4) == 0

    def test_half_upper(self):
        # (1/2)(−1/2)/2
        assert binom(Fraction(1, 2), 2) == Fraction(-1, 8)

    def test_matches_factorial_oracle(self):
        for n in range(21):
            for q in range(n + 1):
                assert binom(n, q) == factorial_binom(n, q)

    def test_symmetry_for_integer_upper(self):
        for p in range(21):
            for q in range(p + 1):
                assert binom(p, q) == binom(p, p - q)

    def test_vanishing_past_upper(self):
        for n in range(12):
            for q in range(n + 1, n + 6):
                assert binom(n, q) == 0

    def test_canonical_form(self):
        for p in (Fraction(5, 3), Fraction(-7, 4), 9):
            for q in range(8):
                v = binom(p, q)
                assert v.denominator > 0
                assert math.gcd(abs(v.numerator), v.denominator) == 1


rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


@given(p=rationals, q=st.integers(min_value=1, max_value=12))
def test_pascal_recurrence(p, q):
    assert binom(p, q) == binom(p - 1, q - 1) + binom(p - 1, q)


class TestHarmonic:
    def test_known_values(self):
        assert harmonic(0) == 0
        assert harmonic(1) == 1
        assert harmonic(2) == Fraction(3, 2)
        assert harmonic(3) == Fraction(11, 6)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            harmonic(-1)


def reference_harmonic(n: int) -> Fraction:
    # harmonic as it was before the one common denominator: one reduced
    # Fraction added per term.
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


@given(n=st.integers(0, 300))
@example(n=0)
@example(n=94)
@example(n=300)
@settings(deadline=None)
def test_harmonic_matches_reference(n):
    assert harmonic(n) == reference_harmonic(n)
