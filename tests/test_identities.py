import gc
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from exactseries import identities
from exactseries.binomial import binom, harmonic
from exactseries.identities import (
    IDENTITIES,
    log_closed,
    log_lhs,
    log_rhs,
    vandermonde_closed,
    vandermonde_series_route,
    vandermonde_sum,
    verify,
)
from exactseries.report import IdentityReport
from exactseries.series import (
    binomial_series,
    coefficient,
    log_geometric,
    ps_mul,
)


class TestVandermondeRoutes:
    def test_integer_example(self):
        # 1*1 + 3*4 + 3*6 + 1*4
        assert vandermonde_sum(3, 4, 0) == 35
        assert vandermonde_closed(3, 4, 0) == binom(7, 4) == 35
        assert vandermonde_series_route(3, 4, 0) == 35

    def test_empty_sum_when_c_exceeds_n(self):
        assert vandermonde_sum(5, 2, 3) == 0
        assert vandermonde_closed(5, 2, 3) == 0

    def test_m_one(self):
        assert vandermonde_sum(1, 2, 1) == binom(2, 1) + binom(2, 2) == 3
        assert vandermonde_closed(1, 2, 1) == binom(3, 2) == 3

    def test_half_m(self):
        expected = Fraction(15, 8)
        assert vandermonde_sum(Fraction(1, 2), 2, 0) == expected
        assert vandermonde_closed(Fraction(1, 2), 2, 0) == expected
        assert vandermonde_series_route(Fraction(1, 2), 2, 0) == expected

    def test_series_route_example(self):
        assert vandermonde_series_route(2, 3, 1) == binom(5, 2) == 10

    def test_lowest_surviving_power(self):
        for m in (0, 3, Fraction(5, 3), Fraction(-1, 2)):
            for n in range(5):
                assert vandermonde_series_route(m, n, n) == 1

    def test_m_zero_collapses(self):
        for n in range(10):
            for c in range(5):
                assert vandermonde_sum(0, n, c) == binom(n, c)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            vandermonde_sum(2, -1, 0)
        with pytest.raises(ValueError):
            vandermonde_closed(2, -3, 1)

    def test_triple_route_grid(self):
        ms = [Fraction(v) for v in range(6)]
        ms += [Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3)]
        for m in ms:
            for n in range(0, 13):
                for c in range(0, 7):
                    s = vandermonde_sum(m, n, c)
                    assert s == vandermonde_closed(m, n, c)
                    assert s == vandermonde_series_route(m, n, c)


class TestLogSeries:
    def test_lhs_c0(self):
        assert log_lhs(3, 0) == Fraction(11, 6)

    def test_lhs_c2(self):
        # 20 - 15/2 + 2 - 1/4
        assert log_lhs(6, 2) == Fraction(57, 4)

    def test_lhs_negative_c(self):
        # -1/2 + 2/3 - 1/4
        assert log_lhs(2, -2) == Fraction(-1, 12)

    def test_rhs_c2(self):
        # 10 + 3 + 1 + 1/4
        assert log_rhs(6, 2) == Fraction(57, 4)

    def test_rhs_is_harmonic_at_c0(self):
        for n in range(0, 21):
            assert log_rhs(n, 0) == harmonic(n)

    def test_rhs_single_term_at_c_minus_1(self):
        for n in range(0, 12):
            assert log_rhs(n, -1) == Fraction(1, n + 1)

    def test_rhs_empty_when_c_exceeds_n(self):
        assert log_rhs(2, 5) == 0

    def test_dual_identity_grid(self):
        for n in range(0, 21):
            for c in range(-6, 7):
                assert log_lhs(n, c) == log_rhs(n, c)

    def test_c1_decomposition(self):
        # second route splits into sum of n/lam - 1 over lam = 1..n-1
        for n in range(1, 21):
            split = sum(
                (Fraction(n, lam) - 1 for lam in range(1, n)), Fraction(0)
            )
            assert log_rhs(n, 1) == split

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            log_lhs(-2, 0)
        with pytest.raises(ValueError):
            log_rhs(-1, 1)


class TestLogClosed:
    def test_c0_is_harmonic(self):
        assert log_closed(0, 0) == 0
        for n in range(1, 21):
            assert log_closed(n, 0) == harmonic(n)

    def test_known_negative_cases(self):
        assert log_closed(2, -3) == Fraction(1, 30)
        assert log_closed(5, -4) == Fraction(-6, 6 * 7 * 8 * 9)

    def test_general_negative_c_matches_series(self):
        # Concrete Mathematics (5.41) at x = d proves the c = -d form for
        # every d >= 1, not only the worked d <= 4.
        for d in range(1, 61):
            for n in range(0, 61):
                assert log_closed(n, -d) == log_lhs(n, -d) == log_rhs(n, -d)

    def test_rejects_positive_c(self):
        with pytest.raises(ValueError):
            log_closed(4, 1)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            log_closed(-1, 0)


class TestVerify:
    def test_vandermonde_sweep(self):
        ms = [Fraction(v) for v in range(6)] + [
            Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3)
        ]
        reports = verify("vandermonde", ms=ms, ns=range(0, 13), cs=range(0, 7))
        assert len(reports) == len(ms) * 13 * 7
        assert all(r.verdict for r in reports)

    def test_log_dual_sweep(self):
        reports = verify("log_dual", ns=range(0, 16), cs=range(-5, 6))
        assert len(reports) == 16 * 11
        assert all(r.verdict for r in reports)

    def test_empty_grid(self):
        assert verify("log_dual", ns=(), cs=range(3)) == []

    def test_unknown_identity(self):
        with pytest.raises(ValueError):
            verify("pascal", ns=range(2), cs=range(2))

    def test_report_shape(self):
        (report,) = verify("vandermonde", ms=[Fraction(3)], ns=[4], cs=[0])
        assert isinstance(report, IdentityReport)
        assert report.params == {"m": Fraction(3), "n": 4, "c": 0}
        assert report.route_values == {"sum": 35, "closed": 35, "series": 35}
        assert report.verdict

    def test_log_table_rows(self):
        reports = verify("log_table", ns=range(0, 4), cs=[-2])
        assert [r.params for r in reports] == [{"n": n, "c": -2} for n in range(4)]
        assert all(list(r.route_values) == ["lhs", "rhs", "closed"]
                   for r in reports)
        assert all(r.verdict for r in reports)
        # For c >= 1 the table is a log_dual sweep.
        (report,) = verify("log_dual", ns=[6], cs=[2])
        assert report.route_values == {"lhs": Fraction(57, 4), "rhs": Fraction(57, 4)}
        assert report.verdict

    def test_log_table_refuses_positive_c(self):
        # log_closed has no closed route for c >= 1, which is why the table
        # command sweeps log_dual there.
        with pytest.raises(ValueError, match="no closed-form route for c=1"):
            list(identities.verify_rows("log_table", ns=[3], cs=[1]))


class TestRouteTable:
    def test_every_identity_has_two_routes_that_resolve(self):
        for identity, routes in IDENTITIES.items():
            assert len(routes) >= 2, identity
            for name in routes.values():
                assert callable(getattr(identities, name)), name

    @pytest.mark.parametrize("identity, name, m", [
        ("vandermonde", "vandermonde_series_route", Fraction(1, 2)),
        ("log_dual", "log_rhs", Fraction(0)),
    ])
    def test_verify_runs_the_rebound_route(self, identity, name, m,
                                           monkeypatch):
        # Routes are looked up by name when verify runs, so a route rebound
        # on the module is the one that runs.
        monkeypatch.setattr(identities, name, lambda *args: Fraction(-99))
        (report,) = verify(identity, ms=[m], ns=[3], cs=[1])
        assert Fraction(-99) in report.route_values.values()
        assert not report.verdict


# ------------------------------------------ reference per-term log routes
# The log-series routes as they were before the rolling integer rows: every
# term calls binom from scratch.  They share no code with the rows they
# judge beyond binom itself.

def reference_log_lhs(n: int, c: int) -> Fraction:
    total = Fraction(0)
    for k in range(max(1, -c), n - c + 1):
        sign = 1 if k % 2 == 1 else -1
        total += Fraction(sign, k) * binom(n, c + k)
    return total


def reference_log_rhs(n: int, c: int) -> Fraction:
    total = Fraction(0)
    for lam in range(1, n - c + 1):
        total += Fraction(1, lam) * binom(n - lam, n - lam - c)
    return total


def test_log_routes_match_reference_on_small_grid():
    # Every c < 0 window, c above n (the empty sum) and n = 0, exhaustively.
    for n in range(0, 13):
        for c in range(-10, n + 4):
            assert log_lhs(n, c) == reference_log_lhs(n, c), (n, c)
            assert log_rhs(n, c) == reference_log_rhs(n, c), (n, c)


@given(point=st.integers(0, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(-10, n + 3))))
@example(point=(0, 0))
@example(point=(0, -10))
@example(point=(0, 3))
@example(point=(60, 63))
@example(point=(60, 60))
@example(point=(60, -10))
@example(point=(60, 0))
@example(point=(94, -6))
@example(point=(94, 0))
@example(point=(94, 4))
@settings(max_examples=150, deadline=None)
def test_log_routes_match_reference(point):
    n, c = point
    assert log_lhs(n, c) == reference_log_lhs(n, c)
    assert log_rhs(n, c) == reference_log_rhs(n, c)


def reference_comb_log_rhs(n: int, c: int) -> Fraction:
    """log_rhs as it was before its rows were one roll: one math.comb per
    surviving term.  For c >= 0 the term is the complement C(n-lam, c); for
    c < 0 it is the reflection C(n-lam, j) = (-1)^j C(-c-1, j) with
    j = n-lam-c, and only lam > n survive."""
    total = Fraction(0)
    if c >= 0:
        for lam in range(1, n - c + 1):
            total += Fraction(math.comb(n - lam, c), lam)
        return total
    for lam in range(n + 1, n - c + 1):
        j = n - lam - c
        total += Fraction((-1) ** j * math.comb(-c - 1, j), lam)
    return total


# c reaches well past the grids above, where the binom oracle is slow, and
# covers both signs: the reflected terms for c < 0, the complement for
# c >= 0, and the empty sum for c > n.
@given(n=st.integers(0, 200), c=st.integers(-400, 203))
@example(n=0, c=-1)
@example(n=0, c=-400)
@example(n=0, c=0)
@example(n=0, c=3)
@example(n=60, c=-400)
@example(n=200, c=-400)
@example(n=200, c=-1)
@example(n=200, c=0)
@example(n=200, c=1)
@example(n=200, c=200)
@example(n=200, c=203)
@settings(max_examples=150, deadline=None)
def test_rolled_reflection_matches_one_comb_per_term(n, c):
    assert log_rhs(n, c) == reference_comb_log_rhs(n, c)


def series_log_rhs(n: int, c: int) -> Fraction:
    """[z^(n-c)] log(1/(1-z)) * (1-z)^-(c+1), built from series ops; 0 for
    c > n.  The convolution that log_rhs rolls in integers."""
    if c > n:
        return Fraction(0)
    order = n - c
    kernel = binomial_series(-(c + 1), order, at_minus_z=True)
    return coefficient(ps_mul(log_geometric(order), kernel), order)


def test_rhs_is_the_series_coefficient():
    points = [(n, c) for n in range(30) for c in range(-8, n + 4)]
    assert len(points) == 795
    for n, c in points:
        assert log_rhs(n, c) == series_log_rhs(n, c), (n, c)


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="measures CPython's tuple free lists")
def test_log_routes_leave_allocated_blocks_flat():
    # An argument tuple for math.lcm(*args) is freed onto CPython's tuple
    # free lists, which nothing empties with gc off: a generator's tuple is
    # resized onto another length's list, and 3.11 never reuses a freed
    # tuple of length 20, so even lcm(*range) leaves a block per call with
    # 20 terms.  The routes fold lcm pairwise and build no such tuple.
    def one_round():
        for n in range(41):
            harmonic(n)
            for c in range(-6, 5):
                log_lhs(n, c)
                log_rhs(n, c)

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
