"""Acceptance suite: one test per criterion, exact rational equality
throughout.  Each test prints a PASS line on success (run with -s to see
them; any failure shows up as a normal pytest failure)."""

from fractions import Fraction
from pathlib import Path

import pytest

from exactseries.binomial import harmonic
from exactseries.cli import run
from exactseries.identities import (
    log_lhs,
    log_rhs,
    vandermonde_closed,
    vandermonde_series_route,
    vandermonde_sum,
)
from exactseries.series import (
    coefficient,
    constant,
    lemma_coefficient,
    ps_monomial_shift,
    ps_mul,
    series,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def passed(line: str) -> None:
    print(f"PASS {line}")


def test_criterion_01_harmonic_identity():
    pinned = {1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(11, 6)}
    for n in range(1, 8):
        lhs = log_lhs(n, 0)
        assert lhs == harmonic(n)
        assert lhs == log_rhs(n, 0)
        if n in pinned:
            assert lhs == pinned[n]
    passed("criterion 1: alternating series equals harmonic numbers, n=1..7")


def test_criterion_02_case_c1():
    pinned = {1: Fraction(0), 2: Fraction(1), 3: Fraction(5, 2),
              4: Fraction(13, 3), 5: Fraction(77, 12)}
    for n in range(1, 6):
        lhs = log_lhs(n, 1)
        assert lhs == log_rhs(n, 1)
        assert lhs == pinned[n]
    passed("criterion 2: c=1 dual series agree with pinned values, n=1..5")


def test_criterion_03_case_c2_n6():
    first = 20 - Fraction(15, 2) + 2 - Fraction(1, 4)
    second = 10 + 3 + 1 + Fraction(1, 4)
    assert first == second == Fraction(57, 4)
    assert log_lhs(6, 2) == Fraction(57, 4)
    assert log_rhs(6, 2) == Fraction(57, 4)
    passed("criterion 3: c=2, n=6 both series give 57/4")


def test_criterion_04_case_c_minus_1():
    pinned = {1: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 4),
              4: Fraction(1, 5), 5: Fraction(1, 6)}
    for n in range(1, 11):
        lhs = log_lhs(n, -1)
        assert lhs == Fraction(1, n + 1)
        if n in pinned:
            assert lhs == pinned[n]
    passed("criterion 4: c=-1 series sums to 1/(n+1), n=1..10")


def test_criterion_05_case_c_minus_2():
    # n=1: term-by-term -1/2 + 1/3 = -1/6 (the printed source table shows
    # the sign flipped; the arithmetic and the closed form agree on -1/6)
    assert -Fraction(1, 2) + Fraction(1, 3) == Fraction(-1, 6)
    for n in range(1, 11):
        lhs = log_lhs(n, -2)
        assert lhs == Fraction(-1, (n + 1) * (n + 2))
    assert log_lhs(1, -2) == Fraction(-1, 6)
    assert log_lhs(2, -2) == Fraction(-1, 12)
    assert log_lhs(3, -2) == Fraction(-1, 20)
    passed("criterion 5: c=-2 series sums to -1/((n+1)(n+2)), n=1..10")


def test_criterion_06_case_c_minus_3():
    pinned = {0: Fraction(1, 3), 1: Fraction(1, 12), 2: Fraction(1, 30)}
    for n in range(0, 11):
        lhs = log_lhs(n, -3)
        assert lhs == Fraction(2, (n + 1) * (n + 2) * (n + 3))
        if n in pinned:
            assert lhs == pinned[n]
    passed("criterion 6: c=-3 series sums to 2/((n+1)(n+2)(n+3))")


def test_criterion_07_case_c_minus_4():
    for n in range(0, 11):
        lhs = log_lhs(n, -4)
        assert lhs == Fraction(-6, (n + 1) * (n + 2) * (n + 3) * (n + 4))
    passed("criterion 7: c=-4 series sums to -6/((n+1)...(n+4)), n=0..10")


def test_criterion_08_vandermonde_triple_route():
    ms = [Fraction(v) for v in range(6)]
    ms += [Fraction(1, 2), Fraction(-1, 2), Fraction(5, 3), Fraction(-7, 4)]
    failures = 0
    for m in ms:
        for n in range(0, 13):
            for c in range(0, 7):
                s = vandermonde_sum(m, n, c)
                if s != vandermonde_closed(m, n, c):
                    failures += 1
                if s != vandermonde_series_route(m, n, c):
                    failures += 1
    assert failures == 0
    passed("criterion 8: vandermonde sum = closed = series on the full grid")


def test_criterion_09_lemma_oracle():
    geom = series([1] * 25)
    for q in range(0, 9):
        power = constant(1, 24)
        for _ in range(q + 1):
            power = ps_mul(power, geom)
        for p in range(0, 9):
            brute = ps_monomial_shift(power, p)
            for n in range(p, 25):
                assert lemma_coefficient(p, q, n) == coefficient(brute, n)
    passed("criterion 9: closed-form coefficient matches brute-force "
           "expansion, p,q<=8, n<=24")


def test_criterion_10_dual_series_identity():
    for n in range(0, 16):
        for c in range(-5, 6):
            assert log_lhs(n, c) == log_rhs(n, c)
    passed("criterion 10: dual logarithmic series agree, n=0..15, c=-5..5")


@pytest.mark.parametrize("case", ["c0", "c1", "c2", "cm1", "cm2", "cm3"])
def test_criterion_11_golden_tables(case, capsys):
    code = run(["table", "euler", "--case", case, "--n-max", "7", "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    expected = (GOLDEN_DIR / f"table_{case}.csv").read_text()
    assert out == expected
    with capsys.disabled():
        passed(f"criterion 11: golden table {case} byte-identical")
