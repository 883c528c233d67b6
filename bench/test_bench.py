"""Tests of the benchmark itself: its oracles, its judges and its timers.

Run from the root of a checkout with ``python3 -m pytest bench -q``.
"""

import dataclasses
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import ERROR, OK, WRONG, Proc  # noqa: E402


def test_oracles_match_hand_worked_values():
    assert oracles.harmonic(4) == Fraction(25, 12)
    assert oracles.catalan(10) == 16796
    assert oracles.gbinom(Fraction(1, 2), 3) == Fraction(1, 16)
    # 4 - 6/2 + 4/3 - 1/4
    assert oracles.log_lhs(4, 0) == Fraction(25, 12)
    # C(3,3)/1 + C(2,3)/2 + ... : only lam = 1 survives at c = -1, n = 3
    assert oracles.log_rhs(3, -1) == Fraction(1, 4)
    assert oracles.log_closed(3, -1) == Fraction(1, 4)
    assert oracles.log_closed(2, -2) == Fraction(-1, 12)
    # C(1/2 + 2, 2) = (5/2)(3/2)/2
    assert oracles.vandermonde_closed(Fraction(1, 2), 2, 0) == Fraction(15, 8)
    # C(2,0)C(3,1) + C(2,1)C(3,2) + C(2,2)C(3,3) = 3 + 6 + 1 = C(5, 2)
    assert oracles.vandermonde_sum(2, 3, 1) == oracles.vandermonde_closed(2, 3, 1) == 10
    assert oracles.ibinom(-1, 3) == -1
    # z^2/(1-z)^2 = z^2 + 2 z^3 + 3 z^4 + ...
    assert oracles.shifted_geometric_power(2, 1, 4) == 3
    # (1-4z)^(-1/2) has coefficients C(2n, n)
    assert oracles.rational_power(4, Fraction(-1, 2), 3) == 20
    assert oracles.binomial_product(Fraction(1, 2), Fraction(1, 2), 1) == 1
    assert oracles.polynomial_power([1, 1], 3, 2) == 3
    # log(1/(1-z))^2 = z^2 + z^3 + ..., so the z^2 coefficient over 1-z is 1
    assert oracles.log_power_over_geometric(2, 2) == 1
    assert oracles.log_power_over_geometric(1, 4) == Fraction(25, 12)


def test_right_answer_counts_ok_and_wrong_answer_counts_failed():
    op = workloads.expand_op("(1-(1-4*z)^(1/2))/(2*z)", 10, oracles.catalan(10))
    wrong = dataclasses.replace(op, call=lambda: Proc(0, "16797\n", ""))
    run = workloads.Run()
    run.execute(op, in_digest=True)
    run.execute(wrong, in_digest=True)
    assert run.outcomes == {OK: 1, WRONG: 1}
    assert run.failures == {op.label: WRONG}


def test_false_verdict_is_wrong_and_crash_is_error():
    op = workloads.verify_grid_op("log_dual", Fraction(0), range(3, 5), range(-1, 2))
    good = op.call()
    flipped = [dataclasses.replace(good[0], verdict=False)] + good[1:]
    assert op.judge(good) == OK
    assert op.judge(flipped) == WRONG
    assert op.judge(good[:-1]) == WRONG

    def crash():
        raise ZeroDivisionError

    run = workloads.Run()
    run.execute(dataclasses.replace(op, call=crash), in_digest=False)
    assert run.outcomes == {ERROR: 1}


def test_exit_code_contract_judges():
    assert workloads.judge_usage_error(Proc(2, "", "error: bad --m\n")) == OK
    traceback = "Traceback (most recent call last):\nZeroDivisionError\n"
    assert workloads.judge_usage_error(Proc(1, "", traceback)) == ERROR
    check = lambda out: workloads.judge_coefficient(Fraction(0), out)  # noqa: E731
    assert workloads.judge_success(Proc(0, "0\n", ""), check) == OK
    assert workloads.judge_success(Proc(2, "", "error: x\n"), check) == ERROR
    assert workloads.judge_success(Proc(1, "", ""), check) == WRONG


def test_rounds_depend_only_on_the_seed():
    def labels(seed):
        return [op.label for op in workloads.expand_round(random.Random(seed))]

    assert labels(5) == labels(5)
    assert labels(5) != labels(6)
    assert len(labels(5)) == 75


def test_tracer_self_times_add_up():
    tracer = Tracer()

    def inner():
        return sum(range(10000))

    traced_inner = tracer.wrap("binomial.binom", inner)
    traced_outer = tracer.wrap("identities.verify",
                               lambda: [traced_inner() for _ in range(3)])
    traced_outer()
    stats = tracer.stats
    assert stats["binomial.binom"]["calls"] == 3
    assert stats["identities.verify"]["calls"] == 1
    total = stats["binomial.binom"]["self_s"] + stats["identities.verify"]["self_s"]
    assert abs(total - tracer.outer_s) < 1e-9


def test_traced_child_reports_its_layers():
    tracer = Tracer()
    spawn = bench_run.make_spawn(tracer)
    assert spawn(["coeff", "z^2/(1-z)^4", "--n=5"]) == Proc(0, "20\n", "")
    assert tracer.stats["cli.run"]["calls"] == 1
    assert tracer.stats["lang.evaluate"]["calls"] == 1
    assert tracer.counters["lang.evaluate.order"] >= 5
    assert tracer.stats["series.ps_mul"]["calls"] > 0


def test_install_rebinds_imported_names():
    code = ("import sys, exactseries.cli\n"
            "from tracing import LAYERS, Tracer\n"
            "originals = [getattr(sys.modules['exactseries.' + layer], fn)\n"
            "             for layer, fns in LAYERS.items() for fn in fns]\n"
            "tracer = Tracer(); tracer.install()\n"
            "left = [name for key, mod in sys.modules.items()\n"
            "        if key.startswith('exactseries')\n"
            "        for name, value in vars(mod).items()\n"
            "        if any(value is fn for fn in originals)]\n"
            "sys.modules['exactseries.identities'].log_lhs(5, 0)\n"
            "print(len(left), tracer.stats['identities.log_lhs']['calls'])\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                          env=bench_run.ENV, capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == ["0", "1"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
