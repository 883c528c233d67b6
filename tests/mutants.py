"""Mutation gate: every kernel mutant below must make its tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

Each mutant is (file, exact old text, new text, ``-k`` selection).  The old
text must occur exactly once in its file, so a refactor that moves the code
fails here instead of skipping the mutant.  The gate copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, with a
conftest that stops Hypothesis at its first counterexample (no shrinking).
There it lists each selection's node IDs once (``--co -k``) and runs
exactly those tests, unmutated, where every one must pass; the mutant runs
of the selection are given the same IDs, so pytest imports only the files
that hold them.  Then it applies one mutant at a time and runs its
selection with a timeout of four times the unmutated run, and at least
``MIN_TIMEOUT_S``: failing tests or the timeout (a mutant that loops)
count as killed, and a mutant whose tests pass fails the gate.  pytest
does not collect this file.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_TIMEOUT_S = 5

CONFTEST = """\
from hypothesis import Phase, settings

settings.register_profile("mutants", database=None, print_blob=False,
                          phases=[Phase.explicit, Phase.generate])
settings.load_profile("mutants")
"""

MUTANTS = [
    # ps_mul: a slot one bit narrower, and the signed borrow dropped.
    ("src/exactseries/series.py", ".bit_length() + 1", ".bit_length()",
     "mul"),
    ("src/exactseries/series.py", "prod = (prod - slot) >> bits",
     "prod >>= bits", "mul"),
    # ps_pow: the last term left out of each step, reach from the first
    # term instead of the last, and u's terms left unnegated when u0 is
    # made positive; when lcd grows, the window's lcds left stale, and the
    # window one entry short.
    ("src/exactseries/series.py", "if j > k:", "if j >= k:", "pow"),
    ("src/exactseries/series.py", "reach = terms[-1][0] if terms else 0",
     "reach = terms[0][0] if terms else 0", "pow"),
    ("src/exactseries/series.py", "sign * uj)", "uj)", "pow"),
    ("src/exactseries/series.py", "lcds[lo:] = [lcd] * (k - lo)", "pass",
     "pow"),
    ("src/exactseries/series.py", "k + 1 - reach", "k + 2 - reach", "pow"),
    # log_rhs and log_lhs: each roll off by one.
    ("src/exactseries/identities.py", "row = row * (j + c + 1) // (j + 1)",
     "row = row * (j + c) // (j + 1)", "log"),
    ("src/exactseries/identities.py",
     "row = row * (n - c - k) // (c + k + 1)",
     "row = row * (n - c - k + 1) // (c + k + 1)", "log"),
    # binom: the early zero taken at upper == lower too.
    ("src/exactseries/binomial.py", "0 <= upper.numerator < lower",
     "0 <= upper.numerator <= lower", "binom"),
    # coeff's order loop: doubling without the + 1 never leaves order 0.
    ("src/exactseries/cli.py", "order = min(cap, 2 * order + 1)",
     "order = min(cap, 2 * order)", "order"),
    # log_closed: the sign of (-1)^(d-1) flipped.
    ("src/exactseries/identities.py", "(-1) ** (d - 1)", "(-1) ** d",
     "log"),
    # harmonic: the 1/1 term dropped.
    ("src/exactseries/binomial.py", "for k in ks])", "for k in ks[1:]])",
     "log"),
    # ps_div: the numerator cut one coefficient short of the valuation;
    # a constant divisor's scale without its denominator, and its quotient
    # left at the numerator's order.
    ("src/exactseries/series.py", "a.nums[v:]", "a.nums[v - 1:]", "div"),
    ("src/exactseries/series.py", "[x * b.den for x in",
     "[x for x in", "div"),
    ("src/exactseries/series.py", "a.nums[: b.order + 1]", "a.nums", "div"),
    # lang._apply: c - series computed as c + series.
    ("src/exactseries/lang.py", "ps_affine(b, -1, a)", "ps_affine(b, 1, a)",
     "scalar"),
    # _rational_pow: a negative exponent left unswapped.
    ("src/exactseries/series.py",
     "num, den, en = (-den, -num, -en) if num < 0 else (den, num, -en)",
     "pass", "pow"),
    # ps_affine: the shift c added over den without scaling.
    ("src/exactseries/series.py",
     "nums[0] += c.numerator * (den // c.denominator)",
     "nums[0] += c.numerator", "scalar"),
    # log_geometric: the negative-order guard removed.
    ("src/exactseries/series.py",
     '"""-log(1-z) = z + z^2/2 + z^3/3 + ... to the given order."""\n'
     "    if order < 0:\n"
     '        raise ValueError(f"order must be >= 0, got {order}")\n',
     '"""-log(1-z) = z + z^2/2 + z^3/3 + ... to the given order."""\n',
     "negative_order"),
]


def run_pytest(copy: Path, args: list[str], timeout: float | None):
    # -B: no bytecode is written, so a file edited twice within the
    # timestamp resolution of a .pyc is never run from a stale one.  With
    # no cached bytecode, pytest's assertion rewriting would redo every test
    # module and plugin it imports, about 1.3 s a run; a failed assert still
    # fails its test with --assert=plain, only its message is shorter.
    command = [sys.executable, "-B", "-m", "pytest", "-q", "--assert=plain",
               "-p", "no:cacheprovider", "--hypothesis-seed=0", *args]
    return subprocess.run(command, cwd=copy, capture_output=True, text=True,
                          timeout=timeout)


def collect(copy: Path, selection: str) -> list[str]:
    """The node IDs of the tests that ``-k selection`` selects."""
    done = run_pytest(copy, ["--co", "-k", selection, "tests"], None)
    ids = [line for line in done.stdout.splitlines() if "::" in line]
    if done.returncode or not ids:
        sys.exit(f"pytest --co -k {selection!r} exited {done.returncode}:\n"
                 f"{done.stdout}{done.stderr}")
    return ids


def run_tests(copy: Path, ids: list[str], timeout: float | None) -> str:
    """Run the tests in the copy: 'passed' when every one of them passed,
    'failed' or 'timeout'.  Any other pytest outcome (a usage or collection
    error) stops the gate."""
    try:
        done = run_pytest(copy, ["-x", *ids], timeout)
    except subprocess.TimeoutExpired:
        return "timeout"
    if done.returncode == 0:
        summary = done.stdout.splitlines()[-1]
        if not summary.startswith(f"{len(ids)} passed"):
            sys.exit(f"{len(ids)} tests listed, but pytest ran: {summary}")
        return "passed"
    if done.returncode == 1:
        return "failed"
    sys.exit(f"pytest exited {done.returncode} on {len(ids)} tests:\n"
             f"{done.stdout}{done.stderr}")


def main() -> int:
    originals = {}
    for file, old, _, _ in MUTANTS:
        text = originals.setdefault(file, (ROOT / file).read_text())
        if text.count(old) != 1:
            sys.exit(f"{file}: {old!r} occurs {text.count(old)} times, "
                     "not once")
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / "conftest.py").write_text(CONFTEST)
        ids, timeouts = {}, {}
        for selection in dict.fromkeys(m[3] for m in MUTANTS):
            ids[selection] = collect(copy, selection)
            start = time.perf_counter()
            if run_tests(copy, ids[selection], None) != "passed":
                sys.exit(f"the unmutated tests -k {selection!r} fail")
            timeouts[selection] = max(MIN_TIMEOUT_S,
                                      4 * (time.perf_counter() - start))
        for file, old, new, selection in MUTANTS:
            (copy / file).write_text(originals[file].replace(old, new))
            start = time.perf_counter()
            outcome = run_tests(copy, ids[selection], timeouts[selection])
            (copy / file).write_text(originals[file])
            killed = outcome != "passed"
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'} ({outcome}, "
                  f"{time.perf_counter() - start:.1f} s) {file}: {old!r} -> "
                  f"{new!r} [-k {selection}]", flush=True)
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
