"""Benchmark for exactseries.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {verify-grid,expand,cli} --seed N \
        --seconds S --trace {0,1}

Runs one workload as a closed loop with one caller, in whole rounds, until
the operations have taken at least S seconds and at least 100 operations
are done.  Every output is checked against the oracles in ``oracles.py``.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer timers of ``tracing.py``
are installed and the metrics are the per-layer ones.

The program is run from the checkout's ``src/`` directory, in process for
``verify-grid`` and ``expand`` and as ``python -m exactseries.cli``
subprocesses for ``cli``.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 60

# Children may write bytecode caches, as an installed package has them,
# whatever the caller's environment says.
ENV = {key: value for key, value in os.environ.items()
       if key != "PYTHONDONTWRITEBYTECODE"}
ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


def measure_setup() -> float:
    """Median wall time for a fresh interpreter to import exactseries.cli.

    One untimed import first, so that compiling the bytecode cache, which a
    user pays once, is not counted.
    """
    cmd = [sys.executable, "-c", "import exactseries.cli"]
    subprocess.run(cmd, cwd=ROOT, env=ENV, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=ENV, check=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def make_spawn(tracer):
    """A function running one exactseries command as a subprocess.

    Traced children start through ``launch.py``, which installs the same
    timers and sends their numbers back over a pipe.
    """
    from workloads import Proc  # importable once main has put src/ on the path

    def spawn(argv):
        if tracer is None:
            done = subprocess.run(
                [sys.executable, "-m", "exactseries.cli", *argv], cwd=ROOT,
                env=ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            return Proc(done.returncode, done.stdout, done.stderr)
        read_fd, write_fd = os.pipe()
        with os.fdopen(read_fd) as pipe:
            try:
                done = subprocess.run(
                    [sys.executable, str(BENCH / "launch.py"), *argv],
                    cwd=ROOT, env=dict(ENV, EXACTBENCH_TRACE_FD=str(write_fd)),
                    pass_fds=(write_fd,), capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S)
            finally:
                os.close(write_fd)
            data = pipe.read()
        if data:
            tracer.merge(json.loads(data))
        return Proc(done.returncode, done.stdout, done.stderr)

    return spawn


def end_to_end(run, setup_s: float, children: bool) -> dict:
    lat = run.latencies
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak_kib = resource.getrusage(who).ru_maxrss  # KiB on Linux
    return {
        "ops_per_s": {"value": len(lat) / run.busy_s, "unit": "ops/s"},
        "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(lat, n=10)[8] * 1e3,
                           "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_kib / 1024, "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify-grid", "expand", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "exactseries" / "cli.py").is_file():
        print(f"error: no exactseries sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    setup_s = measure_setup()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    spawn = make_spawn(tracer)
    make_round = {
        "verify-grid": workloads.verify_grid_round,
        "expand": workloads.expand_round,
        "cli": lambda rng: workloads.cli_round(rng, spawn),
    }[args.workload]

    run = workloads.run_workload(make_round, random.Random(args.seed), args.seconds)

    attempted = len(run.latencies)
    failed = attempted - run.outcomes[workloads.OK]
    wrong = run.outcomes[workloads.WRONG]
    ops_per_s = attempted / run.busy_s
    print(f"{args.workload} seed {args.seed}: {attempted} operations in "
          f"{run.rounds} rounds, {run.busy_s:.2f} s in calls, "
          f"{ops_per_s:.3f} ops/s; {failed} failed, {wrong} of them wrong")
    for label, kind in run.failures.items():
        print(f"  failed ({kind}): {label}")
    print(f"digest of the first {run.digest_ops} operations: "
          f"{run.digest.hexdigest()}")

    if tracer is None:
        metrics = end_to_end(run, setup_s, children=args.workload == "cli")
    else:
        cli_workload = args.workload == "cli"
        layer_s = sum(stat["self_s"] for stat in tracer.stats.values())
        spent = "in child processes" if cli_workload else "in operations"
        base_s = run.busy_s
        print(f"traced: {ops_per_s:.3f} ops/s; layer self time "
              f"{layer_s:.2f} s of {base_s:.2f} s {spent} "
              f"({100 * layer_s / base_s:.1f}%)")
        metrics = tracer.metrics()
        metrics["cli.process_s"] = {
            "value": run.busy_s if cli_workload else 0.0, "unit": "s"}
        metrics["cli.stdout_bytes"] = {"value": run.stdout_bytes,
                                       "unit": "bytes"}
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
