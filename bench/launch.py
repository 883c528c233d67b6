"""Run the exactseries command with the per-layer timers installed.

Usage: python launch.py <exactseries arguments>

Behaves like ``python -m exactseries.cli``.  When the environment names a
file descriptor in EXACTBENCH_TRACE_FD, the timers' numbers are written to
it as JSON when the command ends, however it ends.
"""

import json
import os

import exactseries.cli
from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        exactseries.cli.main()
    finally:
        fd = os.environ.get("EXACTBENCH_TRACE_FD")
        if fd is not None:
            with open(int(fd), "w") as out:
                json.dump(tracer.snapshot(), out)
