"""What an ``exactseries`` process imports, and the report contract that the
library keeps while the command line does without it."""

import dataclasses
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import exactseries
from exactseries import identities

SRC = Path(__file__).resolve().parent.parent / "src"

# Modules that took about half of ``import exactseries.cli``: dataclasses
# (through inspect) and typing.
HEAVY = ("dataclasses", "inspect", "typing")

CHILD = f"""
import contextlib, io, sys
import exactseries.cli as cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.run(["coeff", "z^2/(1-z)^4", "--n", "5"]),
        cli.run(["verify", "vandermonde", "--m=1/2,-5/3", "--n", "0..3",
                 "--c", "0..1", "--json"]),
        cli.run(["table", "euler", "--case", "cm2", "--n-max", "4", "--csv"]),
    ]
print(codes, sorted(name for name in {HEAVY!r} if name in sys.modules))
"""


def test_commands_import_no_dataclasses_inspect_or_typing():
    # -S: no site module, which may import typing itself (a .pth file can).
    done = subprocess.run(
        [sys.executable, "-S", "-c", CHILD], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert done.stderr == ""
    assert done.stdout == "[0, 0, 0] []\n"


def test_identity_report_is_still_a_frozen_dataclass():
    assert exactseries.IdentityReport is identities.IdentityReport
    assert dataclasses.is_dataclass(exactseries.IdentityReport)
    (report,) = identities.verify("log_dual", ns=[3], cs=[0])
    flipped = dataclasses.replace(report, verdict=False)
    assert flipped == identities.IdentityReport(
        "log_dual", {"n": 3, "c": 0},
        {"lhs": Fraction(11, 6), "rhs": Fraction(11, 6)}, False)
    assert report.verdict


def test_report_rows_match_the_reports():
    rows = list(identities.verify_rows("vandermonde", [Fraction(1, 2)],
                                       range(3), range(2)))
    reports = identities.verify("vandermonde", [Fraction(1, 2)], range(3),
                                range(2))
    assert [identities.IdentityReport("vandermonde", *row) for row in rows] \
        == reports
    assert [identities.IdentityReport("log_table", *row)
            for row in identities.log_table_rows(-1, range(4))] \
        == identities.log_table(-1, range(4))


def test_unknown_identity_is_refused_before_any_row():
    # Refused when verify_rows is called, not when its first row is read.
    with pytest.raises(ValueError, match="unknown identity 'pascal'"):
        identities.verify_rows("pascal", ns=range(2), cs=range(2))
