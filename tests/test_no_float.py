"""No binary float anywhere in the package, checked on its source.

Each module under ``src/exactseries`` is parsed with ``ast`` and must hold
no float or complex literal, no ``float(...)`` call, and no ``math.*`` call
outside the integer functions in EXACT_MATH.  True division between two
ints, such as ``n / 2``, also yields a float; telling it apart from a
division of Fractions needs the operand types, so it is out of this
check's reach.
"""

import ast
from pathlib import Path

import pytest

EXACT_MATH = {"gcd", "lcm", "comb", "perm", "prod", "factorial", "isqrt"}
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "exactseries"
MODULES = sorted(PACKAGE.glob("*.py"))


def float_uses(source: str) -> list[str]:
    """Each float literal, float(...) call or inexact math call in source,
    as ``line: text``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"{node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "float":
                found.append(f"{node.lineno}: float(...)")
            elif (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                  and f.value.id == "math" and f.attr not in EXACT_MATH):
                found.append(f"{node.lineno}: math.{f.attr}(...)")
    return found


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"series.py", "lang.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_no_float(path):
    assert float_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "x = 0.5", "x = 2j", "y = float(n)", "y = math.sqrt(n)", "y = math.log2(n)",
])
def test_float_uses_are_caught(source):
    assert len(float_uses(source)) == 1


def test_exact_math_passes():
    assert float_uses("import math\ny = math.gcd(a, b) + math.isqrt(n)") == []
