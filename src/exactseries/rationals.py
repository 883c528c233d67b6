"""Helpers for exact rationals on the CLI boundary.

All arithmetic in this package runs on ``fractions.Fraction``, which already
guarantees the canonical form we need: positive denominator, gcd-reduced,
structural equality.
"""

from decimal import Decimal
from fractions import Fraction


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction.

    Raises ValueError on anything else, including a zero denominator
    (floats are deliberately rejected: this package never touches binary
    floating point).
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value: Fraction) -> str:
    """Canonical ``p/q`` text; denominator 1 prints as a bare integer.

    Digits go through ``Decimal``, which is exact for integers and not
    subject to CPython's int-to-str digit limit, so values of any size print.
    """
    num = str(Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{Decimal(value.denominator)}"
