"""Helpers for exact rationals on the CLI boundary.

All arithmetic in this package runs on ``fractions.Fraction``, which already
guarantees the canonical form we need: positive denominator, gcd-reduced,
structural equality.
"""

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
    """Canonical ``p/q`` text; denominator 1 prints as a bare integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
