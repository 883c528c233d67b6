"""Helpers for exact rationals on the CLI boundary.

Values cross it as ``fractions.Fraction``, whose canonical form is the one
we need: positive denominator, gcd-reduced, structural equality.  Inside,
series and the log routes run on integer numerators over one denominator.
"""

import sys
from decimal import Decimal
from fractions import Fraction


def digit_limit_error(digits: int) -> str | None:
    """The error for an integer literal of this many decimal digits if it is
    over CPython's int-to-str digit limit, else None.  (int() itself asks
    for sys.set_int_max_str_digits(); Pythons before 3.10.7 have no limit.)
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        return f"integer of {digits} digits is over the limit of {limit} digits"
    return None


def parse_int(text: str) -> int:
    """int(text) for ASCII text without ``_``, as the lexer reads literals,
    with the digit-count error over the digit limit."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    try:
        return int(text)
    except ValueError:
        if error := digit_limit_error(sum(ch.isdecimal() for ch in text)):
            raise ValueError(error) from None
        raise


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into a Fraction.

    Raises ValueError on anything else, including a zero denominator
    (floats are deliberately rejected: this package never touches binary
    floating point).
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if (q := parse_int(den)) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(parse_int(num), q)
    return Fraction(parse_int(text))


def format_rational(value: Fraction) -> str:
    """Canonical ``p/q`` text; denominator 1 prints as a bare integer.

    Digits go through ``Decimal``, which is exact for integers and not
    subject to CPython's int-to-str digit limit, so values of any size print.
    """
    num = str(Decimal(value.numerator))
    if value.denominator == 1:
        return num
    return f"{num}/{Decimal(value.denominator)}"
