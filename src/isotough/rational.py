"""Exact rational values with a positive-infinity sentinel.

Finite values are stdlib fractions (always gcd-reduced); INFINITY is the
IEEE infinity, which CPython orders exactly against any Fraction.  The pair
covers every value the toughness routines can produce, including 0 and the
"no qualifying deletion set" case.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import GraphParseError

INFINITY = math.inf

Ratio = Union[Fraction, float]


def format_ratio(value: Ratio) -> str:
    """Render as "p/q" (always with an explicit denominator) or "inf".

    -inf raises OverflowError and NaN ValueError, as Fraction would.
    """
    try:
        numerator, denominator = value.as_integer_ratio()
    except OverflowError:
        if value == INFINITY:
            return "inf"
        raise
    return f"{numerator}/{denominator}"


# Bound by perfbench/workloads.py; the package itself parses no ratio.
def parse_ratio(text: str) -> Ratio:
    """Inverse of format_ratio; also accepts bare integers."""
    stripped = text.strip()
    if stripped == "inf":
        return INFINITY
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise GraphParseError(f"not a rational value: {text!r}") from exc
