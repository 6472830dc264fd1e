"""Shared serialization for exact values.

JSON forms:
  float             its repr, as a string (the lossy --numeric view)
  Fraction          "p/q" (or "p" when the denominator is 1)
  LaurentU          [[exponent, "p/q"], ...] sorted by exponent
  RationalFunctionU {"num": <laurent>, "den": <laurent>} in canonical form
  TruncatedSeries   {"variables": [...], "orders": [...], "terms": [[[e...], coeff], ...]}

Text forms are the pretty printers of the types themselves; they contain no
commas, so CSV output needs no quoting.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentU, RationalFunctionU
from .series import TruncatedSeries

FORMAT_VERSION = 1


def jsonable(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, LaurentU):
        return [[e, str(c)] for e, c in sorted(value.terms.items())]
    if isinstance(value, RationalFunctionU):
        num, den = value.canonical()
        return {"num": jsonable(num), "den": jsonable(den)}
    if isinstance(value, TruncatedSeries):
        return {
            "variables": list(value.variables),
            "orders": list(value.orders),
            "terms": [[list(e), jsonable(c)] for e, c in sorted(value.terms.items())],
        }
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


def text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
