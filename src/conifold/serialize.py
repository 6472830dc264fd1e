"""Shared serialization for exact values.

JSON forms:
  float             its repr, as a string (the lossy --numeric view)
  Fraction          "p/q" (or "p" when the denominator is 1)
  LaurentU          [[exponent, "p/q"], ...] sorted by exponent
  RationalFunctionU {"num": <laurent>, "den": <laurent>} in canonical form
  TruncatedSeries   {"variables": [...], "orders": [...], "terms": [[[e...], coeff], ...]}

`json_text` writes a document of these forms, dicts with string keys, lists
and tuples in one pass; its output is byte for byte that of
json.dumps(<the JSON form>, sort_keys=True, indent=2).  `json_table` writes
a CLI table, {"meta": ..., "rows": [...]}, as chunks, one row at a time.

Text forms are the pretty printers of the types themselves.  Lists print
with commas, so `cli.emit_table` writes CSV with the `csv` module, which
quotes such cells.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import gcd

from .laurent import LaurentU, RationalFunctionU
from .series import TruncatedSeries

FORMAT_VERSION = 1


def _block(open_: str, items: list[str], close: str, indent: str) -> str:
    """The items of one container, one per line.

    The brackets go into the first and last items, so that the join is the
    only copy of the container's text.
    """
    if not items:
        return open_ + close
    inner = indent + "  "
    items[0] = open_ + "\n" + inner + items[0]
    items[-1] += "\n" + indent + close
    return (",\n" + inner).join(items)


def _laurent_text(p: LaurentU, indent: str) -> str:
    """[[e, "p/q"], ...] from content times the integer poly, one gcd per term."""
    inner = indent + "  "
    deeper = inner + "  "
    n, d = p.content.numerator, p.content.denominator
    items = []
    for e, v in sorted(p.poly.items()):
        g = gcd(v, d)
        c = f"{n * v // g}" if g == d else f"{n * v // g}/{d // g}"
        items.append(f'[\n{deeper}{e},\n{deeper}"{c}"\n{inner}]')
    return _block("[", items, "]", indent)


def json_text(value, indent: str = "") -> str:
    """json.dumps(<JSON form of value>, sort_keys=True, indent=2), without building that form.

    `indent` is the indentation of the line the value starts on.  Dict keys
    must be strings; tuples are written as lists.  Plain ints, bools and
    strings are told by their exact type, and a list of plain ints skips the
    per-item call; everything else goes down the isinstance chain.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is str:
        return _quote(value)
    if isinstance(value, dict):
        inner = indent + "  "
        items = [_quote(k) + ": " + json_text(value[k], inner) for k in sorted(value)]
        return _block("{", items, "}", indent)
    if isinstance(value, (list, tuple)):
        if all(type(v) is int for v in value):
            return _block("[", list(map(int.__repr__, value)), "]", indent)
        inner = indent + "  "
        return _block("[", [json_text(v, inner) for v in value], "]", indent)
    if value is None:
        return "null"
    if isinstance(value, float):
        return _quote(repr(value))
    if isinstance(value, Fraction):
        return '"' + str(value) + '"'
    if isinstance(value, LaurentU):
        return _laurent_text(value, indent)
    if isinstance(value, RationalFunctionU):
        num, den = value.canonical()
        return json_text({"num": num, "den": den}, indent)
    if isinstance(value, TruncatedSeries):
        doc = {"variables": value.variables, "orders": value.orders, "terms": sorted(value.terms.items())}
        return json_text(doc, indent)
    raise TypeError(f"no JSON form for {type(value).__name__}")


# a table row sits at the indentation of an item of "rows"
_ROW_INDENT = "    "
_FIRST_ROW = "\n" + _ROW_INDENT
_NEXT_ROW = ",\n" + _ROW_INDENT


def json_table(rows, meta: dict) -> list[str]:
    """Chunks whose concatenation is json_text({"meta": meta, "rows": rows}) + "\n",
    with format_version added to meta.

    Each row is written as it arrives, with shared separator strings between
    rows, so no row is kept.  `meta` is read after the last row, so the rows'
    iterable may still add to it; its chunk is written then and goes first.
    """
    chunks = [None]
    sep = _FIRST_ROW
    for row in rows:
        chunks += (sep, json_text(row, _ROW_INDENT))
        sep = _NEXT_ROW
    meta_text = json_text(dict(meta, format_version=FORMAT_VERSION), "  ")
    chunks[0] = '{\n  "meta": ' + meta_text + ',\n  "rows": ['
    chunks.append("]\n}\n" if sep is _FIRST_ROW else "\n  ]\n}\n")
    return chunks


def text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
