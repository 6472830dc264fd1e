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
a CLI table, {"meta": ..., "rows": [...]}, one row at a time into `Blocks`,
the text blocks every table format is held in until it is written.

Text forms are the pretty printers of the types themselves.  Lists print
with commas, so `cli.emit_table` quotes such cells when it writes CSV.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .laurent import LaurentU, RationalFunctionU
from .series import TruncatedSeries

FORMAT_VERSION = 1


# a table quotes the same few keys on every row
@lru_cache(maxsize=256)
def _quote(s: str) -> str:
    """json.encoder.encode_basestring_ascii(s).  `json` is imported only for a
    string that needs an escape, and no table the CLI writes holds one."""
    if type(s) is str and s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    from json.encoder import encode_basestring_ascii
    return encode_basestring_ascii(s)


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
        return '"' + repr(value) + '"'
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


# A table is held as text blocks of about BLOCK characters: each short
# rendered piece is joined into the block being filled, then dropped.  Blocks
# under malloc's 128 KiB mmap threshold reuse the heap that compiling the
# modules frees, which one string per row, in pymalloc's arenas, cannot.  A
# piece of a quarter block or more is held as it is: it is a malloc block
# already, and a copy would only fragment the heap.  Peak RSS, fresh processes
# without bytecode, 2-core host, Python 3.11.7: `correlator --n-max 6 --format
# json` (0.78 MB of 95-character rows) read 17.1-17.4 MB with one string per
# row, 16.2-16.4 MB with blocks of 4 or 16 KiB, 16.7-16.8 with 64 KiB and
# 17.4-17.6 with 256 KiB; `disc-d --m-max 160 --k-max 160 --framing 2 --format
# json` (1.96 MB, rows up to 16 KB) read 17.0 MB with one string per row, 18.2
# with every row copied into a block, and 17.0 with long pieces held.
BLOCK = 16 * 1024


class Blocks:
    """A document written piece by piece and held as text blocks: short pieces
    joined into blocks of about BLOCK characters, a long piece as it is.

    `chunks(*head)` returns head, then the blocks; their concatenation is the
    document.  So a header that depends on what the rows did is made after
    the last row and still goes first.
    """

    def __init__(self):
        self._blocks = []
        self._pieces = []
        self._size = 0

    def write(self, piece: str) -> None:
        if len(piece) >= BLOCK // 4:
            self._end_block()
            self._blocks.append(piece)
            return
        self._pieces.append(piece)
        self._size += len(piece)
        if self._size >= BLOCK:
            self._end_block()

    def _end_block(self) -> None:
        if self._pieces:
            self._blocks.append("".join(self._pieces))
            self._pieces = []
            self._size = 0

    def chunks(self, *head: str) -> list[str]:
        self._end_block()
        return [*head, *self._blocks]


# a table row sits at the indentation of an item of "rows"
_ROW_INDENT = "    "
_FIRST_ROW = "\n" + _ROW_INDENT
_NEXT_ROW = ",\n" + _ROW_INDENT


def json_table(rows, meta: dict) -> list[str]:
    """Chunks whose concatenation is json_text({"meta": meta, "rows": rows}) + "\n",
    with format_version added to meta.

    Each row is rendered as it arrives and joined into a text block, so no
    row is kept.  `meta` is read after the last row, so the rows' iterable
    may still add to it; its chunk is written then and goes first.
    """
    out = Blocks()
    sep = _FIRST_ROW
    for row in rows:
        out.write(sep)
        out.write(json_text(row, _ROW_INDENT))
        sep = _NEXT_ROW
    out.write("]\n}\n" if sep is _FIRST_ROW else "\n  ]\n}\n")
    meta_text = json_text(dict(meta, format_version=FORMAT_VERSION), "  ")
    return out.chunks('{\n  "meta": ' + meta_text + ',\n  "rows": [')


def text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)
