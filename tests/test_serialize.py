"""The one-pass JSON writer against json.dumps of the former jsonable tree."""

import ast
import json
import sys
import tracemalloc
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold import cli
from conifold.laurent import RFU_ONE, LaurentU, RationalFunctionU, bracket_product
from conifold.serialize import _quote, json_table, json_text
from conifold.series import TruncatedSeries


def _reference_jsonable(value):
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
        # the printed pair is the stored value, by cross-multiplication
        assert num * bracket_product(value.den) == value.num * den
        return {"num": _reference_jsonable(num), "den": _reference_jsonable(den)}
    if isinstance(value, TruncatedSeries):
        return {
            "variables": list(value.variables),
            "orders": list(value.orders),
            "terms": [[list(e), _reference_jsonable(c)] for e, c in sorted(value.terms.items())],
        }
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _reference_form(value):
    """The JSON form as documents were built before: dicts around jsonable values."""
    if isinstance(value, dict):
        return {k: _reference_form(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_form(v) for v in value]
    return _reference_jsonable(value)


def _reference_text(value) -> str:
    return json.dumps(_reference_form(value), sort_keys=True, indent=2)


strings = st.text(st.one_of(st.characters(exclude_categories=("Cs",)), st.sampled_from('"\\/\x00\x1f\x7f\n\té€ 😀')))
fractions = st.fractions(max_denominator=10**6).map(lambda f: f * 10**30 if f.denominator == 1 else f)
laurents = st.dictionaries(st.integers(-8, 8), st.fractions(max_denominator=30), max_size=6).map(LaurentU)
rational_functions = st.builds(RationalFunctionU, laurents, st.lists(st.integers(1, 6), max_size=3))


@st.composite
def series(draw):
    nvars = draw(st.integers(1, 2))
    variables = ("Q", "x")[:nvars]
    orders = tuple(draw(st.integers(0, 3)) for _ in variables)
    exponents = st.tuples(*(st.integers(0, o) for o in orders))
    if draw(st.booleans()):
        return TruncatedSeries(variables, orders, draw(st.dictionaries(exponents, fractions, max_size=5)))
    return TruncatedSeries(variables, orders, draw(st.dictionaries(exponents, rational_functions, max_size=3)), RFU_ONE)


ints = st.integers(-10**40, 10**40)
# a list or tuple of plain ints is written with one join; a bool among ints is not a plain int
int_sequences = st.one_of(
    st.lists(ints, max_size=5),
    st.lists(ints, max_size=5).map(tuple),
    st.lists(st.one_of(ints, st.booleans()), min_size=1, max_size=5),
    st.lists(st.one_of(ints, st.booleans()), min_size=1, max_size=5).map(tuple),
)
scalars = st.one_of(
    ints,
    st.booleans(),
    st.none(),
    strings,
    fractions,
    st.floats(),
    laurents,
    rational_functions,
    series(),
)
documents = st.recursive(
    st.one_of(scalars, int_sequences),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(strings, inner, max_size=4),
    ),
    max_leaves=12,
)


def _strings(doc):
    """Every key and string value of a parsed JSON document."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield k
            yield from _strings(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _strings(v)
    elif isinstance(doc, str):
        yield doc


def test_quote_is_json_encode_basestring_ascii():
    # every ASCII character, each string literal of the package, and every key,
    # label and message of a document the CLI writes, a failure report among them
    ascii_ = [chr(c) for c in range(128)] + ["".join(map(chr, range(128)))]
    literals = [node.value for path in sorted(Path(cli.__file__).parent.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    written = []
    jobs = [[name, "--format", "json"] for name in cli.COMMANDS]
    jobs += [["mirror-check", "--framing", "-2", "--format", "json"], ["disc-d", "--framing", "1", "--m-max", "2"]]
    for argv in jobs:
        _, chunks = cli.run(cli.build_parser().parse_args(argv))
        written += _strings(json.loads("".join(chunks)))
    assert "verification-failure" in written and "framing transformation x -> x y^(2)" in written
    for s in ascii_ + literals + written:
        assert _quote(s) == encode_basestring_ascii(s), s


@settings(max_examples=150, deadline=None)
@given(documents)
def test_writer_matches_json_dumps_of_the_jsonable_tree(value):
    assert json_text(value) == _reference_text(value)


@pytest.mark.parametrize("value", [[], (), {}, [[], {}], {"a": []}, LaurentU(), [LaurentU()]], ids=repr)
def test_empty_containers(value):
    assert json_text(value) == _reference_text(value)


@pytest.mark.parametrize("value", [[[1, 2]], {"a": {"b": (3, -4)}}, [True, 1], (0, False), [[()], [[]]]], ids=repr)
def test_nested_int_sequences_and_bools_among_ints(value):
    assert json_text(value) == _reference_text(value)


def test_laurent_coefficients_come_from_content_times_poly():
    p = LaurentU({-3: Fraction(-4, 9), 0: Fraction(2, 3), 5: Fraction(8, 1)})
    assert json.loads(json_text(p)) == [[-3, "-4/9"], [0, "2/3"], [5, "8"]]


def test_rejects_values_without_a_json_form():
    with pytest.raises(TypeError):
        json_text({1, 2})
    with pytest.raises(TypeError):
        json_text({1: "non-string key"})


@pytest.mark.parametrize("count", [0, 1, 5])
def test_json_table_is_json_dumps_of_the_whole_document(count):
    rows = [{"n": n, "value": LaurentU({-n: Fraction(1, n + 1), n: 2}), "m": [n, 1], "ok": n % 2 == 0}
            for n in range(count)]
    meta = {"command": "x", "parameters": {"n_max": count}}
    chunks = json_table(iter(rows), meta)
    expected = json.dumps(_reference_form({"meta": dict(meta, format_version=1), "rows": rows}),
                          sort_keys=True, indent=2) + "\n"
    assert "".join(chunks) == expected


def test_emit_table_peak_memory_is_a_few_document_lengths():
    args = cli.build_parser().parse_args(["correlator", "--n-max", "6", "--format", "json"])
    meta = {"command": "correlator", "parameters": {"n_max": 6}}
    tracemalloc.start()
    try:
        # the rows are built inside the traced region: the writer holds text, not rows
        chunks = cli.emit_table(cli.COMMANDS["correlator"].rows(args), "json", meta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    length = sum(map(len, chunks))
    # building a jsonable copy and indenting it with json.dumps peaked at 10.2x;
    # keeping every row and then rendering the document read 4.8x, one string
    # per row 1.84x, and text blocks 1.55x
    assert peak <= 1.6 * length, peak / length


def test_a_table_is_held_in_about_its_own_length():
    status, chunks = cli.run(cli.build_parser().parse_args(["correlator", "--n-max", "6", "--format", "json"]))
    assert status == cli.EXIT_OK
    length = sum(map(len, chunks))
    held = sys.getsizeof(chunks) + sum(map(sys.getsizeof, {id(c): c for c in chunks}.values()))
    # one string per row held 1.31x the document length, text blocks 1.004x
    assert held <= 1.01 * length, held / length
