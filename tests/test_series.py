from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold.laurent import RFU_ONE, LaurentU, RationalFunctionU, qbracket
from conifold.series import TruncatedSeries, hbar_expand, series_reversion

X = ("x",)


def xs(order):
    return TruncatedSeries.variable("x", X, (order,))


def one(order):
    return TruncatedSeries.constant(Fraction(1), X, (order,))


# -- the product kernel ---------------------------------------------------------
# `TruncatedSeries.__mul__` skips the pairs outside the truncation box and
# multiplies rational coefficients as integers over a common denominator.  The
# double loop it replaced is kept here as the reference: every pair is formed,
# the box test drops the ones outside, and each coefficient is multiplied in its
# own ring.  The products must have equal terms, and for all-int and
# all-Fraction operands the same coefficient types (JSON renders 2 and
# Fraction(2) differently).


def _reference_mul(self, other):
    self._compatible(other)
    orders = self.orders
    out: dict[tuple, object] = {}
    for ea, ca in self.terms.items():
        for eb, cb in other.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > o for x, o in zip(e, orders)):
                continue
            p = ca * cb
            if not p:
                continue
            s = out.get(e)
            s = p if s is None else s + p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return TruncatedSeries(self.variables, orders, out, self.one)


def assert_same_product(s, t):
    got, ref = s * t, _reference_mul(s, t)
    assert got.terms == ref.terms, (s, t)
    return got, ref


_COEFFS = {
    "int": [1, -1, 2, -2, 3],
    "fraction": [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)],
}
_COEFFS["mixed"] = _COEFFS["int"] + _COEFFS["fraction"]


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 3))
    variables = ("x", "E", "Q")[:n]
    orders = tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    # exponents run up to the order, so many pairs land exactly on the box edge
    exponents = st.tuples(*(st.integers(-2, o) for o in orders))
    operands = []
    for _ in range(2):
        kind = draw(st.sampled_from(sorted(_COEFFS)))
        terms = draw(st.dictionaries(exponents, st.sampled_from(_COEFFS[kind]), max_size=8))
        operands.append((kind, TruncatedSeries(variables, orders, terms)))
    if draw(st.booleans()):
        # s(x) * s(-x): every term of odd x-degree cancels in pairs
        kind, s = operands[0]
        flipped = {e: -c if e[0] % 2 else c for e, c in s.terms.items()}
        operands[1] = kind, TruncatedSeries(variables, orders, flipped)
    return operands


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_mul_matches_reference(operands):
    (kind_a, s), (kind_b, t) = operands
    got, ref = assert_same_product(s, t)
    if "mixed" not in (kind_a, kind_b):
        assert {e: type(c) for e, c in got.terms.items()} == {e: type(c) for e, c in ref.terms.items()}


def test_mul_coefficient_types():
    vars_ = ("x", "E")
    ints = TruncatedSeries(vars_, (3, 2), {(0, 0): 2, (1, 0): -1, (0, 1): 1})
    fracs = ints.map_coefficients(Fraction)
    for s, t, kind in ((ints, ints, int), (fracs, fracs, Fraction), (ints, fracs, Fraction)):
        got, _ = assert_same_product(s, t)
        assert got.terms and all(type(c) is kind for c in got.terms.values())


def test_mul_over_bracket_ring_matches_reference():
    vars_ = ("Q", "x")
    orders = (3, 2)

    def rf(n, d):
        return RationalFunctionU(qbracket(n), qbracket(d))

    s = TruncatedSeries(vars_, orders, {(0, 0): RFU_ONE, (1, 0): rf(2, 1), (0, 1): rf(1, 3), (2, 1): rf(3, 2)}, RFU_ONE)
    t = TruncatedSeries(vars_, orders, {(1, 0): -rf(2, 1), (1, 1): rf(1, 1), (3, 2): rf(4, 1), (0, 2): RFU_ONE}, RFU_ONE)
    for a, b in ((s, t), (t, s), (s, s)):
        got, ref = assert_same_product(a, b)
        # the same numerator and denominator pairs, not only canonical equality
        for e, c in ref.terms.items():
            assert (got.terms[e].num, got.terms[e].den) == (c.num, c.den), e


def test_mul_in_hbar_frame_matches_reference():
    # Laurent series in hbar with poles: negative exponents on both sides
    order = 5
    pole = hbar_expand(RationalFunctionU(LaurentU.const(1), qbracket(1) ** 2), order)
    sine = hbar_expand(RationalFunctionU(qbracket(2)), order)
    ratio = hbar_expand(RationalFunctionU(qbracket(3), qbracket(1) * qbracket(2)), order)
    assert pole.has_negative_exponents() and ratio.has_negative_exponents()
    for a, b in ((pole, sine), (pole, pole), (ratio, pole), (sine, ratio)):
        assert_same_product(a, b)
    # 1/[1]^2 * [1]^2 = 1 up to truncation: the hbar^6 term of [1]^2, cut at
    # the order, would meet the hbar^-2 pole at hbar^4 = hbar^(order - 1)
    square = hbar_expand(RationalFunctionU(qbracket(1) ** 2), order)
    exact = {e: c for e, c in (pole * square).terms.items() if e[0] < order - 1}
    assert exact == {(0,): Fraction(1)}


def test_mul_truncates():
    x = xs(3)
    assert (x ** 3) * x == TruncatedSeries.zero(X, (3,))
    assert (1 + x) * (1 - x) == 1 - x ** 2


def test_inverse_geometric():
    x = xs(6)
    inv = (one(6) - x).inverse()
    assert inv == sum((x ** k for k in range(1, 7)), one(6))


def test_log_exp_round_trip():
    x = xs(8)
    s = one(8) + x
    assert one(8).log().is_zero()
    assert s.log().exp() == s
    assert (x - x ** 3).exp().log() == x - x ** 3


def test_sqrt():
    x = xs(7)
    s = one(7) + x
    r = s.sqrt()
    assert r * r == s
    with pytest.raises(ValueError):
        x.sqrt()


def test_log_exp_reject_wrong_constant_term():
    x = xs(4)
    with pytest.raises(ValueError):
        x.log()  # constant term 0, not 1
    with pytest.raises(ValueError):
        (one(4) + x).exp()  # constant term 1, not 0
    with pytest.raises(ValueError):
        (x * x).inverse()


def test_half_sqrt_log_coefficients():
    # ln(1/2 + sqrt(1+t^2)/2): coefficient of t^{2j} is -(-1)^j (2j-1)!/(j! j! 2^{2j})
    N = 12
    t = xs(N)
    inner = (one(N) + t * t).sqrt()
    s = (one(N) + inner).scale(Fraction(1, 2)).log()
    for j in range(1, N // 2 + 1):
        expected = -Fraction((-1) ** j * factorial(2 * j - 1), factorial(j) ** 2 * 2 ** (2 * j))
        assert s.scalar_coefficient((2 * j,)) == expected
    for e in range(1, N + 1, 2):
        assert not s.scalar_coefficient((e,))


def test_inverse_integer_constant_term():
    # the Fraction ring keeps int coefficients as given
    s = TruncatedSeries(X, (3,), {(0,): 2, (1,): 1})
    inv = s.inverse()
    assert s * inv == one(3)
    assert inv.terms == {(0,): Fraction(1, 2), (1,): Fraction(-1, 4), (2,): Fraction(1, 8), (3,): Fraction(-1, 16)}
    assert all(isinstance(c, Fraction) for c in inv.terms.values())


def test_functional_operations_two_variables():
    # powers of w = x + E survive past max(orders) = 4, up to total degree 7
    vars_ = ("x", "E")
    orders = (4, 3)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    unit = TruncatedSeries.constant(Fraction(1), vars_, orders)
    s = Fraction(3, 2) + x - 2 * e + x * e * e
    assert s * s.inverse() == unit
    t = unit + x + e - Fraction(1, 3) * x * e
    assert t.log().exp() == t
    assert t.sqrt() ** 2 == t
    assert (x + e).exp().scalar_coefficient((4, 3)) == Fraction(1, factorial(4) * factorial(3))


def test_functional_operations_over_bracket_ring():
    vars_ = ("Q",)
    orders = (4,)
    q = TruncatedSeries.variable("Q", vars_, orders, one=RFU_ONE)
    unit = TruncatedSeries.constant(RFU_ONE, vars_, orders, one=RFU_ONE)
    c0 = RationalFunctionU(qbracket(2), qbracket(1))
    c1 = RationalFunctionU(qbracket(1), qbracket(3))
    s = TruncatedSeries.constant(c0, vars_, orders, one=RFU_ONE) + q * c1 + q * q
    assert s * s.inverse() == unit
    assert s.inverse().scalar_coefficient((0,)) == RationalFunctionU(qbracket(1), qbracket(2))
    f = q * c1
    ef = f.exp()
    for k in range(orders[0] + 1):
        assert ef.scalar_coefficient((k,)) == c1 ** k * Fraction(1, factorial(k))
    assert ef.log() == f


@pytest.mark.parametrize("op", ["inverse", "log", "exp", "sqrt"])
def test_functional_operations_reject_negative_exponents(op):
    constant = Fraction(0) if op == "exp" else Fraction(1)
    s = TruncatedSeries(X, (3,), {(0,): constant, (-1,): Fraction(1), (1,): Fraction(1)})
    with pytest.raises(ValueError, match="nonnegative exponents"):
        getattr(s, op)()


def test_reversion_identity_and_geometric():
    x = xs(5)
    assert series_reversion(x) == x
    s = x * (one(5) + x).inverse()  # z/(1+z)
    t = series_reversion(s)
    assert t == sum((x ** k for k in range(1, 6)), TruncatedSeries.zero(X, (5,)))


def test_reversion_round_trip_two_variables():
    vars_ = ("x", "Q")
    orders = (6, 6)
    x = TruncatedSeries.variable("x", vars_, orders)
    q = TruncatedSeries.variable("Q", vars_, orders)
    s = x - 2 * q * x ** 2 + (q * q + 1) * x ** 3
    t = series_reversion(s, "x")
    assert s.substitute("x", t) == x
    assert t.substitute("x", s) == x


def test_reversion_rejects_bad_input():
    x = xs(4)
    with pytest.raises(ValueError):
        series_reversion(one(4) + x)
    with pytest.raises(ValueError):
        series_reversion(x * x)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=Fraction(-3), max_value=Fraction(3), max_denominator=3),
                min_size=0, max_size=4))
def test_reversion_round_trip_random(coeffs):
    N = 6
    x = xs(N)
    s = x
    for k, c in enumerate(coeffs, start=2):
        s = s + x ** k * c
    t = series_reversion(s)
    assert s.substitute("x", t) == x
    assert t.substitute("x", s) == x


def test_substitute_and_xdx():
    vars_ = ("x", "E")
    orders = (4, 4)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    s = 1 + x * e + x ** 2
    assert s.substitute("x", x + e) == 1 + (x + e) * e + (x + e) ** 2
    assert s.xdx("x") == x * e + 2 * x ** 2


# -- expansions in the string coupling ----------------------------------------
# hbar = i*lambda, so each hbar^k coefficient is i^{-k} times the lambda^k one.


def test_lambda_expand_bracket():
    # [1] = 2 sinh(hbar/2) = hbar + hbar^3/24 + O(hbar^5)
    s = hbar_expand(RationalFunctionU(qbracket(1)), 4)
    assert s.scalar_coefficient((1,)) == Fraction(1)
    assert s.scalar_coefficient((3,)) == Fraction(1, 24)
    assert not s.scalar_coefficient((0,))
    assert not s.scalar_coefficient((2,))


def test_lambda_expand_ratio_constant_term():
    for n in range(1, 6):
        s = hbar_expand(RationalFunctionU(qbracket(n), qbracket(1)), 0)
        assert s.scalar_coefficient((0,)) == Fraction(n)


def test_lambda_expand_double_pole():
    s = hbar_expand(RationalFunctionU(LaurentU.const(1), qbracket(1) ** 2), 2)
    assert s.scalar_coefficient((-2,)) == Fraction(1)
    assert s.scalar_coefficient((0,)) == Fraction(-1, 12)
    assert not s.scalar_coefficient((-1,))


def test_lambda_expand_sine_series_identity():
    # [n] expands exactly as 2 sinh(n hbar / 2), term by term
    order = 9
    for n in range(1, 6):
        s = hbar_expand(RationalFunctionU(qbracket(n)), order)
        for e in range(-1, order + 1):
            if e >= 1 and e % 2 == 1:
                expected = 2 * Fraction(Fraction(n, 2) ** e, factorial(e))
            else:
                expected = Fraction(0)
            assert s.scalar_coefficient((e,)) == expected, (n, e)


def test_lambda_expand_zero_and_errors():
    assert hbar_expand(RationalFunctionU(0), 3).is_zero()
