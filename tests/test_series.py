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
