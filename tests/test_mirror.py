from fractions import Fraction
from math import factorial, prod

import pytest

from conifold.amplitudes import binomial, genus0_coefficient
from conifold.mirror import (
    framed_curve_check,
    framing_transform_check,
    lagrange_log_y,
    lagrange_z0,
    quantum_classical_limit,
    quantum_mirror_check,
    quantum_mirror_series,
    xdx_potential,
    y_from_amplitude,
    zero_framing_curve_check,
)
from conifold.series import TruncatedSeries

VARS = ("x", "E")


def test_y_leading_terms():
    y = y_from_amplitude(0, 3)
    # y = 1 - (1+Q) x + O(x^2) = 1 - x + E x + ...
    assert y.scalar_coefficient((0, 0)) == 1
    assert y.scalar_coefficient((1, 0)) == -1
    assert y.scalar_coefficient((1, 1)) == 1


def test_y_at_E_zero_is_geometric():
    # with the internal modulus switched off the potential is log(1-x),
    # so the E^0 column of y is exactly 1 - x at every order
    y = y_from_amplitude(0, 10)
    for n in range(11):
        expected = {0: 1, 1: -1}.get(n, 0)
        assert y.scalar_coefficient((n, 0)) == expected


def test_y_constant_term_is_one():
    for a in (-3, -1, 0, 2):
        assert y_from_amplitude(a, 4).scalar_coefficient((0, 0)) == 1


def test_zero_framing_residual_vanishes():
    for order in (5, 12):
        residuals = zero_framing_curve_check(order)
        assert list(residuals) == ["log y", "curve"]
        assert not any(residuals.values()), order


def test_binomial_is_the_falling_factorial_over_r_factorial():
    # every integer x, with the zero window 0 <= x < r where a factor x - k vanishes
    for x in range(-12, 13):
        for r in range(9):
            assert binomial(x, r) == Fraction(prod(range(x - r + 1, x + 1)), factorial(r)), (x, r)
        # no r-subset for r < 0, as Lagrange-Buermann's C(x, i - 1) reads at i = 0
        assert binomial(x, -1) == binomial(x, -3) == 0


def test_lagrange_log_y_is_n_squared_times_the_genus0_coefficient():
    # n [x^n E^i] log y = n^2 (-1)^i [Q^i] genus0_onepoint(a, n), framing -1 included
    for a in range(-6, 7):
        for n in range(1, 30):
            for i in range(n + 1):
                assert lagrange_log_y(a, n, i) == n * n * (-1) ** i * genus0_coefficient(a, n, i), (a, n, i)


def test_lagrange_z0_leading_terms():
    for a in (0, 1, 2, -2):
        z0 = lagrange_z0(a, 3)
        assert z0.scalar_coefficient((1, 0)) == 1
        # (a+1)(1+Q) x^2 with Q = -E
        assert z0.scalar_coefficient((2, 0)) == a + 1
        assert z0.scalar_coefficient((2, 1)) == -(a + 1)


def test_lagrange_z0_at_Q_zero_framing_zero():
    # inverting x = z/(1+z) gives the geometric series
    z0 = lagrange_z0(0, 7)
    for n in range(1, 8):
        assert z0.scalar_coefficient((n, 0)) == 1


def test_lagrange_defining_identity():
    for a, N in ((0, 8), (2, 6), (-2, 6), (3, 5), (-1, 6)):
        z0 = lagrange_z0(a, N)
        one = TruncatedSeries(VARS, (N, N), {(0, 0): Fraction(1)})
        x = TruncatedSeries.variable("x", VARS, (N, N))
        e = TruncatedSeries.variable("E", VARS, (N, N))
        # z0 (1 - Q z0)^{a+1} - x (1 + z0)^{a+1} = 0 with Q = -E
        residual = z0 * (one + e * z0) ** (a + 1) - x * (one + z0) ** (a + 1)
        assert not residual, a


def test_framing_minus_one_is_an_ordinary_framing():
    # w = a + 1 = 0 turns x = z (1 - Q z)^w / (1 + z)^w into x = z, so z0 = x
    for order in range(1, 9):
        assert lagrange_z0(-1, order) == TruncatedSeries.variable("x", VARS, (order, order))
        assert not any(framed_curve_check(-1, order).values()), order


def test_curve_checks_refuse_an_order_below_one():
    # an empty box would hold three empty residuals, which pass on nothing
    for order in (0, -1):
        for a in range(-3, 4):
            with pytest.raises(ValueError, match="order must be positive"):
                framed_curve_check(a, order)
        for check in (zero_framing_curve_check, lambda order: y_from_amplitude(0, order)):
            with pytest.raises(ValueError, match="order must be positive"):
                check(order)


def test_framed_residual_vanishes():
    for a in (-4, -3, -2, 0, 1, 2, 3):
        residuals = framed_curve_check(a, 6)
        assert list(residuals) == ["log y", "z0", "curve"]
        assert not any(residuals.values()), a


def test_framed_curve_reduces_to_zero_framing():
    # at a = 0 the two pipelines build the same branch
    assert y_from_amplitude(0, 8) == (
        lambda z0, one, e: (one + e * z0) * (one + z0).inverse()
    )(
        lagrange_z0(0, 8),
        TruncatedSeries(VARS, (8, 8), {(0, 0): Fraction(1)}),
        TruncatedSeries.variable("E", VARS, (8, 8)),
    )


def test_exp_potential_equals_lagrange_branch():
    for a in (-3, -2, 1, 2):
        N = 6
        one = TruncatedSeries(VARS, (N, N), {(0, 0): Fraction(1)})
        e = TruncatedSeries.variable("E", VARS, (N, N))
        z0 = lagrange_z0(a, N)
        branch = (one + e * z0) * (one + z0).inverse()
        assert y_from_amplitude(a, N) == branch, a
        # the reciprocal orientation solves nothing (branch convention note)
        assert y_from_amplitude(a, N) != (one + z0) * (one + e * z0).inverse()


def test_z0_from_branch():
    for a in (0, 1, -2):
        N = 6
        x = TruncatedSeries.variable("x", VARS, (N, N))
        y = y_from_amplitude(a, N)
        assert x * y ** (-(a + 1)) == lagrange_z0(a, N), a


def test_log_identity_first_order():
    # x d/dx Psi_0 = -(1+Q) x + O(x^2) = (-1 + E) x + ...
    s = xdx_potential(1, 3)
    assert s.scalar_coefficient((1, 0)) == -1
    assert s.scalar_coefficient((1, 1)) == 1


def test_framing_transform():
    for a in (-4, -3, -2, -1, 0, 1, 2, 3):
        assert framing_transform_check(a), a


def test_quantum_mirror_series_shape():
    s = quantum_mirror_series(0, 3)
    # y(lambda; t; 0) = 1
    assert s.scalar_coefficient((0, 0, 0)) == 1
    assert all(k <= n for (n, _, k) in s.terms), "marker degree bounded by x degree"


def test_quantum_classical_limit_x_coefficient():
    # the x-coefficient of the exponent is w (1+Q)/[1]; its limit is -(1+Q)
    s = quantum_mirror_series(0, 2)
    limit = quantum_classical_limit(s, 2)
    assert limit.scalar_coefficient((1, 0)) == -1  # -(1) with Q = -E
    assert limit.scalar_coefficient((1, 1)) == 1


def test_quantum_mirror_matches_classical():
    for a in (0, 1):
        assert quantum_mirror_check(a, 4), a
