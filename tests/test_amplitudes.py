"""The stored amplitude is (n i) F_n: n times the tabulated winding-n value."""

from fractions import Fraction

import pytest

from conifold.amplitudes import (
    closed_string_logZ,
    genus0_onepoint,
    genus_expand,
    onepoint_closed,
    onepoint_partition_sum,
)
from conifold.fock import beta_neg_exp, brane_state, oracle_onepoint, qpoly
from conifold.laurent import RFU_ONE, LaurentU, RationalFunctionU, qbracket
from conifold.series import TruncatedSeries


def brackets(num_args, den_args, scalar=1):
    num = LaurentU({0: scalar})
    for d in num_args:
        num = num * qbracket(d)
    # [-d] = -[d]: the sign of a negative denominator argument moves to the numerator
    for d in den_args:
        num = -num if d < 0 else num
    return RationalFunctionU(num, [abs(d) for d in den_args])


def state_through(n):
    """The brane state through winding n, truncated at Q^n."""
    return beta_neg_exp(brane_state(n, n), n, n)


def test_winding_one_table():
    # tabulated: F_1 = 1/[1] + Q/[1]; stored value carries the factor n = 1
    expected = qpoly({0: brackets((), (1,)), 1: brackets((), (1,))}, 1)
    for a in (-3, -1, 0, 2):
        assert onepoint_closed(a, 1) == expected


def test_winding_two_general_framing_table():
    # tabulated: (1/4)(-1/[2] + Q^2/[2]) [4(a+1)]/[2(a+1)] + (1/4)(1/[1]+Q/[1])^2 [2(a+1)]
    for a in (0, 1, 2, -2, -3):
        base = (
            qpoly({0: brackets((4 * (a + 1),), (2, 2 * (a + 1)), -1),
                   2: brackets((4 * (a + 1),), (2, 2 * (a + 1)))}, 2).scale(Fraction(1, 4))
            + (qpoly({0: brackets((), (1,)), 1: brackets((), (1,))}, 2) ** 2).scale(
                Fraction(1, 4)
            ) * brackets((2 * (a + 1),), ())
        )
        assert onepoint_closed(a, 2) == base.scale(Fraction(2)), a


def test_zero_framing_table_n3():
    # tabulated: 1/(3[3]) + [3]Q/(3[1]^2) + [3][4]Q^2/(3[1]^2[2]) + [4][5]Q^3/(3[1][2][3])
    expected = qpoly(
        {
            0: brackets((), (3,), Fraction(1, 3)),
            1: brackets((3,), (1, 1), Fraction(1, 3)),
            2: brackets((3, 4), (1, 1, 2), Fraction(1, 3)),
            3: brackets((4, 5), (1, 2, 3), Fraction(1, 3)),
        },
        3,
    ).scale(Fraction(3))
    assert onepoint_closed(0, 3) == expected


def test_framing_one_table_n2():
    # tabulated x^2 coefficient: [3]/([2][1]) - [4] e^{-t}/[1]^2 + [5] e^{-2t}/([2][1]),
    # i.e. with Q = -e^{-t}:  [3]/([2][1]) + [4] Q /[1]^2 + [5] Q^2/([2][1])
    expected = qpoly(
        {
            0: brackets((3,), (1, 2)),
            1: brackets((4,), (1, 1)),
            2: brackets((5,), (1, 2)),
        },
        2,
    )
    assert onepoint_closed(1, 2) == expected


def test_framing_minus_one_degenerates():
    # ((-1)^{n-1} + Q^n)/[n]: the degenerate value of both routes at a = -1
    for n in range(1, 7):
        expected = qpoly(
            {0: brackets((), (n,), Fraction((-1) ** (n - 1))),
             n: brackets((), (n,))},
            n,
        )
        assert onepoint_closed(-1, n) == expected
        assert onepoint_partition_sum(-1, n, state_through(n)) == expected


def test_partition_sum_equals_closed_form():
    state = state_through(5)
    for a in range(-3, 4):
        for n in range(1, 6):
            assert onepoint_partition_sum(a, n, state) == onepoint_closed(a, n), (a, n)


def test_triple_equality_with_oracle_small():
    state = state_through(4)
    for a in (-2, 0, 1):
        for n in range(1, 5):
            closed = onepoint_closed(a, n)
            assert closed == onepoint_partition_sum(a, n, state)
            assert closed == oracle_onepoint(a, n, state)


def test_invalid_winding():
    with pytest.raises(ValueError):
        onepoint_closed(0, 0)
    with pytest.raises(ValueError):
        onepoint_partition_sum(0, 0, state_through(1))
    # a state that stops below the winding has no p_n coefficient to read
    with pytest.raises(ValueError):
        onepoint_partition_sum(0, 3, state_through(2))
    with pytest.raises(ValueError):
        oracle_onepoint(0, 3, state_through(2))


# -- genus zero ------------------------------------------------------------------


def qpoly_fractions(d, order):
    return TruncatedSeries(("Q",), (order,), {(j,): Fraction(c) for j, c in d.items()})


def test_genus0_printed_polynomials():
    assert genus0_onepoint(0, 1) == qpoly_fractions({0: -1, 1: -1}, 1)
    assert genus0_onepoint(0, 2) == qpoly_fractions(
        {0: Fraction(-1, 4), 1: -1, 2: Fraction(-3, 4)}, 2)
    assert genus0_onepoint(0, 3) == qpoly_fractions(
        {0: Fraction(-1, 9), 1: -1, 2: -2, 3: Fraction(-10, 9)}, 3)
    assert genus0_onepoint(0, 4) == qpoly_fractions(
        {0: Fraction(-1, 16), 1: -1, 2: Fraction(-60, 16), 3: -5, 4: Fraction(-35, 16)}, 4)
    assert genus0_onepoint(0, 5) == qpoly_fractions(
        {0: Fraction(-1, 25), 1: -1, 2: -6, 3: -14, 4: -14, 5: Fraction(-126, 25)}, 5)


def test_genus0_general_framing_quadratic_and_cubic():
    for a in (-3, -1, 0, 1, 2):
        assert genus0_onepoint(a, 2) == qpoly_fractions(
            {0: Fraction(-(2 * a + 1), 4), 1: -(a + 1), 2: Fraction(-(2 * a + 3), 4)}, 2)
        assert genus0_onepoint(a, 3) == qpoly_fractions(
            {
                0: Fraction(-(2 + 9 * a * (a + 1)), 18),
                1: Fraction(-(a + 1) * (3 * a + 2), 2),
                2: Fraction(-(a + 1) * (3 * a + 4), 2),
                3: Fraction(-(2 + 9 * (a + 1) * (a + 2)), 18),
            },
            3,
        ), a


# -- closed string ------------------------------------------------------------------


def test_closed_string_logZ():
    s = closed_string_logZ(2)
    assert s.scalar_coefficient((1,)) == brackets((), (1, 1))
    assert s.scalar_coefficient((2,)) == brackets((), (2, 2), Fraction(-1, 2))
    with pytest.raises(ValueError):
        closed_string_logZ(0)


# -- genus expansion ------------------------------------------------------------------


def test_genus_expand_leading_pole_matches_genus0():
    for a in (-2, 0, 1, 3):
        for n in range(1, 6):
            g = genus_expand(onepoint_closed(a, n), n, 2)
            psi = genus0_onepoint(a, n)
            for j in range(n + 1):
                lead = g.scalar_coefficient((j, -1))
                expect = psi.scalar_coefficient((j,))
                assert lead == expect, (a, n, j)


def test_genus_expand_winding_one_by_hand():
    # F_1 = (1+Q)/(i [1]): the lambda^{-1} coefficient is -(1+Q)
    g = genus_expand(onepoint_closed(0, 1), 1, 1)
    assert g.scalar_coefficient((0, -1)) == Fraction(-1)
    assert g.scalar_coefficient((1, -1)) == Fraction(-1)


def test_genus_expand_odd_powers_only():
    for a in (-1, 0, 2):
        for n in (1, 2, 3):
            g = genus_expand(onepoint_closed(a, n), n, 3)
            assert all(e % 2 == 1 for (_, e) in g.terms), (a, n)


def test_genus_expand_rejects_even_hbar_power():
    # a constant F_hat = 1 is hbar^0, whose lambda^0 coefficient 1/(n i) is imaginary
    with pytest.raises(ArithmeticError):
        genus_expand(qpoly({0: RFU_ONE}, 1), 1, 1)


def test_bar_antisymmetry_of_amplitudes():
    # u -> u^{-1} flips every bracket, giving exactly one net sign
    for a in (-2, 0, 1):
        for n in range(1, 5):
            value = onepoint_closed(a, n)
            flipped = TruncatedSeries(value.variables, value.orders, {e: c.bar() for e, c in value.terms.items()}, value.one)
            assert flipped == -value, (a, n)
