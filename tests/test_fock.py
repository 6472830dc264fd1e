import itertools
from fractions import Fraction

import pytest

from conifold.fock import (
    EWord,
    FockVector,
    beta_apply,
    beta_correlator_word,
    beta_neg_exp,
    brane_state,
    correlator_closed,
    correlator_reduce,
    cutjoin_apply,
    oracle_onepoint,
    qK_apply,
    qpoly,
    qpoly_one,
    schur_vector,
    vacuum,
)
from conifold.laurent import LaurentU, RFU_ZERO, RationalFunctionU, bracket_ratio, qbracket
from conifold.partitions import kappa, partitions_of


def const_weights(values, q_bound=0):
    return {n: qpoly({0: RationalFunctionU(c)}, q_bound) for n, c in values.items()}


def test_beta_neg_exp_vacuum():
    v = beta_neg_exp(const_weights({1: LaurentU(), 2: LaurentU()}), 2, 0)
    assert v == vacuum(2, 0)


def test_beta_neg_exp_exponential_series():
    v = beta_neg_exp(const_weights({1: LaurentU.const(1), 2: LaurentU()}), 2, 0)
    assert v.coefficient(()) == qpoly_one(0)
    assert v.coefficient((1,)) == qpoly_one(0)
    assert v.coefficient((1, 1)) == qpoly_one(0).scale(Fraction(1, 2))
    assert v.coefficient((2,)).is_zero()


def test_beta_neg_exp_brane_weights():
    # coefficient of p_2 with c_n = ((-1)^{n-1} + Q^n)/[n] is (-1 + Q^2)/(2 [2])
    v = beta_neg_exp(brane_state(2, 2), 2, 2)
    expected = qpoly(
        {0: RationalFunctionU(LaurentU.const(Fraction(-1, 2)), qbracket(2)),
         2: RationalFunctionU(LaurentU.const(Fraction(1, 2)), qbracket(2))},
        2,
    )
    assert v.coefficient((2,)) == expected


def test_cutjoin_kills_p1():
    v = FockVector(3, 0, {(1,): qpoly_one(0)})
    assert cutjoin_apply(v) == FockVector(3, 0, {})


def test_cutjoin_schur_eigenvectors():
    # K s_mu = (kappa_mu / 2) s_mu, checked through degree 6
    for n in range(1, 7):
        for mu in partitions_of(n):
            s = schur_vector(mu)
            assert cutjoin_apply(s) == s.scale(Fraction(kappa(mu), 2)), mu


def test_qK_fixes_vacuum_and_p1():
    v = vacuum(2, 0)
    assert qK_apply(v, 3) == v
    p1 = FockVector(2, 0, {(1,): qpoly_one(0)})
    assert qK_apply(p1, 5) == p1


def test_qK_on_p2():
    # p_2 = s_(2) - s_(11); twisting by u^{kappa} gives
    # (u^2 - u^-2)/2 p_1^2 + (u^2 + u^-2)/2 p_2
    p2 = FockVector(2, 0, {(2,): qpoly_one(0)})
    out = qK_apply(p2, 1)
    half = Fraction(1, 2)
    expected = FockVector(
        2,
        0,
        {
            (1, 1): qpoly({0: RationalFunctionU(LaurentU({2: half, -2: -half}))}, 0),
            (2,): qpoly({0: RationalFunctionU(LaurentU({2: half, -2: half}))}, 0),
        },
    )
    assert out == expected


def test_qK_is_multiplicative_on_schur():
    # applying the twist twice with f and -f is the identity
    v = beta_neg_exp(brane_state(3, 3), 3, 3)
    assert qK_apply(qK_apply(v, 2), -2) == v


def test_vacuum_pairing_is_coefficient_map():
    # pairing with exp(sum_n x_n/(n i) b_n) weighs p_mu by P_mu = prod_n (x_n/i)^{m_n},
    # so the paired coefficients are FockVector.coeffs, which never holds a zero
    v = FockVector(2, 1, {})
    v.add_term((1,), qpoly_one(1).scale(Fraction(3, 7)))
    v.add_term((2,), qpoly_one(1).scale(Fraction(0)))
    assert set(v.coeffs) == {(1,)}
    assert v.coeffs[(1,)] == qpoly_one(1).scale(Fraction(3, 7))
    v.add_term((1,), qpoly_one(1).scale(Fraction(-3, 7)))
    assert v.coeffs == {}
    # exp((c/1) b_{-1}) |0> pairs to c^k / k! on (1^k)
    c = LaurentU.const(2)
    v = beta_neg_exp(const_weights({1: c, 2: LaurentU(), 3: LaurentU()}), 3, 0)
    assert v.coeffs[(1, 1, 1)] == qpoly_one(0).scale(Fraction(8, 6))


def test_heisenberg_relations():
    # [b_m, b_n] = m delta_{m,-n} on every basis vector of degree <= 5
    N = 12
    basis = [mu for d in range(6) for mu in partitions_of(d)]
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 or n == 0:
                continue
            for mu in basis:
                v = FockVector(N, 0, {mu: qpoly_one(0)})
                lhs = beta_apply(beta_apply(v, n), m) - beta_apply(beta_apply(v, m), n)
                rhs = v.scale(Fraction(m)) if m == -n else FockVector(N, 0, {})
                assert lhs == rhs, (m, n, mu)


def test_oracle_onepoint_winding_one():
    expected = qpoly(
        {0: RationalFunctionU(LaurentU.const(1), qbracket(1)),
         1: RationalFunctionU(LaurentU.const(1), qbracket(1))},
        1,
    )
    for a in (-2, 0, 3):
        assert oracle_onepoint(a, 1) == expected


def test_oracle_onepoint_framing_minus_one():
    # framing -1: the twist is trivial and the amplitude is ((-1)^{n-1} + Q^n)/[n]
    got = oracle_onepoint(-1, 3)
    expected = qpoly(
        {0: RationalFunctionU(LaurentU.const(1), qbracket(3)),
         3: RationalFunctionU(LaurentU.const(1), qbracket(3))},
        3,
    )
    assert got == expected


def test_oracle_onepoint_zero_framing_n2():
    got = oracle_onepoint(0, 2)
    expected = (
        qpoly({0: RationalFunctionU(LaurentU.const(1), qbracket(2))}, 2)
        + qpoly({1: RationalFunctionU(qbracket(2), qbracket(1) ** 2)}, 2)
        + qpoly({2: RationalFunctionU(qbracket(3), qbracket(1) * qbracket(2))}, 2)
    )
    assert got == expected


@pytest.mark.parametrize(
    "n, framings", [(n, (-2, -1, 0, 1, 3)) for n in range(1, 7)] + [(7, (2,))]
)
def test_qK_only_equals_full_transform(n, framings):
    # the restricted transform returns exactly the requested coefficients of
    # the full one; the repeated (n,) would come out doubled without the dedup
    st = beta_neg_exp(brane_state(n, n), n, n)
    onlys = (((n,),), ((n,), (1,) * n), partitions_of(n - 1), ((n,), (n,)))
    for f in framings:
        full = qK_apply(st, f)
        for only in onlys:
            got = qK_apply(st, f, only=only)
            assert set(got.coeffs) <= set(only), (f, only)
            for mu in only:
                assert got.coefficient(mu) == full.coefficient(mu), (f, mu)


def test_oracle_onepoint_truncated_matches_full_transform():
    # at Q-bound D < n the oracle equals the full twist's p_n coefficient cut at Q^D
    for a, n in ((-3, 3), (0, 4), (2, 4)):
        full = qK_apply(beta_neg_exp(brane_state(n, n), n, n), a + 1)
        value = full.coefficient((n,)).scale(Fraction(n))
        for D in range(n):
            assert oracle_onepoint(a, n, D) == value.truncated((D,)), (a, n, D)


# -- correlators ----------------------------------------------------------------


def test_correlator_closed_single_part():
    for n in (1, 2, 5):
        for a1 in (1, 2, 3):
            assert correlator_closed(n, (n,), (a1,)) == bracket_ratio((n * a1,), (a1,))
    assert correlator_closed(1, (1,), (1,)) == RationalFunctionU(1)


def test_correlator_closed_framing_specialization():
    # multipliers a_j = (a+1) m_j give prod [ (a+1) n m_j ] / [(a+1) n]
    for a in (0, 1, 2):
        for n in range(1, 6):
            for mu in partitions_of(n):
                mult = tuple((a + 1) * mi for mi in mu)
                lhs = correlator_closed(n, mu, mult)
                rhs = bracket_ratio([(a + 1) * n * mi for mi in mu], ((a + 1) * n,))
                assert lhs == rhs, (a, mu)


def test_correlator_closed_rejects_bad_composition():
    with pytest.raises(ValueError):
        correlator_closed(3, (1, 1), (1, 1))


def test_correlator_reduce_single_commutation():
    # <b_n E_{-n}(z)> = sigma(n z)/sigma(z) = [n c]/[c]
    for n in (1, 2, 4):
        for c in (1, 2, 3):
            word = beta_correlator_word(n, (n,), (c,))
            assert correlator_reduce(word) == bracket_ratio((n * c,), (c,))


def test_correlator_reduce_vanishing_rules():
    assert correlator_reduce(EWord(((1, 0), (-2, 1)))) == RFU_ZERO  # graded
    assert correlator_reduce(EWord(((-1, 1), (1, 1)))) == RFU_ZERO  # leftmost negative
    assert correlator_reduce(EWord(((0, 1), (1, 1), (-1, 1)))) != RFU_ZERO
    assert correlator_reduce(EWord(())) == RationalFunctionU(1)


def test_correlator_reduce_two_steps():
    word = beta_correlator_word(2, (1, 1), (2, 3))
    assert correlator_reduce(word) == correlator_closed(2, (1, 1), (2, 3))


def test_correlator_reduce_matches_closed_form_grid():
    for n in range(1, 6):
        for comp in _compositions(n):
            for mult in itertools.product((1, 2, 3), repeat=len(comp)):
                word = beta_correlator_word(n, comp, mult)
                assert correlator_reduce(word) == correlator_closed(n, comp, mult), (comp, mult)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest
