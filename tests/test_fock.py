import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from conifold.amplitudes import onepoint_closed
from conifold.fock import (
    FockVector,
    beta_correlator_word,
    beta_neg_exp,
    brane_state,
    correlator_closed,
    correlator_reduce,
    correlator_terms,
    cutjoin_apply,
    oracle_onepoint,
    qK_apply,
    qpoly,
    schur_vector,
)
from conifold.laurent import LaurentU, RFU_ONE, RFU_ZERO, RationalFunctionU, bracket_ratio, qbracket
from conifold.partitions import character, kappa, multiplicities, partitions_of, z_aut


def _reference_beta_apply(v: FockVector, k: int) -> FockVector:
    """Apply b_k: multiplication by p_{-k} for k < 0, k d/dp_k for k > 0."""
    if k == 0:
        raise ValueError("b_0 is not defined")
    out = FockVector(v.degree_bound, v.q_bound, {})
    if k < 0:
        part = -k
        for mu, c in v.coeffs.items():
            new = tuple(sorted(mu + (part,), reverse=True))
            out.add_term(new, c)
    else:
        for mu, c in v.coeffs.items():
            m = multiplicities(mu).get(k, 0)
            if not m:
                continue
            lst = list(mu)
            lst.remove(k)
            out.add_term(tuple(lst), c.scale(Fraction(k * m)))
    return out


def _reference_vacuum(degree_bound, q_bound):
    return FockVector(degree_bound, q_bound, {(): qpoly({0: RFU_ONE}, q_bound)})


def const_weights(values, q_bound=0):
    return {n: qpoly({0: RationalFunctionU(c)}, q_bound) for n, c in values.items()}


def test_beta_neg_exp_vacuum():
    v = beta_neg_exp(const_weights({1: LaurentU(), 2: LaurentU()}), 2, 0)
    assert v == _reference_vacuum(2, 0)


def test_beta_neg_exp_exponential_series():
    v = beta_neg_exp(const_weights({1: LaurentU({0: 1}), 2: LaurentU()}), 2, 0)
    assert v.coefficient(()) == qpoly({0: RFU_ONE}, 0)
    assert v.coefficient((1,)) == qpoly({0: RFU_ONE}, 0)
    assert v.coefficient((1, 1)) == qpoly({0: RFU_ONE}, 0).scale(Fraction(1, 2))
    assert not v.coefficient((2,))


def test_beta_neg_exp_brane_weights():
    # coefficient of p_2 with c_n = ((-1)^{n-1} + Q^n)/[n] is (-1 + Q^2)/(2 [2])
    v = beta_neg_exp(brane_state(2, 2), 2, 2)
    expected = qpoly(
        {0: RationalFunctionU(LaurentU({0: Fraction(-1, 2)}), (2,)),
         2: RationalFunctionU(LaurentU({0: Fraction(1, 2)}), (2,))},
        2,
    )
    assert v.coefficient((2,)) == expected


def _reference_beta_neg_exp(coeff_by_weight, degree_bound, q_bound):
    """The product form prod_n c_n^{m_n} / (n^{m_n} m_n!), one partition at a time."""
    coeffs = {}
    for d in range(degree_bound + 1):
        for mu in partitions_of(d):
            term = qpoly({0: RFU_ONE}, q_bound)
            for n, m in multiplicities(mu).items():
                cn = coeff_by_weight[n]
                term = term * cn ** m
                term = term.scale(Fraction(1, n ** m * factorial(m)))
            if term:
                coeffs[mu] = term
    return FockVector(degree_bound, q_bound, coeffs)


def _assert_same_state(got, expected):
    assert set(got.coeffs) == set(expected.coeffs)
    for mu, c in expected.coeffs.items():
        assert got.coeffs[mu] == c, mu


@pytest.mark.parametrize("n", range(1, 9))
def test_beta_neg_exp_matches_the_product_form(n):
    # the one-part recurrence against the product over multiplicities, truncated
    # at Q^0, at Q^1 and at Q^n, where no brane weight is cut
    for q_bound in sorted({0, 1, n}):
        weights = brane_state(n, q_bound)
        _assert_same_state(beta_neg_exp(weights, n, q_bound), _reference_beta_neg_exp(weights, n, q_bound))


def test_beta_neg_exp_drops_every_partition_with_a_zero_weight():
    weights = const_weights({1: LaurentU({0: 3}), 2: LaurentU(), 3: LaurentU({1: 1, -1: 2}),
                             4: LaurentU({0: -1}), 5: LaurentU({2: 5})})
    v = beta_neg_exp(weights, 5, 0)
    _assert_same_state(v, _reference_beta_neg_exp(weights, 5, 0))
    assert set(v.coeffs) == {mu for d in range(6) for mu in partitions_of(d) if 2 not in mu}


def test_cutjoin_kills_p1():
    v = FockVector(3, 0, {(1,): qpoly({0: RFU_ONE}, 0)})
    assert cutjoin_apply(v) == FockVector(3, 0, {})


def test_cutjoin_schur_eigenvectors():
    # K s_mu = (kappa_mu / 2) s_mu, checked through degree 6
    for n in range(1, 7):
        for mu in partitions_of(n):
            s = schur_vector(mu)
            assert cutjoin_apply(s) == s.scale(Fraction(kappa(mu), 2)), mu


def test_qK_fixes_vacuum_and_p1():
    v = _reference_vacuum(2, 0)
    assert qK_apply(v, 3) == v
    p1 = FockVector(2, 0, {(1,): qpoly({0: RFU_ONE}, 0)})
    assert qK_apply(p1, 5) == p1


def test_qK_on_p2():
    # p_2 = s_(2) - s_(11); twisting by u^{kappa} gives
    # (u^2 - u^-2)/2 p_1^2 + (u^2 + u^-2)/2 p_2
    p2 = FockVector(2, 0, {(2,): qpoly({0: RFU_ONE}, 0)})
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
    v.add_term((1,), qpoly({0: RFU_ONE}, 1).scale(Fraction(3, 7)))
    v.add_term((2,), qpoly({0: RFU_ONE}, 1).scale(Fraction(0)))
    assert set(v.coeffs) == {(1,)}
    assert v.coeffs[(1,)] == qpoly({0: RFU_ONE}, 1).scale(Fraction(3, 7))
    v.add_term((1,), qpoly({0: RFU_ONE}, 1).scale(Fraction(-3, 7)))
    assert v.coeffs == {}
    # exp((c/1) b_{-1}) |0> pairs to c^k / k! on (1^k)
    c = LaurentU({0: 2})
    v = beta_neg_exp(const_weights({1: c, 2: LaurentU(), 3: LaurentU()}), 3, 0)
    assert v.coeffs[(1, 1, 1)] == qpoly({0: RFU_ONE}, 0).scale(Fraction(8, 6))


def test_heisenberg_relations():
    # [b_m, b_n] = m delta_{m,-n} on every basis vector of degree <= 5
    N = 12
    basis = [mu for d in range(6) for mu in partitions_of(d)]
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 or n == 0:
                continue
            for mu in basis:
                v = FockVector(N, 0, {mu: qpoly({0: RFU_ONE}, 0)})
                lhs = (_reference_beta_apply(_reference_beta_apply(v, n), m)
                       - _reference_beta_apply(_reference_beta_apply(v, m), n))
                rhs = v.scale(Fraction(m)) if m == -n else FockVector(N, 0, {})
                assert lhs == rhs, (m, n, mu)


def _state(n, q_bound=None):
    q_bound = n if q_bound is None else q_bound
    return beta_neg_exp(brane_state(n, q_bound), n, q_bound)


def test_oracle_onepoint_winding_one():
    expected = qpoly(
        {0: RationalFunctionU(LaurentU({0: 1}), (1,)),
         1: RationalFunctionU(LaurentU({0: 1}), (1,))},
        1,
    )
    for a in (-2, 0, 3):
        assert oracle_onepoint(a, 1, _state(1)) == expected
        # a state built through a higher winding gives the same value
        assert oracle_onepoint(a, 1, _state(4)) == expected


def test_oracle_onepoint_framing_minus_one():
    # framing -1: the twist is trivial and the amplitude is ((-1)^{n-1} + Q^n)/[n]
    got = oracle_onepoint(-1, 3, _state(3))
    expected = qpoly(
        {0: RationalFunctionU(LaurentU({0: 1}), (3,)),
         3: RationalFunctionU(LaurentU({0: 1}), (3,))},
        3,
    )
    assert got == expected
    # the twist q^{0 K} runs the f = 0 kernel on the n hooks
    state = _state(8)
    for n in range(1, 9):
        assert oracle_onepoint(-1, n, state) == onepoint_closed(-1, n), n


def test_oracle_onepoint_zero_framing_n2():
    got = oracle_onepoint(0, 2, _state(2))
    expected = (
        qpoly({0: RationalFunctionU(LaurentU({0: 1}), (2,))}, 2)
        + qpoly({1: RationalFunctionU(qbracket(2), (1, 1))}, 2)
        + qpoly({2: RationalFunctionU(qbracket(3), (1, 2))}, 2)
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
        full = qK_apply(_state(n), a + 1)
        value = full.coefficient((n,)).scale(Fraction(n))
        for D in range(n):
            assert oracle_onepoint(a, n, _state(n, D)) == value.truncated((D,)), (a, n, D)


def _reference_qK_apply(v: FockVector, framing_exponent: int, only=None) -> FockVector:
    """q^{f K} by the two-step character transform, degree by degree:
        w_nu = sum_mu chi_nu(mu) c_mu,   c'_mu = (1/z_mu) sum_nu u^{f kappa_nu} chi_nu(mu) w_nu.
    With `only`, w_nu is built only for the nu with chi_nu(mu) != 0 for some
    requested mu of its degree.
    """
    f = framing_exponent
    wanted = None if only is None else tuple(dict.fromkeys(tuple(mu) for mu in only))
    out = FockVector(v.degree_bound, v.q_bound, {})
    by_degree = {}
    for mu, c in v.coeffs.items():
        by_degree.setdefault(sum(mu), {})[mu] = c
    for d, sector in by_degree.items():
        targets = partitions_of(d) if wanted is None else [mu for mu in wanted if sum(mu) == d]
        if not targets:
            continue
        if d == 0 or f == 0:
            for mu, c in sector.items():
                if mu in targets:
                    out.add_term(mu, c)
            continue
        scaled = {}
        for nu in partitions_of(d):
            if not any(character(nu, mu) for mu in targets):
                continue
            w = qpoly({}, v.q_bound)
            for mu, c in sector.items():
                chi = character(nu, mu)
                if chi:
                    w = w + c.scale(Fraction(chi))
            if not w:
                continue
            twist = RationalFunctionU(LaurentU({f * kappa(nu): 1}))
            scaled[nu] = w * twist
        for mu in targets:
            acc = qpoly({}, v.q_bound)
            for nu, w in scaled.items():
                chi = character(nu, mu)
                if chi:
                    acc = acc + w.scale(Fraction(chi))
            out.add_term(mu, acc.scale(Fraction(1, z_aut(mu))))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_qK_kernel_matches_the_two_step_transform(n):
    # brane states cut at Q^0 and Q^n, twisted in full and on restricted sets,
    # and every Schur vector of degree n, against the two-step transform
    states = [_state(n, q_bound) for q_bound in sorted({0, n})]
    schurs = {nu: schur_vector(nu) for nu in partitions_of(n)}
    onlys = (((n,),), ((1,) * n, (n,), (n,)), partitions_of(n)[1::2], partitions_of(n - 1))
    for f in range(-3, 4):
        for v in states:
            for only in (None,) + onlys:
                _assert_same_state(qK_apply(v, f, only=only), _reference_qK_apply(v, f, only=only))
        for nu, s in schurs.items():
            _assert_same_state(qK_apply(s, f, only=((n,),)), _reference_qK_apply(s, f, only=((n,),)))
            # s_nu is an eigenvector with eigenvalue u^{f kappa_nu}
            twist = RationalFunctionU(LaurentU({f * kappa(nu): 1}))
            _assert_same_state(qK_apply(s, f), s.scale(twist))


def test_qK_at_zero_framing_is_the_identity():
    # the f = 0 kernel sum_nu chi_nu(t) chi_nu(mu) is z_t delta_{t,mu} (column orthogonality)
    assert qK_apply(_state(6), 0) == _state(6)
    for n in range(1, 7):
        for nu in partitions_of(n):
            s = schur_vector(nu)
            assert qK_apply(s, 0) == s, nu


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
    assert correlator_reduce(((1, 0), (-2, 1))) == RFU_ZERO  # graded
    assert correlator_reduce(((-1, 1), (1, 1))) == RFU_ZERO  # leftmost negative
    assert correlator_reduce(((0, 1), (1, 1), (-1, 1))) != RFU_ZERO
    assert correlator_reduce(()) == RationalFunctionU(1)


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


def _reference_reduce_terms(factors, acc, out):
    """The recursion before pruning: leftmost positive factor, weight summed at every node."""
    if not factors:
        if not acc:
            out.append(((), ()))
        return
    if sum(r for r, _ in factors) != 0:
        return
    if factors[-1][0] > 0:
        return
    if factors[0][0] < 0:
        return
    pos = next((i for i, (r, _) in enumerate(factors) if r > 0), None)
    if pos is None:
        dens = tuple(c for _, c in factors)
        if any(c == 0 for c in dens):
            raise ValueError("E_0(0) has no finite vacuum value")
        out.append((acc, dens))
        return
    (ra, ca), (rb, cb) = factors[pos], factors[pos + 1]
    swapped = factors[:pos] + ((rb, cb), (ra, ca)) + factors[pos + 2:]
    _reference_reduce_terms(swapped, acc, out)
    sigma = ra * cb - rb * ca
    if sigma:
        merged = factors[:pos] + ((ra + rb, ca + cb),) + factors[pos + 2:]
        _reference_reduce_terms(merged, acc + (sigma,), out)


def _reference_terms(word):
    out = []
    _reference_reduce_terms(word, (), out)
    return out


def _random_words(seed, count, max_factors=6, weights=range(-4, 5), mults=range(-3, 4)):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple((rng.choice(weights), rng.choice(mults)) for _ in range(rng.randint(0, max_factors)))


def test_correlator_reduce_terminates_on_adjacent_positive_factors():
    # [E_1(z), E_{-2}(v)] = [3] E_{-1}, then <E_1 E_{-1}> = [3]/[3]
    assert correlator_reduce(((1, 1), (1, 1), (-2, 1))) == bracket_ratio((3, 3), (3,))


def test_correlator_reduce_terminates_on_random_words():
    for word in _random_words(seed=11, count=20000):
        try:
            correlator_reduce(word)
        except ValueError:
            pass  # E_0(0) on the vacuum


def test_pruned_recursion_keeps_every_term_of_the_cli_words():
    for n in range(1, 7):
        for comp in _compositions(n):
            for mult in itertools.product((1, 2, 3), repeat=len(comp)):
                word = beta_correlator_word(n, comp, mult)
                assert correlator_terms(word) == _reference_terms(word), word


def test_pruned_recursion_keeps_every_term_of_words_with_one_positive_factor():
    words = [w for w in _random_words(seed=5, count=20000) if sum(r > 0 for r, _ in w) <= 1]
    assert len(words) > 5000
    for word in words:
        try:
            expected = _reference_terms(word)
        except ValueError:
            with pytest.raises(ValueError):
                correlator_terms(word)
            continue
        assert correlator_terms(word) == expected, word


def _recursive_alive(factors):
    return not factors or (factors[0][0] >= 0 and factors[-1][0] <= 0)


def _recursive_reduce_terms(factors, acc, out):
    """The recursive engine the worklist replaced: swapped branch, then merged, depth-first."""
    pos = next((i for i in range(len(factors) - 1, -1, -1) if factors[i][0] > 0), None)
    if pos is None:
        dens = tuple(c for _, c in factors)
        if any(c == 0 for c in dens):
            raise ValueError("E_0(0) has no finite vacuum value")
        out.append((acc, dens))
        return
    (ra, ca), (rb, cb) = factors[pos], factors[pos + 1]
    swapped = factors[:pos] + ((rb, cb), (ra, ca)) + factors[pos + 2:]
    if _recursive_alive(swapped):
        _recursive_reduce_terms(swapped, acc, out)
    sigma = ra * cb - rb * ca
    if sigma:
        merged = factors[:pos] + ((ra + rb, ca + cb),) + factors[pos + 2:]
        if _recursive_alive(merged):
            _recursive_reduce_terms(merged, acc + (sigma,), out)


def _recursive_terms(word):
    out = []
    if sum(r for r, _ in word) == 0 and _recursive_alive(word):
        _recursive_reduce_terms(word, (), out)
    return out


def _words_with_several_positive_factors(seed, count, max_factors=7):
    """Words of total weight zero, first weight >= 0 and last <= 0, with two or more positive factors."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        weights = [rng.randint(0, 4)] + [rng.randint(-4, 4) for _ in range(rng.randint(1, max_factors - 2))]
        weights.append(-sum(weights))
        if weights[-1] <= 0 and sum(r > 0 for r in weights) >= 2:
            words.append(tuple((r, rng.randint(-3, 3)) for r in weights))
    return words


def test_worklist_matches_the_recursive_engine_on_words_with_several_positive_factors():
    words = _words_with_several_positive_factors(seed=7, count=20000)
    raised = several = 0
    for word in words:
        try:
            expected = _recursive_terms(word)
        except ValueError:  # E_0(0) on the vacuum
            raised += 1
            with pytest.raises(ValueError):
                correlator_terms(word)
            continue
        several += len(expected) > 1
        assert correlator_terms(word) == expected, word
    # both paths are exercised, and many words keep several branches in a fixed order
    assert raised > 500 and several > 5000, (raised, several)
    assert correlator_terms(()) == _recursive_terms(()) == [((), ())]

