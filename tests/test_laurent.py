from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold.laurent import (
    LAURENT_ONE,
    LaurentU,
    RationalFunctionU,
    bracket_product,
    laurent_exact_div,
    laurent_gcd,
    qbinomial,
    qbracket,
    qfactorial,
)


def test_qbracket_basics():
    assert qbracket(1) == LaurentU({1: 1, -1: -1})
    assert qbracket(0).is_zero()
    assert qbracket(-3) == -qbracket(3)


def test_qfactorial_small():
    assert qfactorial(0) == LAURENT_ONE
    assert qfactorial(2) == qbracket(1) * qbracket(2)
    # brute-force product, multiplied out independently
    expected = LAURENT_ONE
    for k in (1, 2, 3):
        expected = expected * (LaurentU.monomial(k) - LaurentU.monomial(-k))
    assert qfactorial(3) == expected
    with pytest.raises(ValueError):
        qfactorial(-1)


def test_qbinomial_values():
    assert qbinomial(7, 0) == RationalFunctionU(1)
    assert qbinomial(2, 1).as_laurent() == LaurentU({1: 1, -1: 1})
    assert qbinomial(4, 2).as_laurent() == LaurentU({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    with pytest.raises(ValueError):
        qbinomial(4, -1)


def test_qbinomial_reduces_to_symmetric_nonneg_integer_laurent():
    for n in range(13):
        for j in range(n + 1):
            b = qbinomial(n, j)
            lau = b.as_laurent()
            assert lau.has_integer_coeffs()
            assert all(c > 0 for c in lau.terms.values())
            assert lau.bar() == lau
            assert b == qbinomial(n, n - j)


def test_quantum_binomial_identity():
    # prod_{k=1}^{M} (1 + u^{M-2k+1} z) = sum_j [M choose j] z^j, as z-polynomials
    for M in range(13):
        coeffs = {0: LAURENT_ONE}
        for k in range(1, M + 1):
            shift = LaurentU.monomial(M - 2 * k + 1)
            new = {}
            for e, c in coeffs.items():
                new[e] = new.get(e, LaurentU()) + c
                new[e + 1] = new.get(e + 1, LaurentU()) + c * shift
            coeffs = new
        for j in range(M + 1):
            assert RationalFunctionU(coeffs[j]) == qbinomial(M, j)


def test_negative_binomial_identity():
    # prod_{k=1}^{M} (1 - Q u^{M-2k+1} z)^{-1} = sum_j [M+j-1 choose j] Q^j z^j
    # checked coefficient-wise after expanding the geometric series per factor.
    D = 8
    for M in range(1, 9):
        # z^j Q^j coefficient of the product of geometric series: sum over
        # compositions of j into M nonnegative parts of u^{sum part_k (M-2k+1)}
        coeffs = [LaurentU() for _ in range(D + 1)]
        coeffs[0] = LAURENT_ONE
        for k in range(1, M + 1):
            shift = LaurentU.monomial(M - 2 * k + 1)
            new = [LaurentU() for _ in range(D + 1)]
            for j in range(D + 1):
                if coeffs[j].is_zero():
                    continue
                power = LAURENT_ONE
                for extra in range(0, D + 1 - j):
                    new[j + extra] = new[j + extra] + coeffs[j] * power
                    power = power * shift
            coeffs = new
        for j in range(D + 1):
            assert RationalFunctionU(coeffs[j]) == qbinomial(M + j - 1, j)


def test_bar_involution():
    for n in range(1, 8):
        assert qbracket(n).bar() == -qbracket(n)
    p = qbracket(2) * qbracket(3) + LaurentU({5: Fraction(1, 2)})
    assert p.bar().bar() == p
    q = qbracket(1) * qbracket(4)
    assert (p * q).bar() == p.bar() * q.bar()


def test_rational_function_canonical_equality():
    # same value along different construction routes
    x = RationalFunctionU(qbracket(4), qbracket(2))
    y = RationalFunctionU(qbracket(4) * qbracket(3), qbracket(2) * qbracket(3))
    assert x == y
    assert x.as_laurent() == LaurentU({2: 1, -2: 1})  # [4]/[2] = u^2 + u^-2
    assert RationalFunctionU(qbracket(2), qbracket(1)) != RationalFunctionU(qbracket(3), qbracket(1))


def test_rational_function_field_ops():
    a = RationalFunctionU(qbracket(1), qbracket(2))
    b = RationalFunctionU(qbracket(3), qbracket(4))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == RationalFunctionU(1)
    assert (a + b) * (a - b) == a * a - b * b
    with pytest.raises(ZeroDivisionError):
        RationalFunctionU(qbracket(1), LaurentU())


def test_gcd_and_exact_division():
    a = qbracket(2) * qbracket(6)
    b = qbracket(2) * qbracket(3)
    g = laurent_gcd(a, b)
    assert laurent_exact_div(a, g) * g == a
    assert laurent_exact_div(b, g) * g == b
    # [2] | [6] exactly: [6]/[2] = u^4 + 1 + u^-4
    assert laurent_exact_div(qbracket(6), qbracket(2)) == LaurentU({4: 1, 0: 1, -4: 1})
    with pytest.raises(ArithmeticError):
        laurent_exact_div(qbracket(3), qbracket(2))


def test_bracket_product_matches_naive():
    for args in [(1,), (2, 3), (1, 1, 4), (5, 2, 2, 3), (0, 7)]:
        naive = LAURENT_ONE
        for d in args:
            naive = naive * qbracket(d)
        assert bracket_product(args) == naive


small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.integers(-5, 5), small_fracs, max_size=5),
       st.dictionaries(st.integers(-5, 5), small_fracs, max_size=5))
def test_laurent_ring_axioms(da, db):
    a, b = LaurentU(da), LaurentU(db)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert a - a == LaurentU()


# -- reference: Euclid over Fraction coefficients --------------------------
#
# The algorithm the integer core of laurent.py replaced, kept verbatim as the
# oracle for the property tests below: dense valuation-zero lists of
# Fractions, long division, monic Euclid.


def _ref_to_dense(p):
    v = p.valuation()
    out = [Fraction(0)] * (p.degree() - v + 1)
    for e, c in p.terms.items():
        out[e - v] = c
    return out


def _ref_from_dense(coeffs):
    return LaurentU({e: c for e, c in enumerate(coeffs) if c})


def _ref_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _ref_divmod(a, b):
    a = list(a)
    _ref_trim(a)
    db = len(b) - 1
    lead = b[db]
    q = [Fraction(0)] * max(0, len(a) - db)
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        f = a[da] / lead
        q[da - db] = f
        for k in range(db + 1):
            a[da - db + k] -= f * b[k]
        _ref_trim(a)
    return q, a


def _ref_dense_gcd(a, b):
    a, b = list(a), list(b)
    _ref_trim(a)
    _ref_trim(b)
    while b:
        _, r = _ref_divmod(a, b)
        a, b = b, r
        if b:
            lead = b[-1]
            if lead != 1:
                b = [c / lead for c in b]
    if not a:
        return []
    lead = a[-1]
    if lead != 1:
        a = [c / lead for c in a]
    return a


def ref_gcd(a, b):
    return _ref_from_dense(_ref_dense_gcd(_ref_to_dense(a), _ref_to_dense(b)))


def ref_exact_div(a, b):
    """a / b up to a u-power, or None when the division leaves a remainder."""
    q, r = _ref_divmod(_ref_to_dense(a), _ref_to_dense(b))
    if r:
        return None
    return _ref_from_dense(q).shift(a.valuation() - b.valuation())


def ref_canonical(num, den):
    if num.is_zero():
        return (LaurentU(), LAURENT_ONE)
    if den.is_monomial():
        (e, c), = den.terms.items()
        return (num.shift(-e) * (1 / c), LAURENT_ONE)
    shift = num.valuation() - den.valuation()
    dn = _ref_to_dense(num)
    dd = _ref_to_dense(den)
    g = _ref_dense_gcd(dn, dd)
    if len(g) > 1:
        dn, _ = _ref_divmod(dn, g)
        dd, _ = _ref_divmod(dd, g)
    lead = dd[-1]
    if lead != 1:
        dn = [c / lead for c in dn]
        dd = [c / lead for c in dd]
    if len(dd) == 1:
        return (_ref_from_dense(dn).shift(shift), LAURENT_ONE)
    return (_ref_from_dense(dn).shift(shift), _ref_from_dense(dd))


def _assert_matches_reference(a, b):
    """gcd, exact division and canonical form of a/b and b/a agree with Euclid."""
    assert laurent_gcd(a, b) == ref_gcd(a, b)
    expected = ref_exact_div(a, b)
    if expected is None:
        with pytest.raises(ArithmeticError):
            laurent_exact_div(a, b)
    else:
        assert laurent_exact_div(a, b) == expected
    r = RationalFunctionU(a, b)
    assert r.canonical() == ref_canonical(a, b)
    assert r.inverse().canonical() == ref_canonical(b, a)


nonzero_fracs = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6
).filter(bool)


@st.composite
def laurents(draw, max_terms=5):
    """Nonzero LaurentU: Fraction coefficients, any top coefficient, a rational content."""
    terms = draw(st.dictionaries(st.integers(-6, 6), nonzero_fracs, min_size=1, max_size=max_terms))
    return LaurentU(terms) * draw(nonzero_fracs)


bracket_args = st.lists(st.integers(1, 9), max_size=5)


@settings(max_examples=80, deadline=None)
@given(bracket_args, bracket_args.filter(bool), st.integers(-4, 4), nonzero_fracs)
def test_bracket_quotients_match_euclid(num_args, den_args, shift, scale):
    num = bracket_product(num_args).shift(shift) * scale
    den = bracket_product(den_args)
    _assert_matches_reference(num, den)
    _assert_matches_reference(den, num)


@settings(max_examples=80, deadline=None)
@given(laurents(), laurents(), laurents(max_terms=3))
def test_general_laurents_match_euclid(a, b, common):
    # unrelated pairs are almost always coprime; the common factor makes the gcd nontrivial
    _assert_matches_reference(a, b)
    _assert_matches_reference(a * common, b * common)
    _assert_matches_reference(a * b, b)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=2, max_size=7, unique=True),
       st.integers(1, 6), nonzero_fracs, nonzero_fracs)
def test_coprime_pairs_match_euclid(roots, split, ca, cb):
    # products of (u - r) over disjoint root sets share no factor
    split = min(split, len(roots) - 1)
    a = LaurentU.const(ca)
    for r in roots[:split]:
        a = a * LaurentU({1: 1, 0: -r})
    b = LaurentU.const(cb)
    for r in roots[split:]:
        b = b * LaurentU({1: 1, 0: -r})
    assert laurent_gcd(a, b) == LAURENT_ONE
    _assert_matches_reference(a, b)


def test_inverse_of_general_numerator_matches_euclid():
    num = LaurentU({3: Fraction(2, 3), 1: -5, -2: Fraction(7, 4)})
    den = qbracket(2) * qbracket(3) * LaurentU({1: 3, 0: Fraction(-1, 2)})
    inv = RationalFunctionU(num, den).inverse()
    assert inv.canonical() == ref_canonical(den, num)
    assert inv * RationalFunctionU(num, den) == RationalFunctionU(1)


def test_inexact_division_raises():
    # the divisor's top coefficient does not divide the lead; a floor quotient
    # of 1 would leave no remainder here
    with pytest.raises(ArithmeticError):
        laurent_exact_div(LaurentU({1: 3, 0: 1}), LaurentU({1: 2, 0: 1}))
    # every lead divides, the remainder does not vanish
    with pytest.raises(ArithmeticError):
        laurent_exact_div(qbracket(2) * qbracket(3) + 1, qbracket(2))
    # a lower-degree dividend
    with pytest.raises(ArithmeticError):
        laurent_exact_div(qbracket(1), qbracket(2))
    # rational content and u-shifts do not make an exact quotient inexact
    a = (qbracket(2) * LaurentU({1: 3, 0: Fraction(-1, 2)})).shift(5) * Fraction(4, 9)
    b = LaurentU({1: 3, 0: Fraction(-1, 2)}).shift(-2) * Fraction(-2, 7)
    assert laurent_exact_div(a, b) == qbracket(2).shift(7) * Fraction(4 * -7, 9 * 2)
