import itertools
from fractions import Fraction
from functools import cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold.amplitudes import onepoint_closed
from conifold.laurent import (
    LAURENT_ONE,
    _div_binomial,
    _div_cyclotomic,
    _laurent,
    _primitive,
    _times_binomial,
    LaurentU,
    RationalFunctionU,
    bracket_normal,
    bracket_product,
    bracket_ratio,
    qbinomial,
    qbracket,
    qfactorial,
)


def test_qbracket_basics():
    assert qbracket(1) == LaurentU({1: 1, -1: -1})
    assert not qbracket(0)
    assert qbracket(-3) == -qbracket(3)


def test_qfactorial_small():
    assert qfactorial(0) == LAURENT_ONE
    assert qfactorial(2) == qbracket(1) * qbracket(2)
    # brute-force product, multiplied out independently
    expected = LAURENT_ONE
    for k in (1, 2, 3):
        expected = expected * (LaurentU({k: 1}) - LaurentU({-k: 1}))
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
            shift = LaurentU({M - 2 * k + 1: 1})
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
            shift = LaurentU({M - 2 * k + 1: 1})
            new = [LaurentU() for _ in range(D + 1)]
            for j in range(D + 1):
                if not coeffs[j]:
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
    x = RationalFunctionU(qbracket(4), (2,))
    y = RationalFunctionU(qbracket(4) * qbracket(3), (3, 2))
    assert x == y and hash(x) == hash(y)
    assert y.den == (2, 3)
    assert x.as_laurent() == LaurentU({2: 1, -2: 1})  # [4]/[2] = u^2 + u^-2
    assert RationalFunctionU(qbracket(2), (1,)) != RationalFunctionU(qbracket(3), (1,))


def test_rational_function_field_ops():
    a = RationalFunctionU(qbracket(1), (2,))
    b = RationalFunctionU(qbracket(3), (4,))
    assert (a + b) - b == a
    assert (a + b) * (a - b) == a * a - b * b
    # a ring over bracket denominators: no general quotient and no inverse
    with pytest.raises(TypeError):
        (a * b) / b
    assert not hasattr(a, "inverse")
    with pytest.raises(TypeError):
        RationalFunctionU(qbracket(1), LaurentU())
    with pytest.raises(TypeError):
        RationalFunctionU(qbracket(1), qbracket(2))
    with pytest.raises(TypeError):
        LaurentU({0: 1}) / qbracket(2)
    # a zero bracket divides by zero; a negative one is bracket_ratio's to fold
    for den in ((2, 0), (-2,)):
        with pytest.raises(ValueError):
            RationalFunctionU(qbracket(1), den)


def test_gcd_and_exact_division():
    a = qbracket(2) * qbracket(6)
    b = qbracket(2) * qbracket(3)
    # bracket products factor into Phi_e, so the Phi_e both hold make the gcd:
    # here (u^4 - 1)(u^6 - 1), as [3] divides [6]
    g = cyclotomic_gcd(a, b, 12)
    assert g == ref_gcd(a, b) == binomial(4) * binomial(6)
    assert binomial_div(binomial_div(a, 4), 6) * g == a
    assert binomial_div(binomial_div(b, 4), 6) * g == b
    # [2] | [6] exactly: [6]/[2] = u^4 + 1 + u^-4, and [2] does not divide [3]
    assert RationalFunctionU(qbracket(6), (2,)).as_laurent() == LaurentU({4: 1, 0: 1, -4: 1})
    with pytest.raises(ArithmeticError):
        RationalFunctionU(qbracket(3), (2,)).as_laurent()


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


def test_sign_of_the_top_coefficient_lives_in_the_content():
    # a negative bracket argument gives top coefficient -1 before the sign moves out
    p = bracket_product((-2, 3))
    assert p == -(qbracket(2) * qbracket(3))
    assert (p.content, p.poly[p.degree()]) == (-1, 1)
    # u -> 1/u turns the bottom coefficient -1 of u - 1/u into the top one
    d = LaurentU({1: 1, -1: -1})
    assert d.bar() == LaurentU({-1: 1, 1: -1})
    assert (d.bar().content, d.bar().poly) == (-1, {1: 1, -1: -1})
    t = qbracket(1) * Fraction(-1, 3)
    assert t.terms == {1: Fraction(-1, 3), -1: Fraction(1, 3)}
    assert (t.content, t.poly) == (Fraction(-1, 3), {1: 1, -1: -1})
    assert not t.has_integer_coeffs()
    assert (t * 3).has_integer_coeffs()
    assert not LaurentU({2: Fraction(3, 2), 0: 1}).has_integer_coeffs()


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
    if not num:
        return (LaurentU(), LAURENT_ONE)
    if len(den.terms) == 1:
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


# -- the integer kernels that canonical() and as_laurent run, on general polynomials --


def binomial(s):
    """u^s - 1."""
    return LaurentU({s: 1, 0: -1})


@cache
def ref_cyclotomic(e):
    """Phi_e by long division over Fraction: u^e - 1 over Phi_d for each proper divisor d of e."""
    phi = binomial(e)
    for d in range(1, e):
        if e % d == 0:
            phi = ref_exact_div(phi, ref_cyclotomic(d))
    return phi


def binomial_div(a, s):
    """a / (u^s - 1) by _div_binomial, or None when u^s - 1 does not divide a."""
    c, v, dense = _primitive(a)
    q = _div_binomial(dense, s)
    return None if q is None else _laurent(q, v, c)


def cyclotomic_div(a, e):
    """a / Phi_e by _div_cyclotomic, or None when Phi_e does not divide a."""
    c, v, dense = _primitive(a)
    q = _div_cyclotomic(dense, e)
    return None if q is None else _laurent(q, v, c)


def cyclotomic_gcd(a, b, e_max):
    """prod_{e <= e_max} Phi_e^min(k_a, k_b), each k the number of times cyclotomic_div divides."""

    def multiplicity(x, e):
        k = 0
        while (x := cyclotomic_div(x, e)) is not None:
            k += 1
        return k

    g = LAURENT_ONE
    for e in range(1, e_max + 1):
        g = g * ref_cyclotomic(e) ** min(multiplicity(a, e), multiplicity(b, e))
    return g


def _assert_kernels_match_reference(a, s):
    """Division of a by u^s - 1 and by Phi_s agrees with long division over Fraction."""
    assert binomial_div(a, s) == ref_exact_div(a, binomial(s))
    assert cyclotomic_div(a, s) == ref_exact_div(a, ref_cyclotomic(s))


def _assert_bracket_kernels_match_reference(num, den_args):
    """Over prod [den_args], 2d <= 18: the shared Phi_e are Euclid's gcd, and as_laurent is long division.

    The gcd divides the bracket product, so it is a product of Phi_e whatever num is.
    """
    den = bracket_product(den_args)
    assert cyclotomic_gcd(num, den, 18) == ref_gcd(num, den)
    expected = ref_exact_div(num, den)
    if expected is None:
        with pytest.raises(ArithmeticError):
            RationalFunctionU(num, den_args).as_laurent()
    else:
        assert RationalFunctionU(num, den_args).as_laurent() == expected


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
    _assert_bracket_kernels_match_reference(num, den_args)
    _assert_bracket_kernels_match_reference(den.shift(-shift) * (1 / scale), num_args)
    # canonical() reduces num over bracket_product(den) by the same core
    assert RationalFunctionU(num, den_args).canonical() == ref_canonical(num, den)
    assert RationalFunctionU(den.shift(-shift) * (1 / scale), num_args).canonical() == ref_canonical(den, num)


@st.composite
def repeated_factors(draw):
    """(den_args, numerator): the numerator holds extra copies of the denominator's brackets and Phi_e powers.

    Each e divides some 2d of the denominator, so each Phi_e can cancel.
    """
    den_args = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    copies = [d for d in den_args for _ in range(draw(st.integers(0, 3)))]
    shared = sorted({e for d in den_args for e in range(1, 2 * d + 1) if 2 * d % e == 0})
    powers = draw(st.dictionaries(st.sampled_from(shared), st.integers(1, 3), max_size=3))
    num = draw(laurents(max_terms=3)) * bracket_product(copies)
    for e, k in powers.items():
        num = num * ref_cyclotomic(e) ** k
    return den_args, num


@settings(max_examples=100, deadline=None)
@given(repeated_factors())
def test_repeated_brackets_and_cyclotomic_powers_cancel(case):
    den_args, num = case
    assert RationalFunctionU(num, den_args).canonical() == ref_canonical(num, bracket_product(den_args))


def test_canonical_above_the_golden_sizes():
    # the golden jobs stop at n = 7; at n = 9 the numerators hold more and higher Phi_e
    for a in (3, -3):
        for value in onepoint_closed(a, 9).terms.values():
            assert value.canonical() == ref_canonical(value.num, bracket_product(value.den))


@pytest.mark.parametrize("n", [3999, 4000])
def test_canonical_of_a_closed_string_coefficient_at_the_order_limit(n):
    # (-1)^{n-1}/(n [n]^2) = (-1)^{n-1}/n u^{2n} / (u^{2n} - 1)^2: nothing cancels,
    # and the denominator has three terms
    sign = (-1) ** (n - 1)
    value = RationalFunctionU(Fraction(sign, n), (n, n))
    assert value.canonical() == (LaurentU({2 * n: Fraction(sign, n)}), LaurentU({4 * n: 1, 2 * n: -2, 0: 1}))
    # with one u^{2n} - 1 in the numerator, the whole bracket cancels
    assert (value * (bracket_product((n,)) * n)).canonical() == (LaurentU({n: sign}), LaurentU({2 * n: 1, 0: -1}))


@settings(max_examples=80, deadline=None)
@given(laurents(), laurents(max_terms=3), st.integers(1, 12))
def test_general_laurents_match_euclid(a, common, s):
    # general polynomials are almost never multiples; the factors make the division exact
    _assert_kernels_match_reference(a, s)
    _assert_kernels_match_reference(a * common, s)
    _assert_kernels_match_reference(a * binomial(s), s)
    _assert_kernels_match_reference(a * ref_cyclotomic(s) * common, s)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8).filter(any), st.integers(1, 8), st.integers(0, 15))
def test_binomial_kernels_round_trip(p, s, k):
    m = _times_binomial(p, s)
    assert LaurentU(dict(enumerate(m))) == LaurentU(dict(enumerate(p))) * binomial(s)
    assert _div_binomial(m, s) == p
    # u^k is no multiple of u^s - 1, so neither is m + u^k
    m[k % len(m)] += 1
    assert _div_binomial(m, s) is None


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=2, max_size=7, unique=True),
       st.integers(1, 6), nonzero_fracs, nonzero_fracs)
def test_coprime_pairs_match_euclid(roots, split, ca, cb):
    # products of (u - r) over disjoint root sets share no factor; u - 1 is Phi_1 and u + 1 is Phi_2
    split = min(split, len(roots) - 1)
    a = LaurentU({0: ca})
    for r in roots[:split]:
        a = a * LaurentU({1: 1, 0: -r})
    b = LaurentU({0: cb})
    for r in roots[split:]:
        b = b * LaurentU({1: 1, 0: -r})
    assert cyclotomic_gcd(a, b, 6) == ref_gcd(a, b) == LAURENT_ONE
    assert (cyclotomic_div(a, 1) is None) == (1 not in roots[:split])
    for e in range(1, 7):
        _assert_kernels_match_reference(a, e)
        _assert_kernels_match_reference(b, e)


def test_inverse_of_general_numerator_matches_euclid():
    # a general numerator reduces over brackets as Euclid does; its inverse would
    # need a general denominator, which the ring refuses
    num = LaurentU({3: Fraction(2, 3), 1: -5, -2: Fraction(7, 4)})
    value = RationalFunctionU(num * qbracket(2), (2, 3))
    assert value.canonical() == ref_canonical(num * qbracket(2), qbracket(2) * qbracket(3))
    assert not hasattr(value, "inverse")
    with pytest.raises(TypeError):
        RationalFunctionU(qbracket(2) * qbracket(3), num)


def test_inexact_division_raises():
    # u - 1 does not divide 1 + 3u: the prefix sum 4 is left over; nor does u + 1
    assert _div_binomial([1, 3], 1) is None
    assert _div_cyclotomic([1, 3], 2) is None
    assert binomial_div(LaurentU({1: 3, 0: 1}), 1) is None
    # the remainder does not vanish
    assert binomial_div(qbracket(2) * qbracket(3) + 1, 4) is None
    with pytest.raises(ArithmeticError):
        RationalFunctionU(qbracket(2) * qbracket(3) + 1, (2,)).as_laurent()
    # a lower-degree dividend
    assert binomial_div(qbracket(1), 4) is None
    with pytest.raises(ArithmeticError):
        RationalFunctionU(qbracket(1), (2,)).as_laurent()
    # rational content and u-shifts do not make an exact quotient inexact
    a = (qbracket(2) * LaurentU({1: 3, 0: Fraction(-1, 2)})).shift(5) * Fraction(4, 9)
    b = LaurentU({1: 3, 0: Fraction(-1, 2)}).shift(3) * Fraction(4, 9)
    assert binomial_div(-a, 4) == -b  # a = (u^4 - 1) b
    assert cyclotomic_div(a, 4) == binomial(2) * b  # u^4 - 1 = (u^2 - 1) Phi_4
    assert RationalFunctionU(a, (2,)).as_laurent() == LaurentU({1: 3, 0: Fraction(-1, 2)}).shift(5) * Fraction(4, 9)


def _assert_content_layout(x):
    """x = content * P(u) with P primitive, its top coefficient positive, and the pair unique."""
    assert LaurentU(x.terms) == x
    assert hash(LaurentU(x.terms)) == hash(x)
    if not x:
        assert (x.content, x.poly) == (0, {})
        return
    assert x.content != 0
    assert all(type(v) is int and v for v in x.poly.values())
    assert gcd(*x.poly.values()) == 1
    assert x.poly[max(x.poly)] > 0


signed_bracket_args = st.lists(st.integers(-7, 7).filter(bool), max_size=4)


@settings(max_examples=80, deadline=None)
@given(laurents(), laurents(), nonzero_fracs, st.integers(-6, 6), signed_bracket_args)
def test_every_result_keeps_the_content_layout(a, b, scale, k, args):
    brackets = bracket_product(args)
    positive = [abs(d) for d in args]
    s = abs(k) + 1
    x, y = RationalFunctionU(a * brackets, positive), RationalFunctionU(b, positive[:1])
    values = [
        a + b, a - b, a - a, a * b, a * scale, -a, a.shift(k), a.bar(),
        brackets, brackets.bar(), brackets * a, (a * b).bar(),
        binomial_div(a * binomial(s), s), cyclotomic_div(a * ref_cyclotomic(s) * b, s),
        *x.canonical(), *y.canonical(), *RationalFunctionU(a * scale).canonical(),
        x.as_laurent(), (x + y).num, (x - y).num, (x * y).num, (x * scale).num, x.bar().num,
    ]
    for x in values:
        _assert_content_layout(x)


# -- the bracket ring against expanded, cross-multiplied references ----------------

positive_bracket_args = st.lists(st.integers(1, 6), max_size=3)


@st.composite
def ring_values(draw):
    """(numerator, bracket arguments): a LaurentU, zero now and then, over a multiset of brackets."""
    num = draw(st.one_of(laurents(), st.just(LaurentU())))
    return num, draw(positive_bracket_args)


def _same_value(got, ref_num, ref_den):
    """got equals ref_num / ref_den, by cross-multiplying with the expanded denominators."""
    return got.num * ref_den == ref_num * bracket_product(got.den)


@settings(max_examples=150, deadline=None)
@given(ring_values(), ring_values(), positive_bracket_args, nonzero_fracs)
def test_bracket_ring_matches_the_cross_multiplied_reference(x, y, extra, scale):
    (na, da), (nb, db) = x, y
    a, b = RationalFunctionU(na, da), RationalFunctionU(nb, db)
    pa, pb = bracket_product(da), bracket_product(db)
    assert list(a.den) == (sorted(da) if na else [])
    assert _same_value(a + b, na * pb + nb * pa, pa * pb)
    assert _same_value(a - b, na * pb - nb * pa, pa * pb)
    assert _same_value(a * b, na * nb, pa * pb)
    assert _same_value(a * scale, na * scale, pa)
    assert _same_value(-a, -na, pa)
    assert _same_value(a.bar(), na.bar(), pa.bar())
    assert (a == b) == (na * pb == nb * pa)
    assert (a == 0) == (not na) and bool(a) == bool(na)
    # the same value over more brackets: equal, with the same hash and canonical form
    wider = RationalFunctionU(na * bracket_product(extra), da + extra)
    assert a == wider and hash(a) == hash(wider)
    assert a.canonical() == wider.canonical() == ref_canonical(na, pa)
    # division by one bracket at a time
    assert RationalFunctionU(na * pa, da).as_laurent() == na
    if extra:
        with pytest.raises(ArithmeticError):
            RationalFunctionU(pa, da + extra).as_laurent()
        left = RationalFunctionU(na * pa, da + extra)
        expected = ref_exact_div(na, bracket_product(extra)) if na else na
        if expected is None:
            with pytest.raises(ArithmeticError):
                left.as_laurent()
        else:
            assert left.as_laurent() == expected


# -- bracket normal forms ----------------------------------------------------------


def test_as_laurent_raises_on_a_quotient_with_a_factor_left_over():
    with pytest.raises(ArithmeticError):
        bracket_ratio((2,), (3,)).as_laurent()
    assert bracket_ratio((6,), (3,)).as_laurent() == LaurentU({3: 1, -3: 1})  # u^3 + u^-3


def test_bracket_normal_cancels_and_signs():
    assert bracket_normal((6, -3, 2), (3, 2, 2)) == (-1, (6,), (2,))
    assert bracket_normal((-1, -2), ()) == (1, (1, 2), ())
    assert bracket_normal(range(3, 0, -1), range(1, 3)) == (1, (3,), ())
    assert bracket_normal((), ()) == (1, (), ())


def test_bracket_normal_zero():
    # a zero numerator bracket is the zero value, whatever else the ratio holds
    assert bracket_normal((0,), ()) == bracket_normal((3, 0, -2), (5,)) == (0, (), ())
    assert not bracket_ratio((3, 0, -2), (5,))
    assert bracket_normal((2,), (2,)) != bracket_normal((0,), ())
    with pytest.raises(ZeroDivisionError):
        bracket_normal((1,), (2, 0))
    with pytest.raises(ZeroDivisionError):
        bracket_ratio((1,), (2, 0))


def test_bracket_normal_is_one_to_one_on_small_ratios():
    # every ratio with at most two brackets over at most two, arguments in +-1..4
    args = [d for d in range(-4, 5) if d]
    sides = [c for k in range(3) for c in itertools.combinations_with_replacement(args, k)]
    forms_of_value: dict = {}
    values_of_form: dict = {}
    for num in sides:
        for den in sides:
            value, form = bracket_ratio(num, den), bracket_normal(num, den)
            forms_of_value.setdefault(value, set()).add(form)
            values_of_form.setdefault(form, set()).add(value)
    assert all(len(forms) == 1 for forms in forms_of_value.values())
    assert all(len(values) == 1 for values in values_of_form.values())
    assert len(forms_of_value) > 200  # many distinct values, not a few large classes


@st.composite
def bracket_ratio_pairs(draw):
    """Two ratios of brackets, as (num, den) argument lists; often one value twice.

    The second is either drawn afresh from small arguments, so that values
    coincide by accident, or is the first rewritten: both sides multiplied by
    the same brackets, each side shuffled, and an even number of arguments
    negated.
    """
    first = (draw(small_bracket_args), draw(small_bracket_args))
    if draw(st.booleans()):
        return first, (draw(small_bracket_args), draw(small_bracket_args))
    shared = draw(small_bracket_args)
    num, den = list(first[0]) + shared, list(first[1]) + shared
    signs = [1] * (len(num) + len(den))
    if signs:
        flips = draw(st.lists(st.integers(0, len(signs) - 1), max_size=4))
        for i in flips[: len(flips) // 2 * 2]:  # an even number of sign changes
            signs[i] = -signs[i]
    num = [s * d for s, d in zip(signs, num)]
    den = [s * d for s, d in zip(signs[len(num):], den)]
    return first, (draw(st.permutations(num)), draw(st.permutations(den)))


small_bracket_args = st.lists(st.integers(-5, 5).filter(bool), max_size=3)


@settings(max_examples=300, deadline=None)
@given(bracket_ratio_pairs())
def test_bracket_normal_agrees_exactly_when_the_values_do(pair):
    (a, b), (c, d) = pair
    same_value = bracket_ratio(a, b) == bracket_ratio(c, d)
    same_form = bracket_normal(a, b) == bracket_normal(c, d)
    assert same_value or not same_form, pair  # equal forms are equal values
    assert same_form or not same_value, pair  # and equal values have equal forms
