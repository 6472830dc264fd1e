"""Every bracket product is built by `bracket_product`; these loops are the references.

Before `bracket_product` became the one builder, the functions below multiplied
`qbracket` values into an accumulator one `LaurentU` product at a time.  Those
loop forms are kept here as references.  The builders must return the same
numerator and denominator term dicts, not only equal canonical forms: equal
dicts mean every later gcd, canonical form and printed byte is unchanged.
"""

from fractions import Fraction

from conifold.amplitudes import closed_string_logZ, onepoint_closed
from conifold.laurent import LaurentU, RationalFunctionU, qbinomial, qbracket, qfactorial
from conifold.ovinv import _allgenus_rhs


def loop_qfactorial(n):
    out = LaurentU.const(1)
    for k in range(1, n + 1):
        out = out * qbracket(k)
    return out


def loop_qbinomial(n, j):
    num = LaurentU.const(1)
    for t in range(j):
        num = num * qbracket(n - t)
    return RationalFunctionU(num, loop_qfactorial(j))


def loop_onepoint_closed_terms(a, n):
    terms = {}
    for j in range(n + 1):
        num = LaurentU.const(1)
        for k in range(1, n):
            num = num * qbracket(a * n + j + k)
        if num.is_zero():
            continue
        terms[(j,)] = RationalFunctionU(num, loop_qfactorial(j) * loop_qfactorial(n - j))
    return terms


def loop_allgenus_rhs(a, k, m, scale):
    sign = -1 if (m * a + k) % 2 else 1
    num = LaurentU.const(sign)
    for j in range(1, m):
        num = num * qbracket(scale * (m * a + j + k))
    den = LaurentU.const(1)
    for j in range(1, k + 1):
        den = den * qbracket(scale * j)
    for j in range(1, m - k + 1):
        den = den * qbracket(scale * j)
    return RationalFunctionU(num, den)


def assert_same_pair(got, ref):
    # LaurentU equality compares the term dicts; RationalFunctionU equality
    # would compare canonical forms and hide a different unreduced pair
    assert got.num == ref.num, (got, ref)
    assert got.den == ref.den, (got, ref)


def test_qfactorial_matches_loop():
    for n in range(10):
        assert qfactorial(n) == loop_qfactorial(n)


def test_qbinomial_matches_loop():
    for n in range(-4, 10):
        for j in range(8):
            assert_same_pair(qbinomial(n, j), loop_qbinomial(n, j))


def test_onepoint_closed_terms_match_loop():
    for a in range(-3, 4):
        for n in range(1, 6):
            got = onepoint_closed(a, n).value.terms
            ref = loop_onepoint_closed_terms(a, n)
            assert got.keys() == ref.keys(), (a, n)
            for j in ref:
                assert_same_pair(got[j], ref[j])


def test_allgenus_rhs_matches_loop():
    for a in range(-3, 4):
        for m in range(1, 7):
            for k in range(m + 1):
                for scale in (1, 2, 3):
                    assert_same_pair(_allgenus_rhs(a, k, m, scale), loop_allgenus_rhs(a, k, m, scale))


def test_closed_string_coefficients_match_loop():
    terms = closed_string_logZ(8).terms
    for n in range(1, 9):
        ref = RationalFunctionU(LaurentU.const(Fraction((-1) ** (n - 1), n)), qbracket(n) ** 2)
        assert_same_pair(terms[(n,)], ref)
