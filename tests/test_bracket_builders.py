"""Every bracket product is built by `bracket_product`; these loops are the references.

Before `bracket_product` became the one builder, the functions below multiplied
`qbracket` values into an accumulator one `LaurentU` product at a time.  Those
loop forms are kept here as references: each returns an expanded (numerator,
denominator) pair of LaurentU values, and an engine value equals it when
cross-multiplying with the expanded brackets of its own denominator gives
equal polynomials.  No engine arithmetic on the bracket ring takes part.

The rational ring's references are the integer loops that `genus0_onepoint`
and the genus-zero recursion's right side ran before both read the bracket
arguments of `onepoint_args` in the classical limit [d] -> d.
"""

from fractions import Fraction
from math import factorial

from conifold.amplitudes import closed_string_logZ, genus0_coefficient, genus0_onepoint, onepoint_closed
from conifold.laurent import LaurentU, bracket_product, qbinomial, qbracket, qfactorial
from conifold.ovinv import allgenus_rhs


def loop_qfactorial(n):
    out = LaurentU({0: 1})
    for k in range(1, n + 1):
        out = out * qbracket(k)
    return out


def loop_qbinomial(n, j):
    num = LaurentU({0: 1})
    for t in range(j):
        num = num * qbracket(n - t)
    return num, loop_qfactorial(j)


def loop_onepoint_closed_terms(a, n):
    terms = {}
    for j in range(n + 1):
        num = LaurentU({0: 1})
        for k in range(1, n):
            num = num * qbracket(a * n + j + k)
        if not num:
            continue
        terms[(j,)] = num, loop_qfactorial(j) * loop_qfactorial(n - j)
    return terms


def loop_allgenus_rhs(a, k, m, scale):
    sign = -1 if (m * a + k) % 2 else 1
    num = LaurentU({0: sign})
    for j in range(1, m):
        num = num * qbracket(scale * (m * a + j + k))
    den = LaurentU({0: 1})
    for j in range(1, k + 1):
        den = den * qbracket(scale * j)
    for j in range(1, m - k + 1):
        den = den * qbracket(scale * j)
    return num, den


def loop_genus0_rhs(a, k, m):
    prod = 1
    for j in range(1, m):
        prod *= m * a + j + k
    return Fraction(prod, m * factorial(k) * factorial(m - k))


def loop_genus0_onepoint_terms(a, n):
    terms = {}
    for j in range(n + 1):
        prod = 1
        for k in range(1, n):
            prod *= n * a + j + k
        c = Fraction(-prod, n * factorial(j) * factorial(n - j))
        if c:
            terms[(j,)] = c
    return terms


def assert_same_pair(got, ref):
    # LaurentU equality compares the term dicts, so neither side goes through
    # the bracket ring's own equality
    ref_num, ref_den = ref
    assert got.num * ref_den == ref_num * bracket_product(got.den), (got, ref)


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
            got = onepoint_closed(a, n).terms
            ref = loop_onepoint_closed_terms(a, n)
            assert got.keys() == ref.keys(), (a, n)
            for j in ref:
                assert_same_pair(got[j], ref[j])


def test_allgenus_rhs_matches_loop():
    for a in range(-3, 4):
        for m in range(1, 7):
            for k in range(m + 1):
                for scale in (1, 2, 3):
                    assert_same_pair(allgenus_rhs(a, k, m, scale), loop_allgenus_rhs(a, k, m, scale))


def test_closed_string_coefficients_match_loop():
    terms = closed_string_logZ(8).terms
    for n in range(1, 9):
        ref = LaurentU({0: Fraction((-1) ** (n - 1), n)}), qbracket(n) ** 2
        assert_same_pair(terms[(n,)], ref)


def test_genus0_rhs_matches_loop():
    # the genus-zero recursion's right side is -[Q^k] genus0_onepoint(a, m)
    for a in range(-3, 4):
        for m in range(1, 8):
            for k in range(m + 1):
                got = -genus0_coefficient(a, m, k)
                assert type(got) is Fraction and got == loop_genus0_rhs(a, k, m), (a, k, m)


def test_genus0_onepoint_matches_loop():
    for a in range(-3, 4):
        for n in range(1, 8):
            got = genus0_onepoint(a, n)
            assert got.variables == ("Q",) and got.orders == (n,)
            assert got.terms == loop_genus0_onepoint_terms(a, n), (a, n)
            assert all(type(c) is Fraction for c in got.terms.values())
