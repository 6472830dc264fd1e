from fractions import Fraction
from math import factorial, gcd

import pytest

from conifold.amplitudes import genus0_coefficient, genus0_integer, genus0_onepoint
from conifold.laurent import LaurentU, RationalFunctionU, _lu, qbracket
from conifold.ovinv import (
    A131868_PRINTED,
    allgenus_rhs,
    catalan_number,
    disc_d,
    disc_e,
    dmm_report,
    genus0_mobius_sum,
    ov_N,
    seq_dmm,
)
from conifold.partitions import divisors, mobius
from conifold.series import TruncatedSeries


def _reference_ov_N_consistency(a: int, m: int, k: int) -> bool:
    """Check sum_{j | (k,m)} N_{m/j,k/j}(u^j)/[j] against the amplitude coefficient."""
    lhs = RationalFunctionU(0)
    # gcd(0, m) = m so the k = 0 column participates in the divisor sum
    for j in divisors(m if k == 0 else gcd(k, m)):
        nj = ov_N(a, m // j, k // j)
        # u -> u^j (j >= 1) keeps P primitive with a positive top coefficient
        rescaled = _lu(nj.content, {e * j: v for e, v in nj.poly.items()})
        lhs = lhs + RationalFunctionU(rescaled, (j,))
    return lhs == allgenus_rhs(a, k, m, 1)


def recursion_holds(a: int, k: int, m: int, signed: bool, value: Fraction) -> bool:
    """Whether `value` at (k, m) solves the defining recursion of d (signed) or e.

    value + sum_{j | (k, m), j > 1} v_{k/j,m/j}/j^2 = -s [Q^k] at winding m,
    s = (-1)^k for d and 1 for e; the smaller v are recomputed by inversion.
    """
    lhs = value
    for j in divisors(gcd(k, m)):
        if j > 1:
            lhs += Fraction(1, j * j) * genus0_mobius_sum(a, k // j, m // j, k // j if signed else 0)
    sign = -1 if signed and k % 2 else 1
    # -s [Q^k] genus0_onepoint(a, m) = s T(a, m, k)/m^2
    return lhs == Fraction(sign * genus0_integer(a, m, k), m * m)


# -- special-case cross-checks --------------------------------------------------
#
# When gcd(k, m) is a prime p (or k = p^2 with m = pn, p coprime to n), the
# Moebius sum has exactly two terms and can be written out by hand.  These
# expanded forms cross-check the general divisor-sum path.


def _reference_is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _reference_disc_d_prime(a: int, p: int, n: int) -> Fraction:
    """d_{p, pn} for prime p: the recursion peeled once,
    (-1)^p (rhs at (p, pn)) + prod_{j=2}^{n}(na+j) / (p^2 n!)."""
    if not _reference_is_prime(p):
        raise ValueError("p must be prime")
    tail = 1
    for j in range(2, n + 1):
        tail *= n * a + j
    return (-1) ** (p + 1) * genus0_coefficient(a, p * n, p) + Fraction(tail, p * p * factorial(n))


def _reference_disc_d_prime_square(a: int, p: int, n: int) -> Fraction:
    """d_{p^2, pn} for prime p with gcd(p, n) = 1 and n >= p."""
    if not _reference_is_prime(p) or gcd(p, n) != 1 or n < p:
        raise ValueError("need prime p, gcd(p, n) = 1, and n >= p")
    head = (-1) ** (p + 1) * genus0_coefficient(a, p * n, p * p)
    tail = 1
    for i in range(1, n):
        tail *= n * a + i + p
    return head + (-1) ** (p - 1) * Fraction(tail, p * p * n * factorial(p) * factorial(n - p))


def _reference_ov_N_prime(a: int, p: int, n: int) -> LaurentU:
    """N_{pn, p} for prime p: the two-term divisor sum written out."""
    if not _reference_is_prime(p):
        raise ValueError("p must be prime")
    total = allgenus_rhs(a, p, p * n, 1) - allgenus_rhs(a, 1, n, p)
    return (RationalFunctionU(qbracket(1)) * total).as_laurent()


def _reference_ov_N_prime_square(a: int, p: int, n: int) -> LaurentU:
    """N_{pn, p^2} for prime p with gcd(p, n) = 1 and n >= p."""
    if not _reference_is_prime(p) or gcd(p, n) != 1 or n < p:
        raise ValueError("need prime p, gcd(p, n) = 1, and n >= p")
    total = allgenus_rhs(a, p * p, p * n, 1) - allgenus_rhs(a, p, n, p)
    return (RationalFunctionU(qbracket(1)) * total).as_laurent()


def test_disc_d_values():
    assert disc_d(0, 1, 2) == -1
    assert abs(disc_d(0, 2, 2)) == 1
    assert abs(disc_d(0, 4, 5)) == 14  # the Catalan number C(4)
    assert disc_d(0, 0, 1) == 1
    assert disc_d(0, 0, 2) == 0
    with pytest.raises(ValueError):
        disc_d(0, 3, 2)


def test_disc_d_zero_framing_integrality_m20():
    for m in range(1, 21):
        for k in range(0, m + 1):
            d = disc_d(0, k, m)
            assert d.denominator == 1
            assert recursion_holds(0, k, m, True, d), (k, m)


def test_disc_d_known_half_integer_exceptions():
    # the recursion forces d_{2,2} = (a+2)/2, non-integral at odd framing
    assert disc_d(1, 2, 2) == Fraction(3, 2)
    assert disc_d(-1, 2, 2) == Fraction(1, 2)
    assert disc_d(-3, 2, 2) == Fraction(-1, 2)
    # the values still solve the recursion; only integrality fails
    assert recursion_holds(1, 2, 2, True, Fraction(3, 2))


def test_disc_e_table_spot_values():
    assert disc_e(0, 2, 2) == Fraction(1, 2)
    assert disc_e(0, 5, 10) == 5045
    assert disc_e(0, 6, 10) == 10507
    assert disc_e(0, 2, 4) == Fraction(7, 2)


def test_recursions_hold_on_grid():
    for a in (-2, 0, 3):
        for m in range(1, 13):
            for k in range(0, m + 1):
                assert recursion_holds(a, k, m, True, disc_d(a, k, m)), (a, k, m)
                assert recursion_holds(a, k, m, False, disc_e(a, k, m)), (a, k, m)


def _assert_checked_pair(a, k, m):
    """d integral and e half-integral at (k, m), each solving its recursion; returns (d, e)."""
    d, e = disc_d(a, k, m), disc_e(a, k, m)
    assert d.denominator == 1, (a, k, m)
    assert (2 * e).denominator == 1, (a, k, m)
    assert recursion_holds(a, k, m, True, d), (a, k, m)
    assert recursion_holds(a, k, m, False, e), (a, k, m)
    return d, e


def test_coprime_agreement():
    for a in (0, 1, 2, 3):
        for m in range(1, 16):
            for k in range(1, m + 1):
                if gcd(k, m) == 1:
                    d, e = _assert_checked_pair(a, k, m)
                    assert e == abs(d), (a, k, m)
    # at negative framing the sign pattern is e = (-1)^k d instead
    for a in (-2, -3):
        for m in range(1, 10):
            for k in range(1, m + 1):
                if gcd(k, m) == 1:
                    d, e = _assert_checked_pair(a, k, m)
                    assert e == (-1) ** k * d, (a, k, m)


def test_generating_function_consistency():
    # sum_{k,m} m d_{k,m} log(1 - E^k x^m) reproduces x d/dx of the genus-zero
    # potential at zero framing, through x^8 E^8
    N = 8
    vars_, orders = ("x", "E"), (N, N)
    lhs = TruncatedSeries(vars_, orders)
    for n in range(1, N + 1):
        psi = genus0_onepoint(0, n)
        terms = {}
        for (j,), c in psi.terms.items():
            terms[(n, j)] = Fraction(n) * c * (-1) ** j  # Q = -E
        lhs = lhs + TruncatedSeries(vars_, orders, terms)
    rhs = TruncatedSeries(vars_, orders)
    one = TruncatedSeries(vars_, orders, {(0, 0): Fraction(1)})
    for m in range(1, N + 1):
        for k in range(0, m + 1):
            d = disc_d(0, k, m)
            if not d:
                continue
            monomial = TruncatedSeries(vars_, orders, {(m, k): Fraction(1)})
            rhs = rhs + (one - monomial).log().scale(Fraction(m) * d)
    assert lhs == rhs


def _reference_monomial(exponent: int) -> LaurentU:
    return LaurentU({exponent: 1})


def test_ov_N_printed_zero_framing():
    u = _reference_monomial
    assert ov_N(0, 1, 0) == u(0)
    assert ov_N(0, 1, 1) == -u(0)
    assert ov_N(0, 2, 0) == LaurentU()
    assert ov_N(0, 2, 1) == -(u(1) + u(-1))
    assert ov_N(0, 2, 2) == u(1) + u(-1)
    assert ov_N(0, 3, 0) == LaurentU()
    assert ov_N(0, 3, 1) == -(u(2) + u(0) + u(-2))
    assert ov_N(0, 3, 2) == u(4) + u(2) + 2 * u(0) + u(-2) + u(-4)
    assert ov_N(0, 3, 3) == -(u(4) + u(0) + u(-4))


def test_ov_N_printed_framing_one_up_to_x_sign():
    # the printed framing-one table absorbs x -> -x, so odd windings flip sign
    # relative to the divisor-sum normalization used here
    u = _reference_monomial

    def printed(m, value):
        return value if m % 2 == 0 else -value

    assert ov_N(1, 1, 0) == printed(1, u(0))
    assert ov_N(1, 1, 1) == printed(1, -u(0))
    assert ov_N(1, 2, 0) == u(1) + u(-1)
    assert ov_N(1, 2, 1) == -(u(3) + u(1) + u(-1) + u(-3))
    assert ov_N(1, 2, 2) == u(3) + u(-3)
    q_sum_2 = u(4) + u(2) + u(0) + u(-2) + u(-4)      # sum_{k=-2}^{2} q^k
    q_sum_3 = u(6) + q_sum_2 + u(-6)                  # sum_{k=-3}^{3} q^k
    core = u(4) + u(0) + u(-4)                        # q^2 + 1 + q^-2
    assert ov_N(1, 3, 1) == printed(3, -q_sum_2 * core)
    assert ov_N(1, 3, 2) == printed(3, q_sum_3 * core)
    assert ov_N(1, 3, 3) == printed(3, -(u(2) + u(0) + u(-2)) * (u(2) - u(0) + u(-2)) * (u(6) + u(0) + u(-6)))


def test_ov_N_printed_3_0_misprint():
    # the printed N_{3,0} at framing one reads q^2 - q + 1 - q^{-1} + q^{-2},
    # which contradicts the divisor-sum identity the table is derived from;
    # the identity forces q^2 + 1 + q^{-2} (up to the odd-winding sign)
    u = _reference_monomial
    identity_value = -(u(4) + u(0) + u(-4))
    assert ov_N(1, 3, 0) == identity_value
    printed = u(4) - u(2) + u(0) - u(-2) + u(-4)
    assert ov_N(1, 3, 0) != -printed  # reported: misprint in the source table
    assert _reference_ov_N_consistency(1, 3, 0)


def test_ov_N_integrality_and_bar_symmetry():
    for a in (-2, -1, 0, 1, 2):
        for m in range(1, 8):
            for k in range(0, m + 1):
                value = ov_N(a, m, k)
                assert value.has_integer_coeffs(), (a, m, k)
                assert value.bar() == value, (a, m, k)


@pytest.mark.parametrize("a", [-2, 0, 2])
def test_ov_N_at_u_one_is_m_times_disc_d(a):
    # at u = 1 only the genus-zero part survives; at even framing the sign
    # (-1)^{(ma+k)/n+1} of the Moebius sum is the -(-1)^{k/n} of d_{k,m}
    for m in range(1, 11):
        for k in range(0, m + 1):
            value = ov_N(a, m, k)
            assert value.content * sum(value.poly.values()) == m * disc_d(a, k, m), (m, k)


def _reference_mobius_sum(a, k, m, sign):
    """sum_{n | (k, m)} mu(n)/n^2 sign(n) [Q^{k/n}] at winding m/n, one Fraction a term."""
    return sum(Fraction(mobius(n), n * n) * sign(n) * genus0_coefficient(a, m // n, k // n)
               for n in divisors(gcd(k, m)))


def _parity_sign(e):
    """(-1)^e from the parity, an int also for negative e."""
    return -1 if e % 2 else 1


def test_one_mobius_sum_is_the_three_fraction_sums():
    # d, e and the ov-n anchor at u = 1, negative framings included, where ma + k < 0
    for a in range(-3, 4):
        for m in range(1, 25):
            for k in range(0, m + 1):
                d = -_reference_mobius_sum(a, k, m, lambda n: _parity_sign(k // n))
                e = -_reference_mobius_sum(a, k, m, lambda n: 1)
                anchor = _reference_mobius_sum(a, k, m, lambda n: _parity_sign((m * a + k) // n + 1))
                assert disc_d(a, k, m) == genus0_mobius_sum(a, k, m, k) == d, (a, k, m)
                assert disc_e(a, k, m) == genus0_mobius_sum(a, k, m, 0) == e, (a, k, m)
                value = genus0_mobius_sum(a, k, m, m * a + k)
                assert type(value) is Fraction and value == anchor, (a, k, m)


def test_ov_N_inversion_identity():
    for a in (-2, -1, 0, 1, 2):
        for m in range(1, 11):
            for k in range(0, m + 1):
                assert _reference_ov_N_consistency(a, m, k), (a, m, k)


def test_prime_case_cross_checks():
    for a in (-2, 0, 1, 3):
        for p in (2, 3, 5):
            for n in (1, 2, 3, 4):
                assert _reference_disc_d_prime(a, p, n) == disc_d(a, p, p * n), (a, p, n)
                value = ov_N(a, p * n, p)
                assert value.has_integer_coeffs() and value.bar() == value, (a, p, n)
                assert _reference_ov_N_prime(a, p, n) == value, (a, p, n)
        for p, n in ((2, 3), (2, 5), (3, 4), (3, 5)):
            assert _reference_disc_d_prime_square(a, p, n) == disc_d(a, p * p, p * n), (a, p, n)
            value = ov_N(a, p * n, p * p)
            assert value.has_integer_coeffs() and value.bar() == value, (a, p, n)
            assert _reference_ov_N_prime_square(a, p, n) == value, (a, p, n)
    with pytest.raises(ValueError):
        _reference_disc_d_prime(0, 4, 2)
    with pytest.raises(ValueError):
        _reference_disc_d_prime_square(0, 3, 6)


def test_seq_dmm():
    assert abs(seq_dmm(1)) == 1
    assert abs(seq_dmm(4)) == 2
    assert abs(seq_dmm(5)) == 5
    assert abs(seq_dmm(7)) == 35  # the term the printed excerpt skips
    for m in range(1, 16):
        assert abs(seq_dmm(m)) == abs(disc_d(0, m, m))


def test_dmm_report_flags_printed_mismatch():
    rows = dmm_report(10)
    assert rows[0]["matches_printed"] is True
    mismatches = [r for r in rows if r["matches_printed"] is False]
    assert mismatches, "the printed excerpt is known to skip a term"
    assert mismatches[0]["m"] == 7
    assert mismatches[0]["formula"] == 35
    assert mismatches[0]["printed"] == A131868_PRINTED[6]


def test_seq_catalan():
    # |d_{k,k+1}| at zero framing is the Catalan number C(k)
    assert [catalan_number(k) for k in (0, 1, 5, 9)] == [1, 1, 42, 4862]
    for k in range(1, 13):
        assert abs(disc_d(0, k, k + 1)) == catalan_number(k)
