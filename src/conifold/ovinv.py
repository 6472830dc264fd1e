"""Ooguri-Vafa integrality invariants of the one-point amplitudes.

Three families, all obtained by Moebius inversion of divisor-sum recursions:

  * d_{k,m}: integers extracted from the genus-zero potential via
    log(1 - e^{-kt} x^m) resummation;
  * e_{k,m}: half-integers from the variant resummation in log(1 - Q^k x^m);
  * N_{m,k}: integer Laurent polynomials in u, symmetric under u -> u^{-1},
    extracted from the all-genus amplitude.

The gcd convention gcd(0, m) = m makes the k = 0 columns well defined.  This
module computes values only; the CLI checks integrality, bar symmetry, the
recursions and the named sequences against them.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

from .amplitudes import genus0_integer, onepoint_bracket
from .laurent import LaurentU, RationalFunctionU, qbracket
from .partitions import divisors, mobius


def genus0_mobius_sum(a: int, k: int, m: int, t: int) -> Fraction:
    """(1/m^2) sum_{n | (k, m)} mu(n) (-1)^{t/n} T(a, m/n, k/n), with T = genus0_integer.

    That is -sum_n mu(n)/n^2 (-1)^{t/n} [Q^{k/n}] genus0_onepoint(a, m/n): one
    integer sum over one denominator.  The sign exponent t, a multiple of every
    such n, is k for d, 0 for e, and ma + k for N_{m,k}(1)/m.
    """
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    total = 0
    for n in divisors(gcd(k, m)):
        # the sign from the parity: t = ma + k is negative at negative framing,
        # where (-1) ** (t // n) would be a float
        term = mobius(n) * genus0_integer(a, m // n, k // n)
        total += -term if (t // n) % 2 else term
    return Fraction(total, m * m)


def disc_d(a: int, k: int, m: int) -> Fraction:
    """Genus-zero invariant d_{k,m} by Moebius inversion.

    Beware: at odd framing the value is genuinely half-integral at some spots
    with k and m both even (the recursion itself forces d_{2,2} = (a+2)/2),
    so integrality of the d family only holds framing by framing.
    """
    return genus0_mobius_sum(a, k, m, k)


def disc_e(a: int, k: int, m: int) -> Fraction:
    """Half-integer invariant e_{k,m}.

    At coprime (k, m) the Moebius sums collapse to a single term and
    e = (-1)^k d exactly; for a >= 0 the factor product is positive, so this
    is the familiar statement e = |d|.
    """
    return genus0_mobius_sum(a, k, m, 0)


def allgenus_rhs(a: int, k: int, m: int, scale: int) -> RationalFunctionU:
    """(-1)^{ma+k} [Q^k] F_hat_m evaluated at u -> u^scale: the all-genus recursion's right side."""
    return onepoint_bracket(a, m, k, scale) * (-1 if (m * a + k) % 2 else 1)


def ov_N(a: int, m: int, k: int) -> LaurentU:
    """All-genus invariant N_{m,k}(u) = [1] * (Moebius sum), a Laurent polynomial.

    as_laurent() raises ArithmeticError if the product keeps a denominator.
    """
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    total = RationalFunctionU(0)
    for n in divisors(gcd(k, m)):
        total = total + Fraction(mobius(n)) * allgenus_rhs(a, k // n, m // n, n)
    return (RationalFunctionU(qbracket(1)) * total).as_laurent()


# -- named sequences ----------------------------------------------------------


def seq_dmm(m: int) -> Fraction:
    """d_{m,m} at zero framing via the divisor sum (1/2m^2) sum_{l|m} (-1)^l mu(m/l) C(2l,l)."""
    if m < 1:
        raise ValueError("m must be positive")
    total = 0
    for l in divisors(m):
        total += (-1) ** l * mobius(m // l) * comb(2 * l, l)
    return Fraction(total, 2 * m * m)


def catalan_number(k: int) -> int:
    """C(k) = (2k)!/(k!(k+1)!) for k >= 0; |d_{k,k+1}| at zero framing for k >= 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return factorial(2 * k) // (factorial(k) * factorial(k + 1))


# The A131868 excerpt as printed in the source table for |d_{m,m}|; the
# divisor-sum formula disagrees with it at one position (a skipped term), so
# comparisons against this list are reported, never asserted.
A131868_PRINTED = (1, 1, 1, 2, 5, 13, 100, 300, 925, 2911, 9386, 30771, 102347, 344705, 1173960)


def dmm_report(m_max: int):
    """Formula-derived |d_{m,m}| next to the printed excerpt, with match flags."""
    rows = []
    for m in range(1, m_max + 1):
        value = abs(seq_dmm(m))
        printed = A131868_PRINTED[m - 1] if m <= len(A131868_PRINTED) else None
        rows.append(
            {
                "m": m,
                "formula": value,
                "printed": printed,
                "matches_printed": (None if printed is None else value == printed),
            }
        )
    return rows
