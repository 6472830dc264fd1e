"""Ooguri-Vafa integrality invariants of the one-point amplitudes.

Three families, all obtained by Moebius inversion of divisor-sum recursions:

  * d_{k,m}: integers extracted from the genus-zero potential via
    log(1 - e^{-kt} x^m) resummation;
  * e_{k,m}: half-integers from the variant resummation in log(1 - Q^k x^m);
  * N_{m,k}: integer Laurent polynomials in u, symmetric under u -> u^{-1},
    extracted from the all-genus amplitude.

The gcd convention gcd(0, m) = m makes the k = 0 columns well defined.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd

from .amplitudes import genus0_coefficient, onepoint_bracket
from .laurent import LaurentU, RationalFunctionU, qbracket
from .partitions import divisors, mobius


def _gcd0(k: int, m: int) -> int:
    # gcd(0, m) = m so the k = 0 column participates in the divisor sums
    return m if k == 0 else gcd(k, m)


def disc_d_raw(a: int, k: int, m: int) -> Fraction:
    """The Moebius-inversion value of d_{k,m}, with no integrality assertion.

    Beware: at odd framing the value is genuinely half-integral at some spots
    with k and m both even (the recursion itself forces d_{2,2} = (a+2)/2),
    so integrality of the d family only holds framing by framing.
    """
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    value = Fraction(0)
    for n in divisors(_gcd0(k, m)):
        value -= Fraction(mobius(n), n * n) * (-1) ** (k // n) * genus0_coefficient(a, m // n, k // n)
    return value


def disc_d_recursion_holds(a: int, k: int, m: int) -> bool:
    """Independent check of d_{k,m} + sum_{j>1} d_{k/j,m/j}/j^2 = (-1)^k (rhs),
    where rhs = -[Q^k] genus0_onepoint(a, m)."""
    lhs = disc_d_raw(a, k, m)
    for j in divisors(_gcd0(k, m)):
        if j > 1:
            lhs += Fraction(1, j * j) * disc_d_raw(a, k // j, m // j)
    return lhs == (-1) ** (k + 1) * genus0_coefficient(a, m, k)


def disc_d(a: int, k: int, m: int) -> Fraction:
    """Genus-zero integer invariant d_{k,m} by Moebius inversion.

    Asserts integrality and the divisor-sum recursion; raises ArithmeticError
    where integrality fails (see disc_d_raw for the odd-framing exceptions).
    """
    value = disc_d_raw(a, k, m)
    if value.denominator != 1:
        raise ArithmeticError(f"d_{{{k},{m}}}^({a}) = {value} is not an integer")
    if not disc_d_recursion_holds(a, k, m):
        raise ArithmeticError(f"d_{{{k},{m}}}^({a}) fails its defining recursion")
    return value


def disc_e_raw(a: int, k: int, m: int) -> Fraction:
    """The Moebius-inversion value of e_{k,m}, with no assertions."""
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    value = Fraction(0)
    for n in divisors(_gcd0(k, m)):
        value -= Fraction(mobius(n), n * n) * genus0_coefficient(a, m // n, k // n)
    return value


def disc_e_recursion_holds(a: int, k: int, m: int) -> bool:
    lhs = disc_e_raw(a, k, m)
    for j in divisors(_gcd0(k, m)):
        if j > 1:
            lhs += Fraction(1, j * j) * disc_e_raw(a, k // j, m // j)
    return lhs == -genus0_coefficient(a, m, k)


def disc_e(a: int, k: int, m: int) -> Fraction:
    """Half-integer invariant e_{k,m}.

    At coprime (k, m) the Moebius sums collapse to a single term and
    e = (-1)^k d exactly; for a >= 0 the factor product is positive, so this
    is the familiar statement e = |d|.  Half-integrality, the recursion, and
    the coprime identity are asserted.
    """
    value = disc_e_raw(a, k, m)
    if (2 * value).denominator != 1:
        raise ArithmeticError(f"e_{{{k},{m}}}^({a}) = {value} is not a half integer")
    if not disc_e_recursion_holds(a, k, m):
        raise ArithmeticError(f"e_{{{k},{m}}}^({a}) fails its defining recursion")
    if gcd(k, m) == 1 and value != (-1) ** k * disc_d_raw(a, k, m):
        raise ArithmeticError(f"e_{{{k},{m}}}^({a}) != (-1)^k d at coprime (k, m)")
    return value


def allgenus_rhs(a: int, k: int, m: int, scale: int) -> RationalFunctionU:
    """(-1)^{ma+k} [Q^k] F_hat_m evaluated at u -> u^scale: the all-genus recursion's right side."""
    return onepoint_bracket(a, m, k, scale) * (-1 if (m * a + k) % 2 else 1)


def ov_N(a: int, m: int, k: int) -> LaurentU:
    """All-genus invariant N_{m,k}(u) = [1] * (Moebius sum), a Laurent polynomial.

    Integer coefficients and invariance under u -> u^{-1} are asserted.
    """
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    g = _gcd0(k, m)
    total = RationalFunctionU(0)
    for n in divisors(g):
        total = total + Fraction(mobius(n)) * allgenus_rhs(a, k // n, m // n, n)
    value = (RationalFunctionU(qbracket(1)) * total).as_laurent()
    if not value.has_integer_coeffs():
        raise ArithmeticError(f"N_{{{m},{k}}}^({a}) has non-integer coefficients")
    if value.bar() != value:
        raise ArithmeticError(f"N_{{{m},{k}}}^({a}) is not bar symmetric")
    return value


# -- named sequences ----------------------------------------------------------


def seq_dmm(m: int) -> Fraction:
    """d_{m,m} at zero framing via the divisor sum (1/2m^2) sum_{l|m} (-1)^l mu(m/l) C(2l,l).

    Asserted to agree in absolute value with disc_d(0, m, m).
    """
    if m < 1:
        raise ValueError("m must be positive")
    total = 0
    for l in divisors(m):
        total += (-1) ** l * mobius(m // l) * comb(2 * l, l)
    value = Fraction(total, 2 * m * m)
    if abs(value) != abs(disc_d(0, m, m)):
        raise ArithmeticError(f"d_{{{m},{m}}} divisor sum disagrees with Moebius inversion")
    return value


def seq_catalan(k: int) -> int:
    """Catalan number C(k) = (2k)!/(k!(k+1)!); asserted equal to |d_{k,k+1}| at a = 0."""
    if k < 1:
        raise ValueError("k must be positive")
    value = catalan_number(k)
    if value != abs(disc_d(0, k, k + 1)):
        raise ArithmeticError(f"|d_{{{k},{k + 1}}}| is not the Catalan number C({k})")
    return value


def catalan_number(k: int) -> int:
    """C(k) for k >= 0, without the invariant cross-check."""
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
