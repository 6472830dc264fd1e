"""Closed-form one-point amplitudes of the resolved conifold with one outer brane.

Values are stored in the normalization F_hat_n := (n i) * F_n, where F_n is
the coefficient of the n-th power sum in the open-string free energy.  This
keeps every coefficient in the bracket ring (a polynomial in Q = -e^{-t} with
RationalFunctionU coefficients); genus_expand reinstates the 1/(n i) prefactor
when passing to the string-coupling expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .fock import qpoly, qpoly_one, qpoly_zero
from .laurent import LaurentU, RationalFunctionU, bracket_ratio, qbracket
from .partitions import multiplicities, partitions_of
from .series import TruncatedSeries, hbar_expand

LAMBDA = "lambda"


@dataclass(frozen=True)
class OnePointAmplitude:
    framing: int
    winding: int
    value: TruncatedSeries  # polynomial in Q over RationalFunctionU, (n i) F_n
    provenance: str


@dataclass(frozen=True)
class GenusSeries:
    framing: int
    winding: int
    g_max: int
    series: TruncatedSeries  # in (Q, lambda) over Fraction, odd powers only, poles allowed


def onepoint_closed(a: int, n: int) -> OnePointAmplitude:
    """F_hat_n = sum_{j=0}^{n} prod_{k=1}^{n-1}[an+j+k] / ([j]! [n-j]!) Q^j.

    Valid for every integer framing; at a = -1 the bracket products collapse
    and the value degenerates to ((-1)^{n-1} + Q^n)/[n].
    """
    if n < 1:
        raise ValueError("winding must be positive")
    # qpoly drops the terms whose numerator has a vanishing bracket
    terms = {
        j: bracket_ratio([a * n + j + k for k in range(1, n)], [*range(1, j + 1), *range(1, n - j + 1)])
        for j in range(n + 1)
    }
    return OnePointAmplitude(a, n, qpoly(terms, n), "closed_form")


def onepoint_partition_sum(a: int, n: int) -> OnePointAmplitude:
    """F_hat_n as the explicit sum over partitions of n.

    Each partition mu with multiplicities m_j contributes
        prod_j ((-1)^{j-1} + Q^j)^{m_j} / (j^{m_j} m_j! [j]^{m_j})
        * prod_j [(a+1) j n]^{m_j} / [(a+1) n].
    At a = -1 the bracket ratio is a first-order limit in w = a+1: each factor
    [w j n] vanishes like w, so only length-one partitions survive, with ratio
    lim [w n^2]/[w n] = n.
    """
    if n < 1:
        raise ValueError("winding must be positive")
    total = qpoly_zero(n)
    for mu in partitions_of(n):
        mult = multiplicities(mu)
        weight = qpoly_one(n)
        for j, m in mult.items():
            cj = qpoly(
                {
                    0: RationalFunctionU(LaurentU.const((-1) ** (j - 1)), qbracket(j)),
                    j: RationalFunctionU(LaurentU.const(1), qbracket(j)),
                },
                n,
            )
            weight = weight * cj ** m
            weight = weight.scale(Fraction(1, j ** m * factorial(m)))
        if a == -1:
            if len(mu) > 1:
                continue
            ratio = RationalFunctionU(Fraction(n))
        else:
            ratio = bracket_ratio([(a + 1) * j * n for j in mu], ((a + 1) * n,))
        total = total + weight * ratio
    return OnePointAmplitude(a, n, total, "partition_sum")


def genus0_onepoint(a: int, n: int) -> TruncatedSeries:
    """Coefficient of x^n in the genus-zero potential:
    -(1/n) sum_{j=0}^{n} prod_{k=1}^{n-1}(na+j+k) / (j! (n-j)!) Q^j, over Fraction.
    """
    if n < 1:
        raise ValueError("winding must be positive")
    terms = {}
    for j in range(n + 1):
        prod = 1
        for k in range(1, n):
            prod *= n * a + j + k
        c = Fraction(-prod, n * factorial(j) * factorial(n - j))
        if c:
            terms[(j,)] = c
    return TruncatedSeries(("Q",), (n,), terms)


def closed_string_logZ(q_order: int) -> TruncatedSeries:
    """log Z = sum_{n>=1} (-1)^{n-1} Q^n / (n [n]^2), truncated at Q^q_order."""
    if q_order < 1:
        raise ValueError("q_order must be positive")
    terms = {}
    for n in range(1, q_order + 1):
        terms[n] = bracket_ratio((), (n, n)) * Fraction((-1) ** (n - 1), n)
    return qpoly(terms, q_order)


def genus_expand(amp: OnePointAmplitude, g_max: int) -> GenusSeries:
    """Expand F_n = F_hat_n/(n i) in the string coupling up to lambda^{2 g_max - 1}.

    F_hat_n is expanded in hbar = i*lambda over Fraction; its hbar^k
    coefficient c_k gives the lambda^k coefficient i^k c_k/(n i) = i^{k-1} c_k/n,
    which is real only for odd k, so an even power of hbar raises
    ArithmeticError.  Every bracket-ring coefficient has at most a simple pole;
    the lambda^{-1} coefficient reproduces the genus-zero value.
    """
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    n = amp.winding
    order = 2 * g_max - 1
    terms: dict[tuple[int, int], Fraction] = {}
    for (j,), rfu in amp.value.terms.items():
        for (k,), c in hbar_expand(rfu, order).terms.items():
            if k % 2 == 0:
                raise ArithmeticError(f"hbar^{k} term at Q^{j}: its lambda coefficient is imaginary")
            # for odd k, i^{k-1} is 1 when k = 1 mod 4 and -1 when k = 3 mod 4
            terms[(j, k)] = c / n if k % 4 == 1 else -c / n
    series = TruncatedSeries(("Q", LAMBDA), (n, order), terms)
    return GenusSeries(amp.framing, n, g_max, series)
