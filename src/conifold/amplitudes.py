"""Closed-form one-point amplitudes of the resolved conifold with one outer brane.

Values are stored in the normalization F_hat_n := (n i) * F_n, where F_n is
the coefficient of the n-th power sum in the open-string free energy.  This
keeps every coefficient in the bracket ring (a polynomial in Q = -e^{-t} with
RationalFunctionU coefficients); genus_expand reinstates the 1/(n i) prefactor
when passing to the string-coupling expansion.

The closed formula is written once, as the bracket arguments of onepoint_args;
onepoint_bracket reads them in the bracket ring at an Adams scale u -> u^s,
genus0_integer in the classical limit [d] -> d, where the numerator's product
is one binomial.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .laurent import RationalFunctionU, bracket_ratio
from .partitions import partitions_of
from .series import TruncatedSeries, hbar_expand, qpoly

LAMBDA = "lambda"


def binomial(x: int, r: int) -> int:
    """C(x, r) = x (x-1) ... (x-r+1) / r! for any integer x and r >= 0, and 0 for r < 0."""
    if r < 0:
        return 0
    return comb(x, r) if x >= 0 else (-1) ** r * comb(r - x - 1, r)


def onepoint_args(a: int, n: int, j: int) -> tuple[range, list[int]]:
    """Bracket arguments of [Q^j] F_hat_n: numerator an+j+k for k = 1..n-1, as a range
    whose top and length genus0_integer reads, and denominator 1..j and 1..n-j."""
    if not 0 <= j <= n:
        raise ValueError("need 0 <= j <= n")
    return range(a * n + j + 1, a * n + j + n), [*range(1, j + 1), *range(1, n - j + 1)]


def onepoint_bracket(a: int, n: int, j: int, scale: int = 1) -> RationalFunctionU:
    """[Q^j] F_hat_n over brackets, at the Adams scale u -> u^scale."""
    num, den = onepoint_args(a, n, j)
    return bracket_ratio([scale * d for d in num], [scale * d for d in den])


def genus0_integer(a: int, n: int, j: int) -> int:
    """T = -n^2 [Q^j] genus0_onepoint(a, n) = C(an+j+n-1, n-1) C(n, j), an integer.

    The classical limit [d] -> d of [Q^j] F_hat_n is the numerator's product,
    (n-1)! C(an+j+n-1, n-1), over j! (n-j)!, which is T/n.
    """
    num, _ = onepoint_args(a, n, j)
    return binomial(num.stop - 1, len(num)) * comb(n, j)


def genus0_coefficient(a: int, n: int, j: int) -> Fraction:
    """[Q^j] genus0_onepoint(a, n): -1/n times the classical limit [d] -> d of [Q^j] F_hat_n."""
    return Fraction(-genus0_integer(a, n, j), n * n)


def onepoint_closed(a: int, n: int) -> TruncatedSeries:
    """F_hat_n = sum_{j=0}^{n} prod_{k=1}^{n-1}[an+j+k] / ([j]! [n-j]!) Q^j.

    Valid for every integer framing; at a = -1 the bracket products collapse
    and the value degenerates to ((-1)^{n-1} + Q^n)/[n].
    """
    if n < 1:
        raise ValueError("winding must be positive")
    # qpoly drops the terms whose numerator has a vanishing bracket
    terms = {j: onepoint_bracket(a, n, j) for j in range(n + 1)}
    return qpoly(terms, n)


def onepoint_partition_sum(a: int, n: int, state) -> TruncatedSeries:
    """F_hat_n as the explicit sum over partitions of n.

    Each partition mu with multiplicities m_j contributes
        prod_j ((-1)^{j-1} + Q^j)^{m_j} / (j^{m_j} m_j! [j]^{m_j})
        * prod_j [(a+1) j n]^{m_j} / [(a+1) n],
    whose first factor is the p_mu coefficient of the brane state.  `state`
    is that state, the `fock.FockVector` that beta_neg_exp(brane_state(N, D),
    N, D) builds for some N >= n; the sum is truncated at its Q-bound D.
    At a = -1 the bracket ratio is a first-order limit in w = a+1: each factor
    [w j n] vanishes like w, so only length-one partitions survive, with ratio
    lim [w n^2]/[w n] = n.
    """
    if n < 1:
        raise ValueError("winding must be positive")
    if n > state.degree_bound:
        raise ValueError(f"the brane state stops at degree {state.degree_bound}, below winding {n}")
    total = qpoly({}, state.q_bound)
    for mu in partitions_of(n):
        weight = state.coefficient(mu)
        if a == -1:
            if len(mu) > 1:
                continue
            ratio = RationalFunctionU(Fraction(n))
        else:
            ratio = bracket_ratio([(a + 1) * j * n for j in mu], ((a + 1) * n,))
        total = total + weight * ratio
    return total


def genus0_onepoint(a: int, n: int) -> TruncatedSeries:
    """Coefficient of x^n in the genus-zero potential:
    -(1/n) sum_{j=0}^{n} prod_{k=1}^{n-1}(na+j+k) / (j! (n-j)!) Q^j, over Fraction.
    """
    if n < 1:
        raise ValueError("winding must be positive")
    terms = {(j,): c for j in range(n + 1) if (c := genus0_coefficient(a, n, j))}
    return TruncatedSeries(("Q",), (n,), terms)


def closed_string_logZ(q_order: int) -> TruncatedSeries:
    """log Z = sum_{n>=1} (-1)^{n-1} Q^n / (n [n]^2), truncated at Q^q_order."""
    if q_order < 1:
        raise ValueError("q_order must be positive")
    terms = {}
    for n in range(1, q_order + 1):
        terms[n] = bracket_ratio((), (n, n)) * Fraction((-1) ** (n - 1), n)
    return qpoly(terms, q_order)


def genus_expand(value: TruncatedSeries, n: int, g_max: int) -> TruncatedSeries:
    """Expand F_n = F_hat_n/(n i) in the string coupling up to lambda^{2 g_max - 1}.

    value is F_hat_n at winding n, as onepoint_closed returns it; the result is
    a series in (Q, lambda) over Fraction, odd powers only, poles allowed.
    F_hat_n is expanded in hbar = i*lambda over Fraction; its hbar^k
    coefficient c_k gives the lambda^k coefficient i^k c_k/(n i) = i^{k-1} c_k/n,
    which is real only for odd k, so an even power of hbar raises
    ArithmeticError.  Every bracket-ring coefficient has at most a simple pole;
    the lambda^{-1} coefficient reproduces the genus-zero value.
    """
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    order = 2 * g_max - 1
    terms: dict[tuple[int, int], Fraction] = {}
    for (j,), rfu in value.terms.items():
        for (k,), c in hbar_expand(rfu, order).terms.items():
            if k % 2 == 0:
                raise ArithmeticError(f"hbar^{k} term at Q^{j}: its lambda coefficient is imaginary")
            # for odd k, i^{k-1} is 1 when k = 1 mod 4 and -1 when k = 3 mod 4
            terms[(j, k)] = c / n if k % 4 == 1 else -c / n
    return TruncatedSeries(("Q", LAMBDA), (n, order), terms)
