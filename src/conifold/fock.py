"""Operator engine on the bosonic Fock space of symmetric functions.

States are truncated vectors sum_mu c_mu p_mu indexed by partitions, with
coefficients that are Q-polynomials over the bracket ring.  The engine knows
three things:

  * creation/annihilation operators b_{-n} (multiply by p_n) and b_n
    (n d/dp_n), with [b_m, b_n] = m delta_{m,-n};
  * the cut-and-join operator and its Schur eigenbasis, used to apply the
    framing twist q^{f K} exactly as the scaling s_nu -> u^{f kappa_nu} s_nu;
  * the one-parameter operator family E_r(z) with commutator
    [E_a(z), E_b(w)] = sigma(aw - bz) E_{a+b}(z+w), sigma(z) = e^{z/2}-e^{-z/2},
    reduced against the vacuum by a deterministic rewriting engine.

Working convention for amplitudes: the pairing against the left exponential
exp(sum_n x_n/(n i) b_n) would put a factor 1/i on every power sum, so the
engine tracks coefficients of P_n := p_n(x)/i instead and all values stay in
the bracket ring.  One-point amplitudes are reported as (n i) * F_n, i.e. with
the overall 1/(n i) prefactor of the free-energy coefficient stripped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .laurent import (
    LaurentU,
    RFU_ONE,
    RFU_ZERO,
    RationalFunctionU,
    bracket_ratio,
    qbracket,
)
from .partitions import (
    CharacterTable,
    Partition,
    kappa,
    multiplicities,
    partitions_of,
    z_aut,
)
from .series import TruncatedSeries

QVAR = ("Q",)


def qpoly(terms: dict[int, RationalFunctionU], q_bound: int) -> TruncatedSeries:
    """A polynomial in Q over the bracket ring, truncated at Q^q_bound."""
    return TruncatedSeries(QVAR, (q_bound,), {(e,): c for e, c in terms.items()}, RFU_ONE)


def qpoly_zero(q_bound: int) -> TruncatedSeries:
    return TruncatedSeries(QVAR, (q_bound,), {}, RFU_ONE)


def qpoly_one(q_bound: int) -> TruncatedSeries:
    return qpoly({0: RFU_ONE}, q_bound)


@dataclass
class FockVector:
    """Finite combination sum c_mu p_mu, |mu| <= degree_bound, Q-degree <= q_bound."""

    degree_bound: int
    q_bound: int
    coeffs: dict[Partition, TruncatedSeries]

    def copy(self) -> "FockVector":
        return FockVector(self.degree_bound, self.q_bound, dict(self.coeffs))

    def coefficient(self, mu) -> TruncatedSeries:
        return self.coeffs.get(tuple(mu), qpoly_zero(self.q_bound))

    def add_term(self, mu: Partition, c: TruncatedSeries) -> None:
        if sum(mu) > self.degree_bound or c.is_zero():
            return
        cur = self.coeffs.get(mu)
        s = c if cur is None else cur + c
        if s.is_zero():
            self.coeffs.pop(mu, None)
        else:
            self.coeffs[mu] = s

    def __add__(self, other: "FockVector") -> "FockVector":
        if (self.degree_bound, self.q_bound) != (other.degree_bound, other.q_bound):
            raise ValueError("FockVector bounds differ")
        out = self.copy()
        for mu, c in other.coeffs.items():
            out.add_term(mu, c)
        return out

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "FockVector":
        out = {}
        for mu, v in self.coeffs.items():
            w = v.scale(c) if isinstance(c, (int, Fraction)) else v * c
            if not w.is_zero():
                out[mu] = w
        return FockVector(self.degree_bound, self.q_bound, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)


def vacuum(degree_bound: int, q_bound: int) -> FockVector:
    return FockVector(degree_bound, q_bound, {(): qpoly_one(q_bound)})


def beta_neg_exp(coeff_by_weight, degree_bound: int, q_bound: int) -> FockVector:
    """exp(sum_n (c_n / n) b_{-n}) |0>, truncated.

    The coefficient of p_mu is prod_n c_n^{m_n} / (n^{m_n} m_n!).  The map
    coeff_by_weight must provide a Q-polynomial for every 1 <= n <= bound.
    """
    coeffs = {}
    for d in range(degree_bound + 1):
        for mu in partitions_of(d):
            term = qpoly_one(q_bound)
            for n, m in multiplicities(mu).items():
                cn = coeff_by_weight[n]
                term = term * cn ** m
                term = term.scale(Fraction(1, n ** m * factorial(m)))
            if not term.is_zero():
                coeffs[mu] = term
    return FockVector(degree_bound, q_bound, coeffs)


def beta_apply(v: FockVector, k: int) -> FockVector:
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


def cutjoin_apply(v: FockVector) -> FockVector:
    """Apply K = (1/2) sum_{i,j} (p_{i+j} ij d2/dp_i dp_j + p_i p_j (i+j) d/dp_{i+j})."""
    out = FockVector(v.degree_bound, v.q_bound, {})
    for mu, c in v.coeffs.items():
        mult = multiplicities(mu)
        parts = sorted(mult)
        # join: replace parts i, j by i+j, weight ij m_i m_j (i<j) or i^2 m(m-1)/2
        for ai in range(len(parts)):
            i = parts[ai]
            for aj in range(ai, len(parts)):
                j = parts[aj]
                if i == j:
                    m = mult[i]
                    if m < 2:
                        continue
                    weight = Fraction(i * i * m * (m - 1), 2)
                else:
                    weight = Fraction(i * j * mult[i] * mult[j])
                lst = list(mu)
                lst.remove(i)
                lst.remove(j)
                new = tuple(sorted(lst + [i + j], reverse=True))
                out.add_term(new, c.scale(weight))
        # cut: replace a part k by i, k-i for every 1 <= i <= k-1 (ordered pairs)
        for k, m in mult.items():
            lst0 = list(mu)
            lst0.remove(k)
            for i in range(1, k):
                new = tuple(sorted(lst0 + [i, k - i], reverse=True))
                out.add_term(new, c.scale(Fraction(k * m, 2)))
    return out


def qK_apply(v: FockVector, framing_exponent: int, only=None) -> FockVector:
    """Apply q^{f K}: scale the Schur component s_nu by u^{f kappa_nu}.

    Works degree by degree through the character transform
        w_nu = sum_mu chi_nu(mu) c_mu,   c'_mu = (1/z_mu) sum_nu u^{f kappa_nu} chi_nu(mu) w_nu.
    With `only`, a collection of partitions, the result holds just the
    coefficients c'_mu of those mu (each equal to its value in the full
    transform), and w_nu is built only for the nu with chi_nu(mu) != 0 for
    some requested mu of its degree.
    """
    f = framing_exponent
    wanted = None if only is None else tuple(dict.fromkeys(tuple(mu) for mu in only))
    out = FockVector(v.degree_bound, v.q_bound, {})
    by_degree: dict[int, dict[Partition, TruncatedSeries]] = {}
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
        table = CharacterTable.for_size(d)
        scaled = {}
        for nu in partitions_of(d):
            if not any(table.value(nu, mu) for mu in targets):
                continue
            w = qpoly_zero(v.q_bound)
            for mu, c in sector.items():
                chi = table.value(nu, mu)
                if chi:
                    w = w + c.scale(Fraction(chi))
            if w.is_zero():
                continue
            twist = RationalFunctionU(LaurentU.monomial(f * kappa(nu)))
            scaled[nu] = w * twist
        for mu in targets:
            acc = qpoly_zero(v.q_bound)
            for nu, w in scaled.items():
                chi = table.value(nu, mu)
                if chi:
                    acc = acc + w.scale(Fraction(chi))
            out.add_term(mu, acc.scale(Fraction(1, z_aut(mu))))
    return out


def schur_vector(nu, degree_bound=None, q_bound: int = 0) -> FockVector:
    """The Schur function s_nu expanded in power sums, as a FockVector."""
    from .partitions import schur_in_powersums

    nu = tuple(nu)
    n = sum(nu)
    bound = n if degree_bound is None else degree_bound
    coeffs = {}
    for mu, frac in schur_in_powersums(nu).items():
        coeffs[mu] = qpoly_one(q_bound).scale(frac)
    return FockVector(bound, q_bound, coeffs)


# -- one-point oracle ---------------------------------------------------------


def brane_state(n: int, q_bound: int) -> dict[int, TruncatedSeries]:
    """Weights c_m = ((-1)^{m-1} + Q^m) / [m] for m = 1..n."""
    out = {}
    for m in range(1, n + 1):
        inv = RationalFunctionU(LaurentU.const((-1) ** (m - 1)), qbracket(m))
        qm = RationalFunctionU(LaurentU.const(1), qbracket(m))
        out[m] = qpoly({0: inv, m: qm}, q_bound)
    return out


def oracle_onepoint(a: int, n: int, q_bound: int | None = None) -> TruncatedSeries:
    """Winding-n one-point amplitude by brute force on the Fock space.

    Builds the brane state exp(sum_m (c_m/m) b_{-m})|0>, applies the framing
    twist q^{(a+1)K}, pairs against the vacuum, and reads the p_n coefficient
    of the logarithm of the generating function.  Reported value is
    (n i) * F_n, a pure bracket-ring polynomial in Q.

    Only that coefficient is twisted: chi_nu((n)) vanishes off the n hooks
    nu = (n-r, 1^r) (Murnaghan-Nakayama), so qK_apply builds n of the p(n)
    character rows.
    """
    if n < 1:
        raise ValueError("winding must be positive")
    D = n if q_bound is None else q_bound
    state = beta_neg_exp(brane_state(n, D), n, D)
    twisted = qK_apply(state, a + 1, only=((n,),))
    # Pairing with exp(sum_n x_n/(n i) b_n) weighs p_mu by prod_n (x_n/i)^{m_n},
    # i.e. by P_mu, so the generating function's coefficients are the stored
    # ones.  In its log, monomials P_mu multiply by partition union, so no
    # product of two or more positive-degree monomials is ever a single P_n;
    # the log agrees with the generating function on one-part coefficients
    # and the extraction below is exact.
    linear = twisted.coefficient((n,))
    return linear.scale(Fraction(n))


# -- correlators of E operators ----------------------------------------------


@dataclass(frozen=True)
class EWord:
    """A product E_{r_1}(c_1 i lam) ... E_{r_k}(c_k i lam).

    Factors are (weight, argument multiplier) pairs; b_n enters as E_n(0).
    All arguments are integer multiples of i*lam, so every sigma value the
    reduction meets is a quantum bracket.
    """

    factors: tuple[tuple[int, int], ...]


def beta_correlator_word(n: int, m, a) -> EWord:
    """The word b_n E_{-m_1}(a_1 i lam) ... E_{-m_l}(a_l i lam)."""
    if len(m) != len(a):
        raise ValueError("weights and argument multipliers must align")
    factors = ((n, 0),) + tuple((-mi, ai) for mi, ai in zip(m, a))
    return EWord(factors)


def _reduce_terms(factors: tuple[tuple[int, int], ...], acc: tuple[int, ...], out: list) -> None:
    """Collect surviving branches as (numerator bracket args, denominator bracket args).

    `acc` carries the sigma factors picked up by merges so far; branches that
    hit a vanishing rule are dropped.
    """
    if not factors:
        if not acc:
            out.append(((), ()))
        return
    if sum(r for r, _ in factors) != 0:
        return
    if factors[-1][0] > 0:
        return  # E_{r>0}(z) kills the vacuum
    if factors[0][0] < 0:
        return  # <0| E_{r<0}(z) vanishes (adjoint of the rule above)
    pos = next((i for i, (r, _) in enumerate(factors) if r > 0), None)
    if pos is None:
        # all weights zero: each E_0(c i lam) contributes 1/[c] on the vacuum
        dens = tuple(c for _, c in factors)
        if any(c == 0 for c in dens):
            raise ValueError("E_0(0) has no finite vacuum value")
        out.append((acc, dens))
        return
    (ra, ca), (rb, cb) = factors[pos], factors[pos + 1]
    swapped = factors[:pos] + ((rb, cb), (ra, ca)) + factors[pos + 2:]
    _reduce_terms(swapped, acc, out)
    sigma = ra * cb - rb * ca
    if sigma:  # a vanishing bracket annihilates the merged branch
        merged = factors[:pos] + ((ra + rb, ca + cb),) + factors[pos + 2:]
        _reduce_terms(merged, acc + (sigma,), out)


def correlator_reduce(word: EWord) -> RationalFunctionU:
    """Vacuum expectation of an EWord by commutator rewriting.

    The leftmost positive-weight factor is commuted rightward; each step
    either shortens the word or moves that factor closer to the vacuum, so
    the rewriting terminates.  Words of nonzero total weight vanish.
    """
    terms: list = []
    _reduce_terms(word.factors, (), terms)
    total = RFU_ZERO
    for num_args, den_args in terms:
        total = total + bracket_ratio(num_args, den_args)
    return total


def correlator_closed(n: int, m, a) -> RationalFunctionU:
    """Closed form (1/[sum a_j]) prod_j [d_j] for <b_n E_{-m_1}(a_1 i lam) ...>.

    Here d_1 = n a_1 and for j > 1
        d_j = (n - m_1 - ... - m_{j-1}) a_j + m_j (a_1 + ... + a_{j-1}),
    all integers, so the value is a ratio of bracket products.
    """
    m = list(m)
    a = list(a)
    if len(m) != len(a):
        raise ValueError("weights and argument multipliers must align")
    if sum(m) != n or any(mi < 1 for mi in m):
        raise ValueError("m must be a composition of n with positive parts")
    dets = []
    consumed = 0
    aseen = 0
    for mj, aj in zip(m, a):
        dets.append((n - consumed) * aj + mj * aseen)
        consumed += mj
        aseen += aj
    return bracket_ratio(dets, (aseen,))
