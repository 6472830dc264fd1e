"""Operator engine on the bosonic Fock space of symmetric functions.

States are truncated vectors sum_mu c_mu p_mu indexed by partitions, with
coefficients that are Q-polynomials over the bracket ring.  The engine knows
three things:

  * creation operators b_{-n} (multiply by p_n), exponentiated into the
    brane state; an annihilator b_n (n d/dp_n, [b_m, b_n] = m delta_{m,-n})
    enters a correlator as E_n(0);
  * the cut-and-join operator and its Schur eigenbasis, used to apply the
    framing twist q^{f K} exactly as the scaling s_nu -> u^{f kappa_nu} s_nu,
    read on power sums through one integer Laurent kernel
    K_{t,mu} = sum_nu chi_nu(t) chi_nu(mu) u^{f kappa_nu} per pair of partitions;
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

from fractions import Fraction
from operator import neg

from .laurent import (
    LaurentU,
    RFU_ONE,
    RFU_ZERO,
    RationalFunctionU,
    bracket_ratio,
)
from .partitions import (
    Partition,
    character,
    kappa,
    multiplicities,
    partitions_of,
    schur_in_powersums,
    z_aut,
)
from .series import TruncatedSeries, qpoly


class FockVector:
    """Finite combination sum c_mu p_mu, |mu| <= degree_bound, Q-degree <= q_bound."""

    def __init__(self, degree_bound: int, q_bound: int, coeffs: dict[Partition, TruncatedSeries]):
        self.degree_bound = degree_bound
        self.q_bound = q_bound
        self.coeffs = coeffs

    def coefficient(self, mu) -> TruncatedSeries:
        return self.coeffs.get(tuple(mu), qpoly({}, self.q_bound))

    def add_term(self, mu: Partition, c: TruncatedSeries) -> None:
        if sum(mu) > self.degree_bound or not c:
            return
        cur = self.coeffs.get(mu)
        s = c if cur is None else cur + c
        if not s:
            self.coeffs.pop(mu, None)
        else:
            self.coeffs[mu] = s

    def __add__(self, other: "FockVector") -> "FockVector":
        if (self.degree_bound, self.q_bound) != (other.degree_bound, other.q_bound):
            raise ValueError("FockVector bounds differ")
        out = FockVector(self.degree_bound, self.q_bound, dict(self.coeffs))
        for mu, c in other.coeffs.items():
            out.add_term(mu, c)
        return out

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "FockVector":
        out = {}
        for mu, v in self.coeffs.items():
            w = v.scale(c) if isinstance(c, (int, Fraction)) else v * c
            if w:
                out[mu] = w
        return FockVector(self.degree_bound, self.q_bound, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        keys = set(self.coeffs) | set(other.coeffs)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)


def beta_neg_exp(coeff_by_weight, degree_bound: int, q_bound: int) -> FockVector:
    """exp(sum_n (c_n / n) b_{-n}) |0>, truncated.

    The coefficient of p_mu is prod_n c_n^{m_n} / (n^{m_n} m_n!), built one
    part at a time: removing the smallest part j of mu leaves a partition of
    lower degree, and w(mu) = w(mu minus j) c_j / (j m_j(mu)).  A coefficient
    that is absent stays absent in every partition that contains it.  The map
    coeff_by_weight must provide a Q-polynomial for every 1 <= n <= bound.
    """
    coeffs = {(): qpoly({0: RFU_ONE}, q_bound)}
    for d in range(1, degree_bound + 1):
        for mu in partitions_of(d):
            lower = coeffs.get(mu[:-1])
            if lower is None:
                continue
            j = mu[-1]
            term = (lower * coeff_by_weight[j]).scale(Fraction(1, j * mu.count(j)))
            if term:
                coeffs[mu] = term
    return FockVector(degree_bound, q_bound, coeffs)


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


def qK_coefficient(v: FockVector, framing_exponent: int, t: Partition) -> TruncatedSeries:
    """The coefficient c'_t of q^{f K} v, which scales the Schur component s_nu by u^{f kappa_nu}.

    Read through the integer Laurent kernel of the twist on power sums,
        c'_t = (1/z_t) sum_mu K_{t,mu} c_mu,
        K_{t,mu} = sum_nu chi_nu(t) chi_nu(mu) u^{f kappa_nu},
    over the mu of v with |mu| = |t|, so it costs one product by a sparse
    integer polynomial and one series addition per source mu.  Only the nu
    with chi_nu(t) != 0 enter K_{t,mu}; for t = (n) they are the n hooks
    (Murnaghan-Nakayama).  f = 0 and degree 0 take the same path: by column
    orthogonality, sum_nu chi_nu(t) chi_nu(mu) = z_t delta_{t,mu}, so the
    kernel returns c_t.
    """
    d = sum(t)
    rows = [(nu, framing_exponent * kappa(nu), chi) for nu in partitions_of(d) if (chi := character(nu, t))]
    scale = Fraction(1, z_aut(t))
    acc = qpoly({}, v.q_bound)
    for mu, c in v.coeffs.items():
        if sum(mu) != d:
            continue
        kernel: dict[int, int] = {}
        for nu, e, chi_t in rows:
            chi = character(nu, mu)
            if chi:
                kernel[e] = kernel.get(e, 0) + chi_t * chi
        kernel = LaurentU(kernel)
        if kernel:
            acc = acc + c.scale(RationalFunctionU(kernel * scale))
    return acc


def qK_apply(v: FockVector, framing_exponent: int) -> FockVector:
    """Apply q^{f K}: qK_coefficient of every partition of each degree that v holds."""
    out = FockVector(v.degree_bound, v.q_bound, {})
    for d in dict.fromkeys(sum(mu) for mu in v.coeffs):
        for t in partitions_of(d):
            out.add_term(t, qK_coefficient(v, framing_exponent, t))
    return out


def schur_vector(nu) -> FockVector:
    """The Schur function s_nu expanded in power sums, as a FockVector of degree |nu| and Q-bound 0."""
    nu = tuple(nu)
    coeffs = {mu: qpoly({0: RFU_ONE}, 0).scale(frac) for mu, frac in schur_in_powersums(nu).items()}
    return FockVector(sum(nu), 0, coeffs)


# -- one-point oracle ---------------------------------------------------------


def brane_state(n: int, q_bound: int) -> dict[int, TruncatedSeries]:
    """Weights c_m = ((-1)^{m-1} + Q^m) / [m] for m = 1..n."""
    out = {}
    for m in range(1, n + 1):
        inv = RationalFunctionU((-1) ** (m - 1), (m,))
        qm = RationalFunctionU(1, (m,))
        out[m] = qpoly({0: inv, m: qm}, q_bound)
    return out


def oracle_onepoint(a: int, n: int, state: FockVector) -> TruncatedSeries:
    """Winding-n one-point amplitude by brute force on the Fock space.

    `state` is the brane state exp(sum_m (c_m/m) b_{-m})|0>, as
    beta_neg_exp(brane_state(N, D), N, D) builds it for some N >= n; the
    value is truncated at its Q-bound D.  Applies the framing twist
    q^{(a+1)K}, pairs against the vacuum, and reads the p_n coefficient of
    the logarithm of the generating function.  Reported value is (n i) * F_n,
    a pure bracket-ring polynomial in Q.

    Only that coefficient is twisted, through the kernels K_{(n),mu} of
    qK_coefficient: chi_nu((n)) vanishes off the n hooks nu = (n-r, 1^r), so the
    twist reads the column (n) and the n hook rows, about n p(n) character
    values, not p(n)^2.
    """
    if n < 1:
        raise ValueError("winding must be positive")
    if n > state.degree_bound:
        raise ValueError(f"the brane state stops at degree {state.degree_bound}, below winding {n}")
    # Pairing with exp(sum_n x_n/(n i) b_n) weighs p_mu by prod_n (x_n/i)^{m_n},
    # i.e. by P_mu, so the generating function's coefficients are the stored
    # ones.  In its log, monomials P_mu multiply by partition union, so no
    # product of two or more positive-degree monomials is ever a single P_n;
    # the log agrees with the generating function on one-part coefficients
    # and the extraction below is exact.
    return qK_coefficient(state, a + 1, (n,)).scale(Fraction(n))


# -- correlators of E operators ----------------------------------------------


def beta_correlator_word(n: int, m, a) -> tuple[tuple[int, int], ...]:
    """The word b_n E_{-m_1}(a_1 i lam) ... E_{-m_l}(a_l i lam).

    A word E_{r_1}(c_1 i lam) ... E_{r_k}(c_k i lam) is the tuple of its
    factors, (weight, argument multiplier) pairs; b_n enters as E_n(0).  All
    arguments are integer multiples of i*lam, so every sigma value the
    reduction meets is a quantum bracket.
    """
    if len(m) != len(a):
        raise ValueError("weights and argument multipliers must align")
    return ((n, 0), *zip(map(neg, m), a))


def correlator_terms(word: tuple[tuple[int, int], ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The branches of the commutator rewriting of a word, as bracket arguments.

    Each (numerator args, denominator args) pair is one surviving branch,
    worth bracket_ratio(num, den); the vacuum expectation is their sum.  The
    rightmost positive-weight factor is commuted rightward; each step either
    shortens the word or moves that factor, whose right neighbour is never
    positive, closer to the vacuum, so the rewriting terminates.

    The rewriting runs on a worklist of (factors, acc) pairs, `acc` holding
    the sigma factors that merges picked up.  Two vanishing rules prune it:
    E_{r>0}(z) kills the vacuum, and <0| E_{r<0}(z) vanishes (its adjoint).
    A word of nonzero total weight, or one these rules kill, has no branch;
    swaps and merges keep the weight, and a branch the rules kill is never
    pushed.  The merged branch is pushed before the swapped one, so branches
    come out depth-first, swapped branch first.

    A word b_n E_{-m_1}(a_1 i lam) ... E_{-m_l}(a_l i lam), m a composition
    of n, reduces along one chain: its one positive factor stands first, so
    each swap puts a negative factor first and the vacuum kills that branch,
    while each merge leaves the positive weight n - m_1 - ... - m_j first
    until the last merge.  Its list is empty or the single pair
    ((d_1, ..., d_l), (a_1 + ... + a_l,)), with d_j the arguments of
    correlator_closed_args.
    """
    if word and (sum(r for r, _ in word) or word[0][0] < 0 or word[-1][0] > 0):
        return []
    out = []
    work = [(word, ())]
    while work:
        factors, acc = work.pop()
        pos = len(factors) - 1
        while pos >= 0 and factors[pos][0] <= 0:
            pos -= 1
        if pos < 0:
            # all weights zero: each E_0(c i lam) contributes 1/[c] on the vacuum
            dens = tuple([c for _, c in factors])
            if 0 in dens:
                raise ValueError("E_0(0) has no finite vacuum value")
            out.append((acc, dens))
            continue
        # the rightmost positive factor is never last and its neighbour is never positive
        (ra, ca), (rb, cb) = factors[pos], factors[pos + 1]
        sigma = ra * cb - rb * ca
        # every pushed word starts at weight >= 0 and ends at weight <= 0, so a branch
        # needs a test only at an end the pair holds (pos == 0, or the pair is last);
        # a swapped last pair ends at ra > 0 and dies
        last = pos + 2 == len(factors)
        r = ra + rb
        if sigma and (pos or r >= 0) and (not last or r <= 0):  # a vanishing bracket annihilates the merge
            work.append((factors[:pos] + ((r, ca + cb),) + factors[pos + 2:], acc + (sigma,)))
        if not last and (pos or rb >= 0):
            work.append((factors[:pos] + ((rb, cb), (ra, ca)) + factors[pos + 2:], acc))
    return out


def correlator_reduce(word: tuple[tuple[int, int], ...]) -> RationalFunctionU:
    """Vacuum expectation of a word of E factors: the sum of its correlator_terms."""
    total = RFU_ZERO
    for num_args, den_args in correlator_terms(word):
        total = total + bracket_ratio(num_args, den_args)
    return total


def correlator_closed_args(n: int, m, a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bracket arguments ((d_1, ..., d_l), (sum a_j,)) of the closed correlator.

    For <b_n E_{-m_1}(a_1 i lam) ... E_{-m_l}(a_l i lam)> the closed form is
    (1/[sum a_j]) prod_j [d_j], with d_1 = n a_1 and for j > 1
        d_j = (n - m_1 - ... - m_{j-1}) a_j + m_j (a_1 + ... + a_{j-1}).
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
    return tuple(dets), (aseen,)


def correlator_closed(n: int, m, a) -> RationalFunctionU:
    """Closed form (1/[sum a_j]) prod_j [d_j] for <b_n E_{-m_1}(a_1 i lam) ...>."""
    return bracket_ratio(*correlator_closed_args(n, m, a))
