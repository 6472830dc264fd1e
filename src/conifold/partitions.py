"""Integer partitions, symmetric-group characters, and the Moebius function.

Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().  Character values chi_nu(mu) are computed by the
Murnaghan-Nakayama rule on first-column hook lengths (beta numbers) and
memoized in process, value by value and as whole tables per size n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

Partition = tuple  # weakly decreasing positive ints


def check_partition(mu) -> Partition:
    mu = tuple(int(p) for p in mu)
    if any(p < 1 for p in mu):
        raise ValueError(f"partition parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {mu}")
    return mu


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, each exactly once, in reverse lexicographic order.

    partitions_of(4) = ((4,), (3,1), (2,2), (2,1,1), (1,1,1,1)).
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")
    if n == 0:
        return ((),)
    out = []

    def rec(rest: int, maxpart: int, prefix: tuple):
        if rest == 0:
            out.append(prefix)
            return
        for first in range(min(rest, maxpart), 0, -1):
            rec(rest - first, first, prefix + (first,))

    rec(n, n, ())
    return tuple(out)


def multiplicities(mu: Partition) -> dict[int, int]:
    m: dict[int, int] = {}
    for p in mu:
        m[p] = m.get(p, 0) + 1
    return m


def z_aut(mu: Partition) -> int:
    """Centralizer order z_mu = prod_k k^{m_k} m_k!."""
    z = 1
    for k, m in multiplicities(mu).items():
        z *= k ** m
        for j in range(2, m + 1):
            z *= j
    return z


def kappa(mu: Partition) -> int:
    """kappa_mu = sum_i mu_i (mu_i - 2i + 1); antisymmetric under transpose."""
    return sum(p * (p - 2 * i + 1) for i, p in enumerate(mu, start=1))


def conjugate(mu: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not mu:
        return ()
    out = [0] * mu[0]
    for p in mu:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def mobius(n: int) -> int:
    """Moebius mu: (-1)^r on squarefree n with r prime factors, else 0."""
    if n < 1:
        raise ValueError("mobius needs n >= 1")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """Positive divisors of n in increasing order."""
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


# -- characters ---------------------------------------------------------------


def _beta_numbers(nu: Partition) -> list[int]:
    l = len(nu)
    return [nu[j] + (l - 1 - j) for j in range(l)]


def _strip_removals(nu: Partition, r: int):
    """Yield (partition after removing a border strip of length r, height parity sign)."""
    beta = _beta_numbers(nu)
    bset = set(beta)
    l = len(beta)
    for j, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((c for c in beta if c != b), reverse=True)
        # insert nb keeping strict descending order
        pos = 0
        while pos < len(newbeta) and newbeta[pos] > nb:
            pos += 1
        newbeta.insert(pos, nb)
        parts = tuple(c - (l - 1 - i) for i, c in enumerate(newbeta))
        parts = tuple(p for p in parts if p > 0)
        yield parts, (-1) ** height


@lru_cache(maxsize=None)
def _mn(nu: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not nu else 0
    r, rest = mu[0], mu[1:]
    total = 0
    for smaller, sign in _strip_removals(nu, r):
        total += sign * _mn(smaller, rest)
    return total


def character(nu, mu) -> int:
    """Symmetric-group character chi_nu evaluated on the class of cycle type mu."""
    nu = check_partition(nu)
    mu = check_partition(mu)
    if sum(nu) != sum(mu):
        raise ValueError(f"size mismatch: |{nu}| != |{mu}|")
    return _mn(nu, mu)


class CharacterTable:
    """All chi_nu(mu) for partitions of one size n, built once per process."""

    _registry: dict[int, "CharacterTable"] = {}

    def __init__(self, n: int, values: dict[tuple[Partition, Partition], int]):
        self.n = n
        self.values = values

    @classmethod
    def for_size(cls, n: int) -> "CharacterTable":
        table = cls._registry.get(n)
        if table is None:
            parts = partitions_of(n)
            table = cls(n, {(nu, mu): _mn(nu, mu) for nu in parts for mu in parts})
            cls._registry[n] = table
        return table

    def value(self, nu, mu) -> int:
        return self.values[(tuple(nu), tuple(mu))]


def schur_in_powersums(nu: Partition) -> dict[Partition, Fraction]:
    """Expansion s_nu = sum_mu chi_nu(mu)/z_mu p_mu as a {mu: coefficient} map."""
    nu = check_partition(nu)
    n = sum(nu)
    table = CharacterTable.for_size(n)
    out = {}
    for mu in partitions_of(n):
        c = table.value(nu, mu)
        if c:
            out[mu] = Fraction(c, z_aut(mu))
    return out
