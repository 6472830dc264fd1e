import itertools
from fractions import Fraction

import pytest

from conifold.partitions import (
    CharacterTable,
    character,
    conjugate,
    divisors,
    kappa,
    mobius,
    multiplicities,
    partitions_of,
    z_aut,
)


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(partitions_of(10)) == 42


def test_partition_counts_against_recurrence():
    # independent count via the bounded-part recurrence p(n, max) = p(n-max, max) + p(n, max-1)
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def count(n, maxpart):
        if n == 0:
            return 1
        if maxpart == 0:
            return 0
        total = 0
        for first in range(1, maxpart + 1):
            if first <= n:
                total += count(n - first, first)
        return total

    for n in range(16):
        assert len(partitions_of(n)) == count(n, n)
        assert len(set(partitions_of(n))) == len(partitions_of(n))


def test_z_aut():
    assert z_aut(()) == 1
    assert z_aut((1, 1)) == 2
    assert z_aut((2,)) == 2
    assert z_aut((3, 2, 2, 1)) == 24


def test_zsum_identity():
    # sum over partitions of n of 1/z_mu = 1
    for n in range(21):
        assert sum(Fraction(1, z_aut(mu)) for mu in partitions_of(n)) == 1


def test_kappa():
    assert kappa((2,)) == 2
    assert kappa((1, 1)) == -2
    assert kappa((1,)) == 0
    assert kappa(()) == 0


def test_conjugate():
    assert conjugate((3,)) == (1, 1, 1)
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4, 2, 1)) == (3, 2, 1, 1)
    for n in range(9):
        for mu in partitions_of(n):
            assert conjugate(conjugate(mu)) == mu
            assert sum(conjugate(mu)) == n


def test_transpose_rules():
    for n in range(1, 9):
        for nu in partitions_of(n):
            assert kappa(conjugate(nu)) == -kappa(nu)
            for phi in partitions_of(n):
                assert character(conjugate(nu), phi) == (-1) ** (n - len(phi)) * character(nu, phi)


def test_mobius():
    assert mobius(1) == 1
    assert mobius(6) == 1
    assert mobius(12) == 0
    assert [mobius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    for n in range(1, 60):
        assert sum(mobius(d) for d in range(1, n + 1) if n % d == 0) == (1 if n == 1 else 0)
    with pytest.raises(ValueError):
        mobius(0)


def test_character_basic_values():
    assert character((2,), (2,)) == 1
    assert character((1, 1), (2,)) == -1
    assert character((2, 1), (1, 1, 1)) == 2
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
    with pytest.raises(ValueError):
        character((2,), (3,))


# -- independent oracle: Frobenius coefficient extraction ----------------------
#
# chi_nu(mu) is the coefficient of x^{nu + delta} in a_delta * p_mu, where
# delta = (N-1, ..., 1, 0), a_delta = sum_{sigma} sign(sigma) x^{sigma(delta)},
# and p_mu = prod_r (x_1^{mu_r} + ... + x_N^{mu_r}).  Dense dict polynomials,
# completely separate from the Murnaghan-Nakayama code under test.


def frobenius_products(n):
    """a_delta * p_mu for every class mu of S_n, as {mu: {exponent: coeff}}."""
    N = n
    delta = tuple(range(N - 1, -1, -1))
    vandermonde = {}
    for sigma in itertools.permutations(range(N)):
        sign = perm_sign(sigma)
        expt = tuple(delta[sigma[i]] for i in range(N))
        vandermonde[expt] = vandermonde.get(expt, 0) + sign
    out = {}
    for mu in partitions_of(n):
        poly = vandermonde
        for r in mu:
            new = {}
            for expt, c in poly.items():
                for i in range(N):
                    lifted = expt[:i] + (expt[i] + r,) + expt[i + 1:]
                    s = new.get(lifted, 0) + c
                    if s:
                        new[lifted] = s
                    else:
                        del new[lifted]
            poly = new
        out[mu] = poly
    return out


def frobenius_character(products, nu, mu):
    n = sum(mu)
    delta = tuple(range(n - 1, -1, -1))
    padded = tuple(nu) + (0,) * (n - len(nu))
    target = tuple(p + d for p, d in zip(padded, delta))
    return products[mu].get(target, 0)


def perm_sign(sigma):
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def test_characters_against_frobenius_oracle():
    for n in range(1, 6):
        products = frobenius_products(n)
        for nu in partitions_of(n):
            for mu in partitions_of(n):
                assert character(nu, mu) == frobenius_character(products, nu, mu), (nu, mu)


def test_orthogonality():
    for n in range(1, 9):
        table = CharacterTable.for_size(n)
        parts = partitions_of(n)
        for xi in parts:
            for phi in parts:
                total = sum(table.value(nu, xi) * table.value(nu, phi) for nu in parts)
                assert total == (z_aut(xi) if xi == phi else 0)


def test_basis_change_round_trip():
    # [chi_nu(mu)] composed with [chi_nu(mu)/z_mu]^T is the identity
    for n in range(1, 9):
        table = CharacterTable.for_size(n)
        parts = partitions_of(n)
        for mu in parts:
            for rho in parts:
                total = sum(
                    Fraction(table.value(nu, mu) * table.value(nu, rho), z_aut(rho))
                    for nu in parts
                )
                assert total == (1 if mu == rho else 0)


def test_divisors_against_full_scan():
    for n in range(0, 400):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert multiplicities(()) == {}
