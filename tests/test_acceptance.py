"""Acceptance criteria, one test per criterion, exact equality throughout.

Every tolerance is literal equality of exact objects (Fractions, Laurent
polynomials, canonical rational functions, truncated series); nothing is
deferred to numerical comparison.  Each test prints one PASS line (visible
under pytest -s); a failure message names the criterion.

Criterion 5 is implemented exactly as stated and is expected to FAIL: the
genus-zero d invariants are provably half-integral at 46 grid points, all at
odd framing (the defining recursion forces d_{2,2} = (a+2)/2; 13 of the spots
sit on the k = 0 column where d coincides with the half-integral e family).
The failure message carries the analysis.
"""

import itertools
import time
from fractions import Fraction

from conifold.amplitudes import (
    genus0_onepoint,
    genus_expand,
    onepoint_closed,
    onepoint_partition_sum,
)
from conifold.fock import (
    FockVector,
    beta_correlator_word,
    beta_neg_exp,
    brane_state,
    correlator_closed,
    correlator_reduce,
    cutjoin_apply,
    oracle_onepoint,
    qpoly,
    schur_vector,
)
from conifold.laurent import (
    LAURENT_ONE,
    LaurentU,
    RFU_ONE,
    RationalFunctionU,
    bracket_ratio,
    qbinomial,
    qbracket,
)
from conifold.mirror import (
    framed_curve_check,
    framing_transform_check,
    lagrange_z0,
    quantum_mirror_check,
    y_from_amplitude,
    zero_framing_curve_check,
)
from conifold.ovinv import (
    catalan_number,
    disc_d,
    disc_e,
    dmm_report,
    ov_N,
    recursion_holds,
    seq_dmm,
)
from conifold.partitions import character, kappa, partitions_of, z_aut
from conifold.series import TruncatedSeries
from test_fock import _reference_beta_apply  # the reference b_k, kept with the Fock tests
from test_ovinv import _reference_monomial


def announce(number, text):
    print(f"ACCEPTANCE {number:2d} PASS  {text}")


def brackets(num_args, den_args=(), scalar=1):
    num = LaurentU({0: scalar})
    for d in num_args:
        num = num * qbracket(d)
    # [-d] = -[d]: the sign of a negative denominator argument moves to the numerator
    for d in den_args:
        num = -num if d < 0 else num
    return RationalFunctionU(num, [abs(d) for d in den_args])


def test_acceptance_01_onepoint_closed_vs_tables():
    start = time.time()
    # winding 1, every framing: (1 + Q)/[1]
    w1 = qpoly({0: brackets((), (1,)), 1: brackets((), (1,))}, 1)
    for a in (-1, 0, 1):
        assert onepoint_closed(a, 1) == w1

    # winding 2 and 3 at framings 0 and 1: the displayed general-framing sums
    for a in (0, 1):
        c1 = qpoly({0: brackets((), (1,)), 1: brackets((), (1,))}, 2)
        c2 = qpoly({0: brackets((), (2,), -1), 2: brackets((), (2,))}, 2)
        f2 = (
            c2.scale(Fraction(1, 4)) * bracket_ratio((4 * (a + 1),), (2 * (a + 1),))
            + (c1 * c1).scale(Fraction(1, 4)) * brackets((2 * (a + 1),))
        )
        assert onepoint_closed(a, 2) == f2.scale(Fraction(2)), a

        c1 = c1.truncated((3,))
        c2 = c2.truncated((3,))
        c3 = qpoly({0: brackets((), (3,), Fraction(1, 3)),
                    3: brackets((), (3,), Fraction(1, 3))}, 3)
        f3 = (
            c3.scale(Fraction(1, 3)) * bracket_ratio((9 * (a + 1),), (3 * (a + 1),))
            + (c1 * c2).scale(Fraction(1, 6))
            * bracket_ratio((6 * (a + 1), 3 * (a + 1)), (3 * (a + 1),))
            + (c1 * c1 * c1).scale(Fraction(1, 18))
            * bracket_ratio((3 * (a + 1),) * 3, (3 * (a + 1),))
        )
        assert onepoint_closed(a, 3) == f3.scale(Fraction(3)), a

    # the zero-framing list
    assert onepoint_closed(0, 2) == qpoly(
        {0: brackets((), (2,)), 1: brackets((2,), (1, 1)), 2: brackets((3,), (1, 2))}, 2
    )
    assert onepoint_closed(0, 3) == qpoly(
        {
            0: brackets((), (3,)),
            1: brackets((3,), (1, 1)),
            2: brackets((3, 4), (1, 1, 2)),
            3: brackets((4, 5), (1, 2, 3)),
        },
        3,
    )

    # framing -1: the degenerate value ((-1)^{n-1} + Q^n)/[n]
    for n in (1, 2, 3):
        assert onepoint_closed(-1, n) == qpoly(
            {0: brackets((), (n,), (-1) ** (n - 1)), n: brackets((), (n,))}, n
        )

    # framing 1, winding 2: [3]/([2][1]) + [4]Q/[1]^2 + [5]Q^2/([2][1])
    assert onepoint_closed(1, 2) == qpoly(
        {0: brackets((3,), (1, 2)), 1: brackets((4,), (1, 1)), 2: brackets((5,), (1, 2))}, 2
    )
    assert time.time() - start < 1.0
    announce(1, "closed one-point amplitudes reproduce the tabulated values")


def test_acceptance_02_oracle_triple_equality():
    start = time.time()
    state = beta_neg_exp(brane_state(6, 6), 6, 6)
    for a in range(-3, 4):
        for n in range(1, 7):
            closed = onepoint_closed(a, n)
            summed = onepoint_partition_sum(a, n, state)
            oracle = oracle_onepoint(a, n, state)
            assert closed == summed == oracle, (a, n)
    assert time.time() - start < 120
    announce(2, "partition sum = closed form = Fock oracle for |a| <= 3, n <= 6")


def test_acceptance_03_genus_zero():
    start = time.time()
    printed = {
        1: {0: -1, 1: -1},
        2: {0: Fraction(-1, 4), 1: -1, 2: Fraction(-3, 4)},
        3: {0: Fraction(-1, 9), 1: -1, 2: -2, 3: Fraction(-10, 9)},
        4: {0: Fraction(-1, 16), 1: -1, 2: Fraction(-15, 4), 3: -5, 4: Fraction(-35, 16)},
        5: {0: Fraction(-1, 25), 1: -1, 2: -6, 3: -14, 4: -14, 5: Fraction(-126, 25)},
    }
    for n, coeffs in printed.items():
        expected = TruncatedSeries(("Q",), (n,), {(j,): Fraction(c) for j, c in coeffs.items()})
        assert genus0_onepoint(0, n) == expected, n

    for a in range(-3, 4):
        for n in range(1, 9):
            series = genus_expand(onepoint_closed(a, n), n, 0)
            psi = genus0_onepoint(a, n)
            for j in range(n + 1):
                assert series.scalar_coefficient((j, -1)) == psi.scalar_coefficient((j,)), (a, n, j)
    assert time.time() - start < 30
    announce(3, "genus-zero polynomials match and equal every lambda^{-1} coefficient")


# the full printed half-integrality table: rows m = 1..16, columns k = 1..6
E_TABLE = {
    1: (1, 0, 0, 0, 0, 0),
    2: (1, Fraction(1, 2), 0, 0, 0, 0),
    3: (1, 2, 1, 0, 0, 0),
    4: (1, Fraction(7, 2), 5, 2, 0, 0),
    5: (1, 6, 14, 14, 5, 0),
    6: (1, Fraction(17, 2), 31, 52, 42, Fraction(25, 2)),
    7: (1, 12, 60, 150, 198, 132),
    8: (1, Fraction(31, 2), 105, 360, 693, Fraction(1499, 2)),
    9: (1, 20, 171, 770, 2002, 3114),
    10: (1, Fraction(49, 2), 264, 1500, 5045, 10507),
    11: (1, 30, 390, 2730, 11466, 30576),
    12: (1, Fraction(71, 2), 556, 4690, 24024, Fraction(158809, 2)),
    13: (1, 42, 770, 7700, 47124, 188496),
    14: (1, Fraction(97, 2), 1040, 12152, 87516, 415686),
    15: (1, 56, 1375, 18564, 155195, 862194),
    16: (1, Fraction(127, 2), 1785, 27552, 264537, Fraction(3394839, 2)),
}


def test_acceptance_04_e_table():
    start = time.time()
    checked = 0
    for m, row in E_TABLE.items():
        for k, expected in enumerate(row, start=1):
            got = disc_e(0, k, m) if k <= m else Fraction(0)
            assert got == Fraction(expected), (k, m)
            checked += 1
    assert checked == 96
    assert time.time() - start < 5
    announce(4, "all 96 printed e-invariant entries reproduced exactly")


def test_acceptance_05_integrality_sweep():
    """Implemented exactly as stated; KNOWN RED, see the module docstring.

    d integrality fails only at odd framing: 33 spots with k, m both even
    (the defining recursion forces d_{2,2} = (a+2)/2) plus 13 on the k = 0
    column, where d coincides with the half-integral e family by
    construction.  Every violation is a half integer, the e half-integrality
    and both recursions hold everywhere, and even framings are fully
    integral.
    """
    violations = []
    for a in range(-3, 4):
        for m in range(1, 21):
            for k in range(0, m + 1):
                d = disc_d(a, k, m)
                e = disc_e(a, k, m)
                if d.denominator != 1:
                    violations.append((a, k, m, d))
                assert (2 * e).denominator == 1, (a, k, m, e)
                assert (2 * d).denominator == 1, (a, k, m, d)
                assert recursion_holds(a, k, m, True, d), (a, k, m)
                assert recursion_holds(a, k, m, False, e), (a, k, m)
    if violations:
        print(f"ACCEPTANCE  5 FAIL  d-integrality has {len(violations)} half-integer "
              f"spots at odd framing, e.g. d_{{2,2}}^(1) = 3/2 (forced by the recursion)")
    assert not violations, (
        "d-integrality fails at odd framing with k, m both even; the defining "
        f"recursion itself forces these values (first few: {violations[:4]}); "
        "see the decisions ledger for the full analysis"
    )
    announce(5, "integrality sweep")


def test_acceptance_05_attainable_part():
    # the portion of criterion 5 the mathematics supports: even framings are
    # fully integral for k >= 1, half-integrality and the recursions hold
    # everywhere, and d = e on the k = 0 column
    start = time.time()
    for a in (-2, 0, 2):
        for m in range(1, 21):
            for k in range(1, m + 1):
                d = disc_d(a, k, m)
                assert d.denominator == 1
                assert recursion_holds(a, k, m, True, d), (a, k, m)
    for a in range(-3, 4):
        for m in range(1, 21):
            assert disc_d(a, 0, m) == disc_e(a, 0, m)
    assert time.time() - start < 60
    announce(5, "even-framing integrality, recursions, and half-integrality (attainable part)")


def test_acceptance_06_sequences():
    start = time.time()
    for k in range(1, 19):
        assert abs(disc_d(0, k, k + 1)) == catalan_number(k)
    assert catalan_number(16) == 35357670  # last value of the printed excerpt
    for m in range(1, 16):
        assert abs(seq_dmm(m)) == abs(disc_d(0, m, m))
    report = dmm_report(15)
    mismatches = [r for r in report if r["matches_printed"] is False]
    # the printed excerpt skips the m = 7 term; report, do not assert
    print(f"ACCEPTANCE  6 NOTE  printed |d_mm| excerpt disagrees with the divisor-sum "
          f"formula at m = {[r['m'] for r in mismatches]} (formula says "
          f"{[str(r['formula']) for r in mismatches]})")
    assert time.time() - start < 10
    announce(6, "Catalan column through k = 18 and the |d_mm| divisor sum")


def test_acceptance_07_n_polynomials():
    start = time.time()
    u = _reference_monomial

    zero_framing = {
        (1, 0): u(0), (1, 1): -u(0),
        (2, 0): LaurentU(), (2, 1): -(u(1) + u(-1)), (2, 2): u(1) + u(-1),
        (3, 0): LaurentU(), (3, 1): -(u(2) + u(0) + u(-2)),
        (3, 2): u(4) + u(2) + 2 * u(0) + u(-2) + u(-4),
        (3, 3): -(u(4) + u(0) + u(-4)),
    }
    for (m, k), expected in zero_framing.items():
        assert ov_N(0, m, k) == expected, (0, m, k)

    # framing one: printed values absorb x -> -x, so odd windings carry an
    # extra sign here; the (3, 0) entry is asserted against the divisor-sum
    # identity (the printed q^2 - q + 1 - q^{-1} + q^{-2} contradicts it)
    q2 = u(4) + u(0) + u(-4)
    framing_one_printed = {
        (1, 0): u(0), (1, 1): -u(0),
        (2, 0): u(1) + u(-1),
        (2, 1): -(u(3) + u(1) + u(-1) + u(-3)),
        (2, 2): u(3) + u(-3),
        (3, 1): -(u(4) + u(2) + u(0) + u(-2) + u(-4)) * q2,
        (3, 2): (u(6) + u(4) + u(2) + u(0) + u(-2) + u(-4) + u(-6)) * q2,
        (3, 3): -(u(2) + u(0) + u(-2)) * (u(2) - u(0) + u(-2)) * (u(6) + u(0) + u(-6)),
    }
    for (m, k), printed in framing_one_printed.items():
        expected = printed if m % 2 == 0 else -printed
        assert ov_N(1, m, k) == expected, (1, m, k)
    assert ov_N(1, 3, 0) == -q2
    print("ACCEPTANCE  7 NOTE  printed N_{3,0} at framing one is a misprint; the "
          "divisor-sum identity forces -(q^2 + 1 + q^{-2}) in this normalization")

    for a in (-2, -1, 0, 1, 2):
        for m in range(1, 11):
            for k in range(0, m + 1):
                value = ov_N(a, m, k)
                assert value.has_integer_coeffs(), (a, m, k)
                assert value.bar() == value
    assert time.time() - start < 30
    announce(7, "printed N polynomials and the integrality/bar-symmetry grid")


def test_acceptance_08_correlators():
    start = time.time()
    count = 0
    for n in range(1, 9):
        for comp in _compositions(n):
            for mult in itertools.product((1, 2, 3), repeat=len(comp)):
                word = beta_correlator_word(n, comp, mult)
                assert correlator_reduce(word) == correlator_closed(n, comp, mult)
                count += 1
    assert count == sum(3 * 4 ** (n - 1) for n in range(1, 9))
    # framing specialization: multipliers (a+1) m_j collapse the product
    for a in (0, 1, 2):
        for n in range(1, 9):
            for mu in partitions_of(n):
                mult = tuple((a + 1) * mi for mi in mu)
                lhs = correlator_reduce(beta_correlator_word(n, mu, mult))
                rhs = bracket_ratio([(a + 1) * n * mi for mi in mu], ((a + 1) * n,))
                assert lhs == rhs, (a, mu)
    assert time.time() - start < 60
    announce(8, f"operator reduction equals the closed correlator on {count} words")


def test_acceptance_09_mirror_curves():
    start = time.time()
    assert not any(zero_framing_curve_check(20).values())
    for a in (-4, -3, -2, 0, 1, 2, 3):
        assert not any(framed_curve_check(a, 12).values()), a
        # agreement of the two constructions of the curve branch:
        # exp(x d/dx Psi_0) is the Lagrange branch (1 - Q z0)/(1 + z0); the
        # orientation printed as (1 + z0)/(1 - Q z0) is its reciprocal
        N = 12
        one = TruncatedSeries.constant(Fraction(1), ("x", "E"), (N, N))
        e = TruncatedSeries.variable("E", ("x", "E"), (N, N))
        z0 = lagrange_z0(a, N)
        y = y_from_amplitude(a, N)
        assert y == (one + e * z0) * (one + z0).inverse(), a
        assert y * ((one + z0) * (one + e * z0).inverse()) == one, a
        assert framing_transform_check(a), a
    assert time.time() - start < 120
    announce(9, "mirror-curve residuals vanish and both branch constructions agree")


def test_acceptance_10_quantum_mirror():
    start = time.time()
    for a in (0, 1):
        assert quantum_mirror_check(a, 5), a
    assert time.time() - start < 60
    announce(10, "quantum mirror curve reduces to the classical branch at lambda -> 0")


def test_acceptance_11_property_suites():
    start = time.time()

    # quantum binomial identity, M <= 12
    for M in range(13):
        coeffs = {0: LAURENT_ONE}
        for k in range(1, M + 1):
            shift = LaurentU({M - 2 * k + 1: 1})
            new = {}
            for e, c in coeffs.items():
                new[e] = new.get(e, LaurentU()) + c
                new[e + 1] = new.get(e + 1, LaurentU()) + c * shift
            coeffs = new
        for j in range(M + 1):
            assert RationalFunctionU(coeffs[j]) == qbinomial(M, j)

    # character orthogonality, n <= 8
    for n in range(1, 9):
        parts = partitions_of(n)
        for xi in parts:
            for phi in parts:
                total = sum(character(nu, xi) * character(nu, phi) for nu in parts)
                assert total == (z_aut(xi) if xi == phi else 0)

    # cut-and-join eigenvalues, |mu| <= 6
    for n in range(1, 7):
        for mu in partitions_of(n):
            s = schur_vector(mu)
            assert cutjoin_apply(s) == s.scale(Fraction(kappa(mu), 2))

    # Heisenberg relations on all basis vectors of degree <= 5
    basis = [mu for d in range(6) for mu in partitions_of(d)]
    for m in range(-3, 4):
        for n in range(-3, 4):
            if m == 0 or n == 0:
                continue
            for mu in basis:
                v = FockVector(12, 0, {mu: qpoly({0: RFU_ONE}, 0)})
                lhs = (_reference_beta_apply(_reference_beta_apply(v, n), m)
                       - _reference_beta_apply(_reference_beta_apply(v, m), n))
                rhs = v.scale(Fraction(m)) if m == -n else FockVector(12, 0, {})
                assert lhs == rhs

    assert time.time() - start < 120
    announce(11, "q-binomial, orthogonality, cut-and-join, Heisenberg suites")


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest
