"""Series-level verification of the mirror curve of the resolved conifold.

All identities are checked as exact truncated-series statements in the open
modulus x and E = e^{-t} (the internal Kaehler variable enters as Q = -E).
The curve branch through (x, y) = (0, 1) is

    y(x) = exp(x d/dx Psi_0),

which solves y + x y^{-a} - 1 - E x y^{-a-1} = 0 in framing a.  In terms of
the Lagrange-inverted root z0 of x = z (1 - Q z)^{a+1} / (1 + z)^{a+1} this
branch is y = (1 - Q z0)/(1 + z0) and z0 = x y^{-(a+1)}.  (The reciprocal
orientation (1 + z0)/(1 - Q z0) solves nothing; see the README note on the
branch convention.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .amplitudes import genus0_onepoint, onepoint_closed
from .laurent import RFU_ONE
from .series import TruncatedSeries, hbar_expand, series_reversion

FRAME = ("x", "E")


@dataclass(frozen=True)
class MirrorSeries:
    framing: int
    order: int
    series: TruncatedSeries  # y(x) in (x, E) over Fraction, y(0) = 1


def _frame(order: int) -> tuple:
    return (FRAME, (order, order))


def _genus0_in_E(a: int, n: int, order: int) -> TruncatedSeries:
    """Coefficient of x^n in the genus-zero potential, rewritten in E via Q = -E."""
    psi = genus0_onepoint(a, n)
    terms = {}
    for (j,), c in psi.terms.items():
        terms[(0, j)] = c * (-1) ** j
    return TruncatedSeries(*_frame(order), terms=terms)


def xdx_potential(a: int, order: int) -> TruncatedSeries:
    """x d/dx of the genus-zero potential as a series in (x, E)."""
    vars_, orders = _frame(order)
    acc = TruncatedSeries.zero(vars_, orders)
    for n in range(1, order + 1):
        coeff = _genus0_in_E(a, n, order).scale(Fraction(n))
        xn = TruncatedSeries(vars_, orders, {(n, 0): Fraction(1)})
        acc = acc + coeff * xn
    return acc


def y_from_amplitude(a: int, order: int) -> MirrorSeries:
    """The curve branch y = exp(x d/dx Psi_0) with y(0) = 1."""
    if order < 1:
        raise ValueError("order must be positive")
    return MirrorSeries(a, order, xdx_potential(a, order).exp())


def zero_framing_curve_check(order: int) -> TruncatedSeries:
    """Residual of y^2 - (1-x) y - x E for the zero-framing branch.

    Also verifies the closed form y = (1-x)/2 + sqrt((1-x)^2 + 4 x E)/2
    before returning; the residual itself must vanish identically.
    """
    vars_, orders = _frame(order)
    y = y_from_amplitude(0, order).series
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    one = TruncatedSeries.constant(Fraction(1), vars_, orders)
    radicand = (one - x) ** 2 + 4 * x * e
    closed = ((one - x) + radicand.sqrt()).scale(Fraction(1, 2))
    if closed != y:
        raise ArithmeticError("square-root closed form disagrees with exp(x d/dx Psi_0)")
    return y * y - (one - x) * y - x * e


def lagrange_z0(a: int, order: int) -> TruncatedSeries:
    """Reversion of x = z (1 - Q z)^{a+1} / (1 + z)^{a+1}, with Q = -E.

    Returned as a series z0(x) in the (x, E) frame; the leading terms are
    z0 = x + (a+1)(1+Q) x^2 + ... .  Framing -1 is excluded.
    """
    if a == -1:
        raise ValueError("framing -1 has no Lagrange construction (the exponent a+1 vanishes)")
    vars_, orders = _frame(order)
    z = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    one = TruncatedSeries.constant(Fraction(1), vars_, orders)
    s = z * (one + e * z) ** (a + 1) * (one + z) ** (-(a + 1))
    return series_reversion(s, "x")


def framed_curve_check(a: int, order: int) -> TruncatedSeries:
    """Residual of y + x y^{-a} - 1 - E x y^{-a-1} for the framed branch.

    Builds y = (1 - Q z0)/(1 + z0) from the Lagrange root, checks the
    logarithmic identity x d/dx Psi_0 = log y and the relation
    z0 = x y^{-(a+1)} term by term, and returns the residual.
    """
    if a == -1:
        raise ValueError("framing -1 is excluded")
    vars_, orders = _frame(order)
    z0 = lagrange_z0(a, order)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    one = TruncatedSeries.constant(Fraction(1), vars_, orders)
    y = (one + e * z0) * (one + z0).inverse()
    if y.log() != xdx_potential(a, order):
        raise ArithmeticError("log of the framed branch disagrees with x d/dx Psi_0")
    x_framed = x * y ** (-(a + 1))
    if x_framed != z0:
        raise ArithmeticError("z0 = x y^{-(a+1)} fails")
    # x y^{-a} = x y^{-(a+1)} y: one power of y serves both terms
    return y + x_framed * y - one - e * x_framed


# -- framing transformation as an exact Laurent identity ----------------------


def _curve_poly(a: int) -> dict:
    """y + x y^{-a} - 1 - E x y^{-a-1} as a Laurent polynomial in (x, y, E)."""
    return {
        (0, 1, 0): Fraction(1),
        (1, -a, 0): Fraction(1),
        (0, 0, 0): Fraction(-1),
        (1, -a - 1, 1): Fraction(-1),
    }


def framing_transform_check(a: int) -> bool:
    """Substitute x -> x y^{-a} into the zero-framing curve and compare.

    The identity x + y - 1 - x y^{-1} E  |->  framed curve holds exactly as
    Laurent polynomials in (x, y, E); no truncation is involved.
    """
    zero_framing = _curve_poly(0)
    transformed: dict[tuple[int, int, int], Fraction] = {}
    for (ex, ey, ee), c in zero_framing.items():
        key = (ex, ey - a * ex, ee)
        s = transformed.get(key, Fraction(0)) + c
        if s:
            transformed[key] = s
        else:
            transformed.pop(key, None)
    return transformed == _curve_poly(a)


# -- quantum mirror curve ------------------------------------------------------

WVAR = "w"  # marks powers of lambda / i = -hbar


def quantum_mirror_series(a: int, order: int) -> TruncatedSeries:
    """y(lambda) = exp(lambda x d/dx Psi) as a series in (x, Q, w) over the bracket ring.

    Each power of the string coupling enters through the marker w = lambda/i,
    so coefficients stay in the bracket ring: the x^n coefficient of the
    exponent is w * F_hat_n(Q).  The classical limit contracts w^K against the
    hbar^{-K} coefficient of its bracket-ring cofactor.
    """
    vars_ = ("x", "Q", WVAR)
    orders = (order, order, order)
    exponent = TruncatedSeries.zero(vars_, orders, one=RFU_ONE)
    for n in range(1, order + 1):
        fhat = onepoint_closed(a, n).value
        terms = {}
        for (j,), c in fhat.terms.items():
            terms[(n, j, 1)] = c
        exponent = exponent + TruncatedSeries(vars_, orders, terms, RFU_ONE)
    return exponent.exp()


def quantum_classical_limit(series: TruncatedSeries, order: int) -> TruncatedSeries:
    """lambda -> 0 limit of a quantum mirror series, as a series in (x, E).

    With w = -hbar, a term c * w^K tends to (-1)^K times the hbar^{-K}
    coefficient of c, a rational number; Q^j is rewritten as (-1)^j E^j.
    """
    vars_, orders = _frame(order)
    out: dict[tuple[int, int], Fraction] = {}
    for (nx, j, k), c in series.terms.items():
        value = hbar_expand(c, 0).scalar_coefficient((-k,))
        if not value:
            continue
        key = (nx, j)
        s = out.get(key, Fraction(0)) + value * (-1) ** (j + k)
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return TruncatedSeries(vars_, orders, out)


def quantum_mirror_check(a: int, order: int) -> bool:
    """The classical limit of the quantum branch equals exp(x d/dx Psi_0)."""
    quantum = quantum_mirror_series(a, order)
    return quantum_classical_limit(quantum, order) == y_from_amplitude(a, order).series
