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

The curve checks return residuals, left side minus right side of each
identity, which vanish exactly when it holds; the CLI decides on them.
"""

from __future__ import annotations

from fractions import Fraction

from .amplitudes import binomial, genus0_onepoint, onepoint_closed
from .laurent import RFU_ONE
from .series import TruncatedSeries, hbar_expand

FRAME = ("x", "E")


def _frame(order: int) -> tuple:
    return (FRAME, (order, order))


def xdx_potential(a: int, order: int) -> TruncatedSeries:
    """x d/dx of the genus-zero potential as a series in (x, E).

    Its x^n E^j coefficient is n (-1)^j [Q^j] genus0_onepoint(a, n) (Q = -E),
    written down term by term: no series product touches it, so the curve
    checks compare products against values that did not pass through one.
    """
    terms = {}
    for n in range(1, order + 1):
        for (j,), c in genus0_onepoint(a, n).terms.items():
            terms[(n, j)] = n * (-1) ** j * c
    return TruncatedSeries(*_frame(order), terms)


def y_from_amplitude(a: int, order: int) -> TruncatedSeries:
    """The curve branch y = exp(x d/dx Psi_0) in (x, E) over Fraction, with y(0) = 1."""
    if order < 1:
        raise ValueError("order must be positive")
    return xdx_potential(a, order).exp()


def zero_framing_curve_check(order: int) -> dict:
    """Residuals of the zero-framing branch, in the order to check them.

    The branch is the closed form y = (1-x)/2 + sqrt((1-x)^2 + 4 x E)/2.
    "log y" is log y - x d/dx Psi_0; "curve" is y - (1-x) - x E y^{-1}, the
    curve y^2 - (1-x) y - x E divided by y: y is built without a series
    product, and the product (x E) y^{-1} has terms on both edges of the box,
    so a product that loses an edge leaves a nonzero residual.
    """
    if order < 1:
        raise ValueError("order must be positive")
    vars_, orders = _frame(order)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    one = TruncatedSeries(vars_, orders, {(0, 0): Fraction(1)})
    radicand = (one - x) ** 2 + 4 * x * e
    y = ((one - x) + radicand.sqrt()).scale(Fraction(1, 2))
    return {
        "log y": y.log() - xdx_potential(0, order),
        "curve": y - (one - x) - (x * e) * y.inverse(),
    }


def lagrange_z0(a: int, order: int) -> TruncatedSeries:
    """Root z0(x) of x = z (1 - Q z)^{a+1} / (1 + z)^{a+1}, with Q = -E.

    Returned as a series in the (x, E) frame.  With w = a + 1 the root solves
    z0 = x phi(z0) for phi(z) = (1 + z)^w (1 + E z)^{-w}, so Lagrange-Buermann
    gives it in closed form:
        [x^n E^i] z0 = (1/n) [z^{n-1} E^i] phi^n = C(-wn, i) C(wn, n-1-i) / n.
    The leading terms are z0 = x + (a+1)(1+Q) x^2 + ... ; w = 0 gives z0 = x.
    """
    w = a + 1
    terms = {(n, i): Fraction(binomial(-w * n, i) * binomial(w * n, n - 1 - i), n)
             for n in range(1, order + 1) for i in range(n)}
    return TruncatedSeries(*_frame(order), terms)


def lagrange_log_y(a: int, n: int, i: int) -> int:
    """n [x^n E^i] log y on the framed branch y = (1 + E z0)/(1 + z0), an integer.

    Lagrange-Buermann for H(z) = log((1 + E z)/(1 + z)) at z0 = x phi(z0), with
    phi and w = a + 1 as in lagrange_z0, gives n [x^n] H(z0) = [z^{n-1}] H'(z) phi^n:
        C(-wn-1, i-1) C(wn, n-i) - C(-wn, i) C(wn-1, n-1-i).
    It equals n^2 (-1)^i [Q^i] genus0_onepoint(a, n) and reads neither
    onepoint_args nor the genus-zero coefficients.
    """
    w = a + 1
    return binomial(-w * n - 1, i - 1) * binomial(w * n, n - i) - binomial(-w * n, i) * binomial(w * n - 1, n - 1 - i)


def framed_curve_check(a: int, order: int) -> dict:
    """Residuals of the framed branch y = (1 - Q z0)/(1 + z0), in the order to check them.

    "log y" is log y - x d/dx Psi_0, "z0" is x y^{-(a+1)} - z0 term by term,
    and "curve" is y + x y^{-a} - 1 - E x y^{-a-1}.
    """
    if order < 1:
        raise ValueError("order must be positive")
    vars_, orders = _frame(order)
    z0 = lagrange_z0(a, order)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    one = TruncatedSeries(vars_, orders, {(0, 0): Fraction(1)})
    y = (one + e * z0) * (one + z0).inverse()
    x_framed = x * y ** (-(a + 1))
    return {
        "log y": y.log() - xdx_potential(a, order),
        "z0": x_framed - z0,
        # x y^{-a} = x y^{-(a+1)} y: one power of y serves both terms
        "curve": y + x_framed * y - one - e * x_framed,
    }


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
    # (ex, ey) -> (ex, ey - a ex) is one-to-one, so no two monomials merge
    transformed = {(ex, ey - a * ex, ee): c for (ex, ey, ee), c in _curve_poly(0).items()}
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
    terms = {(n, j, 1): c for n in range(1, order + 1) for (j,), c in onepoint_closed(a, n).terms.items()}
    return TruncatedSeries(vars_, orders, terms, RFU_ONE).exp()


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
    return quantum_classical_limit(quantum, order) == y_from_amplitude(a, order)
