from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conifold.amplitudes import closed_string_logZ, onepoint_closed
from conifold.laurent import RFU_ONE, LaurentU, RationalFunctionU, bracket_product, qbracket
from conifold.mirror import lagrange_z0, quantum_mirror_check, quantum_mirror_series
from conifold.ovinv import allgenus_rhs
from conifold.series import TruncatedSeries, hbar_expand

X = ("x",)


def xs(order):
    return TruncatedSeries.variable("x", X, (order,))


def one(order):
    return TruncatedSeries.constant(Fraction(1), X, (order,))


# -- the product kernel ---------------------------------------------------------
# `TruncatedSeries.__mul__` skips the pairs outside the truncation box and
# multiplies rational coefficients as integers over a common denominator.  The
# double loop it replaced is kept here as the reference: every pair is formed,
# the box test drops the ones outside, and each coefficient is multiplied in its
# own ring.  The products must have equal terms, and for all-int and
# all-Fraction operands the same coefficient types (JSON renders 2 and
# Fraction(2) differently).


def _reference_mul(self, other):
    self._compatible(other)
    orders = self.orders
    out: dict[tuple, object] = {}
    for ea, ca in self.terms.items():
        for eb, cb in other.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if any(x > o for x, o in zip(e, orders)):
                continue
            p = ca * cb
            if not p:
                continue
            s = out.get(e)
            s = p if s is None else s + p
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return TruncatedSeries(self.variables, orders, out, self.one)


def assert_same_product(s, t):
    got, ref = s * t, _reference_mul(s, t)
    assert got.terms == ref.terms, (s, t)
    return got, ref


_COEFFS = {
    "int": [1, -1, 2, -2, 3],
    "fraction": [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2), Fraction(-2, 3)],
}
_COEFFS["mixed"] = _COEFFS["int"] + _COEFFS["fraction"]


@st.composite
def operand_pairs(draw):
    n = draw(st.integers(1, 3))
    variables = ("x", "E", "Q")[:n]
    orders = tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    # exponents run up to the order, so many pairs land exactly on the box edge
    exponents = st.tuples(*(st.integers(-2, o) for o in orders))
    operands = []
    for _ in range(2):
        kind = draw(st.sampled_from(sorted(_COEFFS)))
        terms = draw(st.dictionaries(exponents, st.sampled_from(_COEFFS[kind]), max_size=8))
        operands.append((kind, TruncatedSeries(variables, orders, terms)))
    if draw(st.booleans()):
        # s(x) * s(-x): every term of odd x-degree cancels in pairs
        kind, s = operands[0]
        flipped = {e: -c if e[0] % 2 else c for e, c in s.terms.items()}
        operands[1] = kind, TruncatedSeries(variables, orders, flipped)
    return operands


@settings(max_examples=300, deadline=None)
@given(operand_pairs())
def test_mul_matches_reference(operands):
    (kind_a, s), (kind_b, t) = operands
    got, ref = assert_same_product(s, t)
    if "mixed" not in (kind_a, kind_b):
        assert {e: type(c) for e, c in got.terms.items()} == {e: type(c) for e, c in ref.terms.items()}


def test_mul_coefficient_types():
    vars_ = ("x", "E")
    ints = TruncatedSeries(vars_, (3, 2), {(0, 0): 2, (1, 0): -1, (0, 1): 1})
    fracs = TruncatedSeries(vars_, (3, 2), {e: Fraction(c) for e, c in ints.terms.items()})
    for s, t, kind in ((ints, ints, int), (fracs, fracs, Fraction), (ints, fracs, Fraction)):
        got, _ = assert_same_product(s, t)
        assert got.terms and all(type(c) is kind for c in got.terms.values())


def test_mul_over_bracket_ring_matches_reference():
    vars_ = ("Q", "x")
    orders = (3, 2)

    def rf(n, d):
        return RationalFunctionU(qbracket(n), (d,))

    s = TruncatedSeries(vars_, orders, {(0, 0): RFU_ONE, (1, 0): rf(2, 1), (0, 1): rf(1, 3), (2, 1): rf(3, 2)}, RFU_ONE)
    t = TruncatedSeries(vars_, orders, {(1, 0): -rf(2, 1), (1, 1): rf(1, 1), (3, 2): rf(4, 1), (0, 2): RFU_ONE}, RFU_ONE)
    for a, b in ((s, t), (t, s), (s, s)):
        got, ref = assert_same_product(a, b)
        # the same numerator and denominator pairs, not only canonical equality
        for e, c in ref.terms.items():
            assert (got.terms[e].num, got.terms[e].den) == (c.num, c.den), e


def test_mul_in_hbar_frame_matches_reference():
    # Laurent series in hbar with poles: negative exponents on both sides
    order = 5
    pole = hbar_expand(RationalFunctionU(1, (1, 1)), order)
    sine = hbar_expand(RationalFunctionU(qbracket(2)), order)
    ratio = hbar_expand(RationalFunctionU(qbracket(3), (1, 2)), order)
    assert pole.has_negative_exponents() and ratio.has_negative_exponents()
    for a, b in ((pole, sine), (pole, pole), (ratio, pole), (sine, ratio)):
        assert_same_product(a, b)
    # 1/[1]^2 * [1]^2 = 1 up to truncation: the hbar^6 term of [1]^2, cut at
    # the order, would meet the hbar^-2 pole at hbar^4 = hbar^(order - 1)
    square = hbar_expand(RationalFunctionU(qbracket(1) ** 2), order)
    exact = {e: c for e, c in (pole * square).terms.items() if e[0] < order - 1}
    assert exact == {(0,): Fraction(1)}


# -- the recurrence kernel ------------------------------------------------------
# inverse, log, exp, sqrt and negative powers solve one first-order recurrence
# in the total-degree Euler operator.  The power sums they replaced are kept
# here as references; the results must have equal terms, and over the
# rationals every coefficient is a Fraction.


def _reference_power_sum(w, coeff):
    acc = w.const_like(coeff(0))
    power = w
    for k in range(1, sum(w.orders) + 1):
        if k > 1:
            power = power * w
        if not power:
            break
        c = coeff(k)
        acc = acc + (power if c == 1 else power.scale(c))
    return acc


def _reference_inverse(self):
    c0 = self.constant_term()
    inv = None if c0 == self.one else Fraction(1) / c0
    unit = self if inv is None else self.scale(inv)
    # 1/(1+w) = sum (-w)^k, finite under truncation
    acc = _reference_power_sum(unit.const_like(1) - unit, lambda k: 1)
    return acc if inv is None else acc.scale(inv)


def _reference_log(self):
    w = self - self.const_like(1)
    return _reference_power_sum(w, lambda k: Fraction((-1) ** (k - 1), k) if k else 0)


def _reference_exp(self):
    return _reference_power_sum(self, lambda k: Fraction(1, factorial(k)))


def _reference_sqrt(self):
    w = self - self.const_like(1)
    # binom(1/2, k) = (-1)^(k+1) C(2k, k) / (4^k (2k - 1))
    return _reference_power_sum(
        w, lambda k: Fraction((-1) ** (k + 1) * comb(2 * k, k), 4 ** k * (2 * k - 1))
    )


def _reference_reversion(s, name=None):
    """Compositional inverse in the named (default: first) variable, one running power per order."""
    name = name or s.variables[0]
    i = s.variables.index(name)
    N = s.orders[i]
    shifted = {}
    for expts, c in s.terms.items():
        key = expts[:i] + (expts[i] - 1,) + expts[i + 1:]
        shifted[key] = c
    g = TruncatedSeries(s.variables, s.orders, shifted, s.one)  # s / v
    r = _reference_inverse(g)  # v / s
    out = TruncatedSeries(s.variables, s.orders, {}, s.one)
    rpow = s.const_like(1)
    for n in range(1, N + 1):
        rpow = rpow * r
        shifted_up = {}
        for expts, c in rpow.terms.items():
            if expts[i] == n - 1:  # [v^(n-1)] of rpow, moved to v^n
                shifted_up[expts[:i] + (n,) + expts[i + 1:]] = c * Fraction(1, n)
        out = out + TruncatedSeries(s.variables, s.orders, shifted_up, s.one)
    return out


_NONZERO = {kind: [c for c in cs if c] for kind, cs in _COEFFS.items()}


@st.composite
def functional_cases(draw):
    """(operation, series): a frame of 1-3 variables with orders 0-6 and a
    sparse series of int, Fraction or mixed coefficients shaped for the operation."""
    op = draw(st.sampled_from(["inverse", "inverse_unit", "log", "exp", "sqrt", "pow"]))
    n = draw(st.integers(1, 3))
    variables = ("x", "E", "Q")[:n]
    orders = tuple(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(sorted(_COEFFS)))
    exponents = st.tuples(*(st.integers(0, o) for o in orders)).filter(any)
    terms = draw(st.dictionaries(exponents, st.sampled_from(_NONZERO[kind]), max_size=5))
    zero = (0,) * n
    if op == "inverse":
        terms[zero] = draw(st.sampled_from(_NONZERO[kind]))
    elif op != "exp":
        terms[zero] = draw(st.sampled_from([1, Fraction(1)]))
    s = TruncatedSeries(variables, orders, terms)
    if op == "pow":
        return -draw(st.integers(1, 4)), s
    return op, s


_REFERENCES = {
    "inverse": _reference_inverse,
    "inverse_unit": _reference_inverse,
    "log": _reference_log,
    "exp": _reference_exp,
    "sqrt": _reference_sqrt,
}


@settings(max_examples=300, deadline=None)
@given(functional_cases())
def test_functional_operations_match_references(case):
    op, s = case
    if isinstance(op, int):
        got, ref = s ** op, _reference_inverse(s) ** -op
    else:
        got, ref = getattr(s, op.removesuffix("_unit"))(), _REFERENCES[op](s)
    assert got.terms == ref.terms, (op, s)
    assert all(type(c) is Fraction for c in got.terms.values()), (op, s)


def test_lagrange_z0_matches_reference_reversion():
    # the closed form inverts x(z) = z (1 + E z)^w / (1 + z)^w, w = a + 1, built
    # from products and the reference inverse alone
    for a in range(-6, 6):
        w = a + 1
        for N in range(1, 11):
            vars_, orders = ("x", "E"), (N, N)
            z = TruncatedSeries.variable("x", vars_, orders)
            e = TruncatedSeries.variable("E", vars_, orders)
            ratio = (z.const_like(1) + e * z) * _reference_inverse(z.const_like(1) + z)
            curve = z * (ratio ** w if w > 0 else _reference_inverse(ratio) ** -w)
            assert lagrange_z0(a, N).terms == _reference_reversion(curve, "x").terms, (a, N)


def test_exp_over_bracket_ring_matches_reference():
    vars_ = ("x", "Q")
    orders = (4, 3)

    def rf(n, d):
        return RationalFunctionU(qbracket(n), (d,))

    w = TruncatedSeries(vars_, orders, {(1, 0): rf(1, 2), (1, 1): -rf(3, 1), (2, 0): RFU_ONE, (0, 1): rf(2, 3)}, RFU_ONE)
    got, ref = w.exp(), _reference_exp(w)
    assert got.terms == ref.terms
    assert got.log().terms == w.terms
    assert (got ** -2).terms == (_reference_inverse(ref) ** 2).terms


@pytest.mark.parametrize("a", [0, 1, 2])
def test_quantum_mirror_exp_matches_reference(a):
    # the quantum branch is exp of a bracket-ring series in (x, Q, w)
    order = 4
    terms = {(n, j, 1): c for n in range(1, order + 1) for (j,), c in onepoint_closed(a, n).terms.items()}
    exponent = TruncatedSeries(("x", "Q", "w"), (order,) * 3, terms, RFU_ONE)
    y = quantum_mirror_series(a, order)
    assert y.terms == _reference_exp(exponent).terms
    assert y.log().terms == exponent.terms
    assert quantum_mirror_check(a, order)


def test_public_constructor_validates_terms():
    # the internal results skip these checks; the public constructor keeps them
    s = TruncatedSeries(("x", "E"), (2, 1), {(0, 0): 1, (3, 0): 5, (1, 2): 7, (1, 1): 0, (2, 1): Fraction(0), (2, 0): -2})
    assert s.terms == {(0, 0): 1, (2, 0): -2}
    with pytest.raises(ValueError):
        TruncatedSeries(("x", "E"), (2, 1), {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(("x", "E"), (2, 1, 4))
    # the results of the internal path hold no zero and nothing outside the box
    x = TruncatedSeries.variable("x", ("x", "E"), (2, 1))
    for r in ((s + x) * (s - x), s * x * x * x, -s + s, (s * x).scale(0), (s + x).inverse()):
        assert all(c and all(e <= o for e, o in zip(k, r.orders)) for k, c in r.terms.items())


def test_mul_truncates():
    x = xs(3)
    assert (x ** 3) * x == TruncatedSeries(X, (3,))
    assert (1 + x) * (1 - x) == 1 - x ** 2


def test_inverse_geometric():
    x = xs(6)
    inv = (one(6) - x).inverse()
    assert inv == sum((x ** k for k in range(1, 7)), one(6))


def test_log_exp_round_trip():
    x = xs(8)
    s = one(8) + x
    assert not one(8).log()
    assert s.log().exp() == s
    assert (x - x ** 3).exp().log() == x - x ** 3


def test_sqrt():
    x = xs(7)
    s = one(7) + x
    r = s.sqrt()
    assert r * r == s
    with pytest.raises(ValueError):
        x.sqrt()


def test_log_exp_reject_wrong_constant_term():
    x = xs(4)
    with pytest.raises(ValueError):
        x.log()  # constant term 0, not 1
    with pytest.raises(ValueError):
        (one(4) + x).exp()  # constant term 1, not 0
    with pytest.raises(ValueError):
        (x * x).inverse()


def test_half_sqrt_log_coefficients():
    # ln(1/2 + sqrt(1+t^2)/2): coefficient of t^{2j} is -(-1)^j (2j-1)!/(j! j! 2^{2j})
    N = 12
    t = xs(N)
    inner = (one(N) + t * t).sqrt()
    s = (one(N) + inner).scale(Fraction(1, 2)).log()
    for j in range(1, N // 2 + 1):
        expected = -Fraction((-1) ** j * factorial(2 * j - 1), factorial(j) ** 2 * 2 ** (2 * j))
        assert s.scalar_coefficient((2 * j,)) == expected
    for e in range(1, N + 1, 2):
        assert not s.scalar_coefficient((e,))


def test_inverse_integer_constant_term():
    # the Fraction ring keeps int coefficients as given
    s = TruncatedSeries(X, (3,), {(0,): 2, (1,): 1})
    inv = s.inverse()
    assert s * inv == one(3)
    assert inv.terms == {(0,): Fraction(1, 2), (1,): Fraction(-1, 4), (2,): Fraction(1, 8), (3,): Fraction(-1, 16)}
    assert all(isinstance(c, Fraction) for c in inv.terms.values())


def test_functional_operations_two_variables():
    # powers of w = x + E survive past max(orders) = 4, up to total degree 7
    vars_ = ("x", "E")
    orders = (4, 3)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    unit = TruncatedSeries.constant(Fraction(1), vars_, orders)
    s = Fraction(3, 2) + x - 2 * e + x * e * e
    assert s * s.inverse() == unit
    t = unit + x + e - Fraction(1, 3) * x * e
    assert t.log().exp() == t
    assert t.sqrt() ** 2 == t
    assert (x + e).exp().scalar_coefficient((4, 3)) == Fraction(1, factorial(4) * factorial(3))


def test_functional_operations_over_bracket_ring():
    vars_ = ("Q",)
    orders = (4,)
    q = TruncatedSeries.variable("Q", vars_, orders, one=RFU_ONE)
    unit = TruncatedSeries.constant(RFU_ONE, vars_, orders, one=RFU_ONE)
    c0 = RationalFunctionU(qbracket(2), (1,))
    c1 = RationalFunctionU(qbracket(1), (3,))
    # the ring has no inverse of [2]/[1], so neither has the series
    s = TruncatedSeries.constant(c0, vars_, orders, one=RFU_ONE) + q * c1 + q * q
    with pytest.raises(ValueError, match="not invertible"):
        s.inverse()
    t = unit + q * c1 + q * q
    assert t * t.inverse() == unit
    f = q * c1
    ef = f.exp()
    power = RFU_ONE
    for k in range(orders[0] + 1):
        assert ef.scalar_coefficient((k,)) == power * Fraction(1, factorial(k))
        power = power * c1
    assert ef.log() == f


@pytest.mark.parametrize("op", ["inverse", "log", "exp", "sqrt", "s ** -2"])
def test_functional_operations_reject_negative_exponents(op):
    constant = Fraction(0) if op == "exp" else Fraction(1)
    s = TruncatedSeries(X, (3,), {(0,): constant, (-1,): Fraction(1), (1,): Fraction(1)})
    with pytest.raises(ValueError, match="nonnegative exponents"):
        s ** -2 if op == "s ** -2" else getattr(s, op)()


def _reference_substitute(s, name, replacement):
    """s with a series of the same frame put in place of the named variable."""
    assert (s.variables, s.orders) == (replacement.variables, replacement.orders)
    i = s.variables.index(name)
    by_exp = {}
    for expts, c in s.terms.items():
        by_exp.setdefault(expts[i], {})[expts[:i] + (0,) + expts[i + 1:]] = c
    acc, power, prev = TruncatedSeries(s.variables, s.orders, {}, s.one), s.const_like(1), 0
    for e in sorted(by_exp):
        for _ in range(e - prev):
            power = power * replacement
        prev = e
        acc = acc + TruncatedSeries(s.variables, s.orders, by_exp[e], s.one) * power
    return acc


def test_substitute():
    vars_ = ("x", "E")
    orders = (4, 4)
    x = TruncatedSeries.variable("x", vars_, orders)
    e = TruncatedSeries.variable("E", vars_, orders)
    s = 1 + x * e + x ** 2
    assert _reference_substitute(s, "x", x + e) == 1 + (x + e) * e + (x + e) ** 2


# -- expansions in the string coupling ----------------------------------------
# hbar = i*lambda, so each hbar^k coefficient is i^{-k} times the lambda^k one.


def test_lambda_expand_bracket():
    # [1] = 2 sinh(hbar/2) = hbar + hbar^3/24 + O(hbar^5)
    s = hbar_expand(RationalFunctionU(qbracket(1)), 4)
    assert s.scalar_coefficient((1,)) == Fraction(1)
    assert s.scalar_coefficient((3,)) == Fraction(1, 24)
    assert not s.scalar_coefficient((0,))
    assert not s.scalar_coefficient((2,))


def test_lambda_expand_ratio_constant_term():
    for n in range(1, 6):
        s = hbar_expand(RationalFunctionU(qbracket(n), (1,)), 0)
        assert s.scalar_coefficient((0,)) == Fraction(n)


def test_lambda_expand_double_pole():
    s = hbar_expand(RationalFunctionU(1, (1, 1)), 2)
    assert s.scalar_coefficient((-2,)) == Fraction(1)
    assert s.scalar_coefficient((0,)) == Fraction(-1, 12)
    assert not s.scalar_coefficient((-1,))


def test_lambda_expand_sine_series_identity():
    # [n] expands exactly as 2 sinh(n hbar / 2), term by term
    order = 9
    for n in range(1, 6):
        s = hbar_expand(RationalFunctionU(qbracket(n)), order)
        for e in range(-1, order + 1):
            if e >= 1 and e % 2 == 1:
                expected = 2 * Fraction(Fraction(n, 2) ** e, factorial(e))
            else:
                expected = Fraction(0)
            assert s.scalar_coefficient((e,)) == expected, (n, e)


def test_lambda_expand_zero_and_errors():
    assert not hbar_expand(RationalFunctionU(0), 3)


# `hbar_expand` reads each coefficient as a power sum of the exponents and
# divides with the series inverse.  The dense expansion and hand-written
# quotient it replaced are kept here as the reference.


def _laurent_hbar_series(p, order: int) -> list[Fraction]:
    """Coefficients of p(u -> exp(hbar/2)) up to hbar^order (dense list)."""
    out = [Fraction(0)] * (order + 1)
    for e, c in p.terms.items():
        # exp(e hbar / 2): hbar^k coefficient is (e / 2)^k / k!
        base = Fraction(e, 2)
        pw = Fraction(1)
        for k in range(order + 1):
            out[k] += c * pw / factorial(k)
            pw *= base
    return out


def _reference_hbar_expand(num: LaurentU, den: LaurentU, order: int) -> TruncatedSeries:
    """num / den expanded in hbar, for any nonzero LaurentU den."""
    if not num:
        return TruncatedSeries(("hbar",), (order,))
    margin = len(den.poly)  # vanishing order is < number of terms
    work = max(order, 0) + margin
    den_series = _laurent_hbar_series(den, work)
    v = next((k for k, c in enumerate(den_series) if c), None)
    if v is None:
        raise ArithmeticError("denominator expansion vanished to its theoretical bound")
    work = max(order + v, 0)
    num_series = _laurent_hbar_series(num, work)
    den_series = _laurent_hbar_series(den, work + v)[v:]
    # divide num_series by the unit part of the denominator
    d0 = den_series[0]
    quot: list[Fraction] = []
    for m in range(work + 1):
        acc = num_series[m]
        for k in range(1, min(m, len(den_series) - 1) + 1):
            acc = acc - den_series[k] * quot[m - k]
        quot.append(acc / d0)
    terms = {}
    for m, c in enumerate(quot):
        e = m - v
        if e <= order and c:
            terms[(e,)] = c
    return TruncatedSeries(("hbar",), (order,), terms)


HBAR_ORDERS = (-3, -1, 0, 1, 4, 7)


def test_hbar_expand_matches_reference():
    # each right side and amplitude coefficient at one of the orders in turn,
    # the values with rational content and the small ones at all of them
    cells = [(a, m, k) for a in range(-3, 4) for m in range(1, 8) for k in range(m + 1)]
    cases = [(allgenus_rhs(a, k, m, scale), HBAR_ORDERS[i % len(HBAR_ORDERS)])
             for i, (a, m, k) in enumerate(cells) for scale in (1, 2)]
    amplitudes = [c for a in (-2, 0, 1, 3) for n in range(1, 7) for c in onepoint_closed(a, n).terms.values()]
    cases += [(f, HBAR_ORDERS[i % len(HBAR_ORDERS)]) for i, f in enumerate(amplitudes)]
    rational = [
        RationalFunctionU(LaurentU({1: Fraction(1, 3), -2: Fraction(5, 7)}) * Fraction(9, 2), (1, 1)),
        RationalFunctionU(LaurentU({3: Fraction(-1, 6)}), (2, 3, 3)),
    ]
    small = rational + list(closed_string_logZ(6).terms.values()) + list(quantum_mirror_series(1, 3).terms.values())
    cases += [(f, order) for f in small for order in HBAR_ORDERS]
    for f, order in cases:
        got, ref = hbar_expand(f, order), _reference_hbar_expand(f.num, bracket_product(f.den), order)
        assert got.terms == ref.terms, (f, order)
        assert got.orders == ref.orders and all(type(c) is Fraction for c in got.terms.values())
    # the reference divides by any denominator; the bracket ring holds only brackets
    with pytest.raises(TypeError):
        RationalFunctionU(LaurentU({3: Fraction(-1, 6)}), LaurentU({0: Fraction(3, 4), 2: Fraction(1, 5)}))
