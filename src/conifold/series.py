"""Truncated multivariate power series over a pluggable exact coefficient ring.

A series carries an ordered tuple of variable names, one inclusive truncation
order per variable, and a sparse {exponent-tuple: coefficient} map.  Exponents
above their order are silently dropped (that is what truncation means);
negative exponents are allowed so that Laurent expansions in the string
coupling can carry a finite pole.  Those expansions run in hbar = i*lambda,
where u = exp(hbar/2) has rational coefficients.

The coefficient ring is whatever the stored values are: Fraction, LaurentU,
RationalFunctionU, ... anything with exact +,-,*,== and a truthiness test for
zero.  The ring's unit is carried on the series (attribute `one`) so
functional operations can build constants.  Log, exp, sqrt and negative
powers (the inverse is the power -1) each solve one first-order recurrence in
the total-degree Euler operator (`TruncatedSeries._euler`), at about the cost
of one product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import factorial
from operator import add, gt, itemgetter, mul

from .laurent import RFU_ONE, RationalFunctionU, _over_common_denominator, bracket_product

_FR_ONE = Fraction(1)


class TruncatedSeries:
    __slots__ = ("variables", "orders", "terms", "one")

    def __init__(self, variables, orders, terms=None, one=_FR_ONE):
        variables = tuple(variables)
        orders = tuple([int(o) for o in orders])
        if len(variables) != len(orders):
            raise ValueError("one truncation order per variable")
        self.variables = variables
        self.orders = orders
        self.one = one
        clean = {}
        if terms:
            for expts, c in terms.items():
                expts = tuple([int(e) for e in expts])
                if len(expts) != len(variables):
                    raise ValueError("exponent tuple length mismatch")
                if any(e > o for e, o in zip(expts, orders)):
                    continue
                if c:
                    clean[expts] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def variable(cls, name, variables, orders, one=_FR_ONE):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, orders, {tuple(e): one}, one)

    # -- structure --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), None)

    def scalar_coefficient(self, expts):
        """Coefficient at an exact exponent tuple (ring zero if absent)."""
        c = self.terms.get(tuple(expts))
        return c if c is not None else self.one - self.one

    def has_negative_exponents(self) -> bool:
        return any(e < 0 for expts in self.terms for e in expts)

    def truncated(self, orders) -> "TruncatedSeries":
        return TruncatedSeries(self.variables, tuple(orders), self.terms, self.one)

    def _with_terms(self, terms) -> "TruncatedSeries":
        """A series in this frame from nonzero terms already inside the box, taken unchecked."""
        out = object.__new__(TruncatedSeries)
        out.variables, out.orders, out.terms, out.one = self.variables, self.orders, terms, self.one
        return out

    def _compatible(self, other: "TruncatedSeries"):
        if self.variables != other.variables or self.orders != other.orders:
            raise ValueError("series frames differ (variables or truncation orders)")

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.variables != other.variables:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # -- ring operations ---------------------------------------------------

    def __neg__(self):
        return self._with_terms({e: -c for e, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            self._compatible(other)
            return other
        # a number or a bare ring element acts as a constant
        if isinstance(other, (int, Fraction)):
            c = self.one * Fraction(other)
        elif isinstance(other, type(self.one)):
            c = self.one * other
        else:
            return None
        return TruncatedSeries(self.variables, self.orders, {(0,) * len(self.variables): c}, self.one)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return self._with_terms(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, c) -> "TruncatedSeries":
        """Multiply every coefficient by a ring or rational scalar."""
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            if not c:
                return self._with_terms({})
        out = {}
        for e, v in self.terms.items():
            w = v * c
            if w:
                out[e] = w
        return self._with_terms(out)

    def __mul__(self, other):
        """Truncated product; only pairs whose exponents stay inside the box are visited.

        The right operand is grouped by its first exponent (groups ascending,
        each sorted by the second), so for each left term the loops stop once
        the first or second exponent passes the room left under the orders.
        Rational operands are multiplied as integer numerators over one common
        denominator per operand, and each sum becomes one Fraction; when
        neither operand holds a Fraction the int sums are kept as they are.
        """
        if not isinstance(other, TruncatedSeries):
            return self.scale(other)
        self._compatible(other)
        orders = self.orders
        ra, rb = _over_common_denominator(self.terms), _over_common_denominator(other.terms)
        if ra is None or rb is None:  # another ring: multiply its own elements
            ra, rb = (self.terms, None), (other.terms, None)
        (a, da), (b, db) = ra, rb
        # j indexes the second exponent; in one variable it repeats the first
        j = min(1, len(orders) - 1)
        by_first: dict[int, list] = {}
        for eb, cb in b.items():
            by_first.setdefault(eb[0], []).append((eb[j], eb, cb))
        groups = [(e0, sorted(g, key=itemgetter(0))) for e0, g in sorted(by_first.items())]
        rest = orders[2:]
        sums: dict[tuple, object] = {}
        for ea, ca in a.items():
            room0, roomj = orders[0] - ea[0], orders[j] - ea[j]
            for e0, group in groups:
                if e0 > room0:
                    break
                for ej, eb, cb in group:
                    if ej > roomj:
                        break
                    e = (*map(add, ea, eb),)
                    if rest and any(x > o for x, o in zip(e[2:], rest)):
                        continue
                    s = sums.get(e)
                    p = ca * cb
                    sums[e] = p if s is None else s + p
        if da is None and db is None:
            return self._with_terms({e: s for e, s in sums.items() if s})
        den = (da or 1) * (db or 1)
        return self._with_terms({e: Fraction(s, den) for e, s in sums.items() if s})

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> "TruncatedSeries":
        if k < 0:
            unit, inv = self._unit()
            out = self._with_terms(unit._euler("power", Fraction(k)))
            return out if inv is None else out.scale(inv ** -k)
        result = TruncatedSeries(self.variables, self.orders, {(0,) * len(self.variables): self.one}, self.one)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- functional operations ---------------------------------------------

    def _unit(self):
        """(self / c0, 1 / c0) for the constant term c0; (self, None) when c0 is the ring's one."""
        c0 = self.constant_term()
        if c0 is None or not c0:
            raise ValueError("constant term must be invertible")
        if c0 == self.one:
            return self, None
        if not isinstance(c0, (int, Fraction)):
            raise ValueError("constant term is not invertible in this ring")
        inv = _FR_ONE / c0
        return self.scale(inv), inv

    def _euler(self, op: str, alpha: Fraction = _FR_ONE) -> dict:
        """Terms of log f, exp f or f**alpha for f = self, in f's own box.

        f has nonnegative exponents and constant term one (zero for exp).  The
        total-degree Euler operator D, with D x^e = |e| x^e, commutes with
        truncation, and f D(log f) = D f, D(exp f) = exp f D f and
        f D P = alpha P D f (P = f**alpha) give each coefficient from those of
        lower total degree.  With
        S1 = sum_{0 != k <= e} f_k b_{e-k} and S2 the same sum weighted by |k|:
            log f:     g_e = |e| f_e - S1 for g = D(log f), and L_e = g_e / |e|
            exp f:     |e| b_e = S2
            f**alpha:  |e| b_e = (alpha + 1) S2 - |e| S1
        The inverse is alpha = -1, where S2 drops out and is not summed.
        Rational coefficients run as integers: under x -> c x, with c the
        common denominator of f times q^2 for alpha = p/q, f, g and
        f**alpha all have integer coefficients (q^(2m) binom(p/q, m) is an
        integer), and a coefficient of exp stays an int where |e| divides it.
        Each result coefficient is divided by c^|e| on the way out, into one
        Fraction.  Other rings run the same recurrence on their own elements.
        """
        if self.has_negative_exponents():
            raise ValueError("functional operations need nonnegative exponents")
        f = {k: v for k, v in self.terms.items() if any(k)}
        split = _over_common_denominator(f) if isinstance(self.one, (int, Fraction)) else None
        p, q = alpha.numerator, alpha.denominator
        if split is None:  # another ring: solve on its own elements
            c, b0, zero = None, self.one, self.one - self.one

            def div(s, m):
                return s * Fraction(1, m)
        else:
            nums, d = split
            d = d or 1
            c, b0, zero = d * q * q, 1, 0
            f = {k: v * c ** sum(k) // d for k, v in nums.items()}

            def div(s, m):
                if type(s) is int and not s % m:
                    return s // m
                return Fraction(s, m)
        g = None
        if op == "log":  # b = D(log f), whose constant term is zero
            b0 = None

            def step(e, n, s1, s2):
                fe = f.get(e)
                return -s1 if fe is None else n * fe - s1
        elif op == "exp":
            f = {k: sum(k) * v for k, v in f.items()}

            def step(e, n, s1, s2):
                return div(s1, n)
        else:  # power; S2 has the factor alpha + 1
            g = {k: sum(k) * v for k, v in f.items()} if p + q else None

            def step(e, n, s1, s2):
                return div((p + q) * s2 - q * n * s1, q * n)
        b = _solve(f, g, self.orders, b0, zero, step)
        if op == "log":
            if c is None:
                return {e: v * Fraction(1, sum(e)) for e, v in b.items()}
            return {e: Fraction(v, sum(e) * c ** sum(e)) for e, v in b.items()}
        if c is None:
            return b
        return {e: Fraction(v, c ** sum(e)) for e, v in b.items()}

    def inverse(self) -> "TruncatedSeries":
        return self ** -1

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != self.one:
            raise ValueError("log needs constant term 1")
        return self._with_terms(self._euler("log"))

    def exp(self) -> "TruncatedSeries":
        """exp of a series with constant term 0."""
        if self.constant_term() is not None:
            raise ValueError("exp needs constant term 0")
        return self._with_terms(self._euler("exp"))

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1 (the power 1/2)."""
        if self.constant_term() != self.one:
            raise ValueError("sqrt needs constant term 1")
        return self._with_terms(self._euler("power", Fraction(1, 2)))

    # -- display --------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for expts in sorted(self.terms):
            mono = " ".join(
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.variables, expts)
                if e
            )
            c = self.terms[expts]
            cs = str(c)
            if mono:
                cs = f"({cs})" if (" " in cs or "/" in cs) else cs
                bits.append(f"{cs} {mono}" if cs != "1" else mono)
            else:
                bits.append(cs if " " not in cs else f"({cs})")
        return " + ".join(bits)

    def __repr__(self) -> str:
        frame = ", ".join(f"{v}<={o}" for v, o in zip(self.variables, self.orders))
        return f"<TruncatedSeries [{frame}] {self}>"


def qpoly(terms: dict[int, RationalFunctionU], q_bound: int) -> TruncatedSeries:
    """A polynomial in Q over the bracket ring, truncated at Q^q_bound."""
    return TruncatedSeries(("Q",), (q_bound,), {(e,): c for e, c in terms.items()}, RFU_ONE)


def _solve(f, g, orders, b0, zero, step) -> dict:
    """{e: b_e} for the nonzero b_e of a first-order recurrence on the box `orders`.

    f, and g when given (with the same keys), map exponents k != 0 inside the
    box to coefficients.  b_0 is b0 (None for zero).  Every other e of the box
    is solved in lexicographic order, which puts each e - k with 0 != k <= e
    first: b_e = step(e, |e|, S1, S2) with S1 = sum f_k b_{e-k} and
    S2 = sum g_k b_{e-k} (S2 stays `zero` without g).  The terms of f are
    grouped as in the product (by first exponent ascending, each group sorted
    by the second), so the loops stop once k passes e there; further
    exponents are compared one by one.  Exponents are flattened to mixed-radix
    indices, in which e - k sits at index(e) - index(k).
    """
    box = list(product(*(range(o + 1) for o in orders)))
    strides = [1] * len(orders)
    for m in range(len(orders) - 1, 0, -1):
        strides[m - 1] = strides[m] * (orders[m] + 1)
    # j indexes the second exponent; in one variable it repeats the first
    j = min(1, len(orders) - 1)
    by_first: dict[int, list] = {}
    for k, c in f.items():
        w = None if g is None else g[k]
        by_first.setdefault(k[0], []).append((k[j], sum(map(mul, k, strides)), k[2:], c, w))
    groups = [(k0, sorted(grp, key=itemgetter(0))) for k0, grp in sorted(by_first.items())]
    b = [None] * len(box)
    b[0] = b0
    for ie in range(1, len(box)):
        e = box[ie]
        e0, ej, rest = e[0], e[j], e[2:]
        s1 = s2 = zero
        for k0, group in groups:
            if k0 > e0:
                break
            for kj, ik, krest, c, w in group:
                if kj > ej:
                    break
                if krest and any(map(gt, krest, rest)):
                    continue
                v = b[ie - ik]
                if v is not None:
                    s1 += c * v
                    if w is not None:
                        s2 += w * v
        v = step(e, sum(e), s1, s2)
        if v:
            b[ie] = v
    return {e: v for e, v in zip(box, b) if v is not None}


# -- expansion in the string coupling ----------------------------------------

HBAR = "hbar"


def _hbar_coefficient(p, k: int) -> Fraction:
    """[hbar^k] of a LaurentU under u = exp(hbar/2): content * sum_e p_e e^k / (2^k k!)."""
    return p.content * Fraction(sum(c * e ** k for e, c in p.poly.items()), 2 ** k * factorial(k))


def hbar_expand(f: RationalFunctionU, order: int) -> TruncatedSeries:
    """Expand a bracket-ring value under u = exp(hbar/2) as a Laurent series.

    hbar = i*lambda is the string coupling times i, so every coefficient is
    rational and the lambda^k coefficient is i^k times the hbar^k one.
    Returns a TruncatedSeries in `hbar` over Fraction with exponents from
    -(pole order) up to `order`.  Each bracket [d] = 2 sinh(d hbar / 2) has a
    simple zero at hbar = 0, so the denominator prod [den] is hbar^v times a
    unit with constant term prod den, v = len(den).  The numerator is divided
    by that unit with the series inverse, and the quotient shifted down by v.
    """
    if not f:
        return TruncatedSeries((HBAR,), (order,))
    v = len(f.den)
    den = bracket_product(f.den)
    work = max(order + v, 0)
    num = TruncatedSeries((HBAR,), (work,), {(k,): _hbar_coefficient(f.num, k) for k in range(work + 1)})
    unit = TruncatedSeries((HBAR,), (work,), {(k,): _hbar_coefficient(den, v + k) for k in range(work + 1)})
    quot = num * unit.inverse()
    return TruncatedSeries((HBAR,), (order,), {(e - v,): c for (e,), c in quot.terms.items()})
