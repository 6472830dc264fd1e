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
functional operations can build constants.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import add, itemgetter

from .laurent import RationalFunctionU, _over_common_denominator

_FR_ONE = Fraction(1)


class TruncatedSeries:
    __slots__ = ("variables", "orders", "terms", "one")

    def __init__(self, variables, orders, terms=None, one=_FR_ONE):
        variables = tuple(variables)
        orders = tuple(int(o) for o in orders)
        if len(variables) != len(orders):
            raise ValueError("one truncation order per variable")
        self.variables = variables
        self.orders = orders
        self.one = one
        clean = {}
        if terms:
            for expts, c in terms.items():
                expts = tuple(int(e) for e in expts)
                if len(expts) != len(variables):
                    raise ValueError("exponent tuple length mismatch")
                if any(e > o for e, o in zip(expts, orders)):
                    continue
                if c:
                    clean[expts] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables, orders, one=_FR_ONE):
        return cls(variables, orders, {}, one)

    @classmethod
    def constant(cls, c, variables, orders, one=_FR_ONE):
        z = (0,) * len(tuple(variables))
        return cls(variables, orders, {z: c}, one)

    @classmethod
    def variable(cls, name, variables, orders, one=_FR_ONE):
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, orders, {tuple(e): one}, one)

    def zero_like(self):
        return TruncatedSeries(self.variables, self.orders, {}, self.one)

    def const_like(self, c):
        if isinstance(c, (int, Fraction)):
            c = self.one * Fraction(c)
        return TruncatedSeries(self.variables, self.orders, {(0,) * len(self.variables): c}, self.one)

    # -- structure --------------------------------------------------------

    def _idx(self, name: str) -> int:
        return self.variables.index(name)

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * len(self.variables), None)

    def scalar_coefficient(self, expts):
        """Coefficient at an exact exponent tuple (ring zero if absent)."""
        c = self.terms.get(tuple(expts))
        return c if c is not None else self.one - self.one

    def coefficient(self, name: str, e: int) -> "TruncatedSeries":
        """Sub-series multiplying name^e, with that exponent reset to zero."""
        i = self._idx(name)
        out = {}
        for expts, c in self.terms.items():
            if expts[i] == e:
                key = expts[:i] + (0,) + expts[i + 1:]
                out[key] = c
        return TruncatedSeries(self.variables, self.orders, out, self.one)

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
        if isinstance(other, (int, Fraction)):
            return self.const_like(other)
        # a bare ring element acts as a constant
        return self.const_like(self.one * other) if isinstance(other, type(self.one)) else None

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
                return self.zero_like()
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
                    e = tuple(map(add, ea, eb))
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
            return self.inverse() ** (-k)
        result = self.const_like(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- functional operations ---------------------------------------------

    @staticmethod
    def _power_sum(w, coeff) -> "TruncatedSeries":
        """sum_k coeff(k) w^k for w with nonnegative exponents and no constant term.

        Every term of w has total degree at least 1 and every stored term total
        degree at most sum(orders), so w^k vanishes once k > sum(orders); the
        loop stops there, or earlier when a power truncates to zero.
        """
        acc = w.const_like(coeff(0))
        power = w
        for k in range(1, sum(w.orders) + 1):
            if k > 1:
                power = power * w
            if power.is_zero():
                break
            c = coeff(k)
            acc = acc + (power if c == 1 else power.scale(c))
        return acc

    def inverse(self) -> "TruncatedSeries":
        if self.has_negative_exponents():
            raise ValueError("functional operations need nonnegative exponents")
        c0 = self.constant_term()
        if c0 is None or not c0:
            raise ValueError("constant term must be invertible")
        if c0 == self.one:
            inv = None
        elif isinstance(c0, (int, Fraction)):
            inv = _FR_ONE / c0
        elif hasattr(c0, "inverse"):
            inv = c0.inverse()
        else:
            raise ValueError("constant term is not invertible in this ring")
        unit = self if inv is None else self.scale(inv)
        # 1/(1+w) = sum (-w)^k, finite under truncation
        acc = self._power_sum(unit.const_like(1) - unit, lambda k: 1)
        return acc if inv is None else acc.scale(inv)

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        return NotImplemented

    def log(self) -> "TruncatedSeries":
        """log of a series with constant term 1."""
        c0 = self.constant_term()
        if c0 != self.one:
            raise ValueError("log needs constant term 1")
        w = self - self.const_like(1)
        if w.has_negative_exponents():
            raise ValueError("log needs nonnegative exponents")
        return self._power_sum(w, lambda k: Fraction((-1) ** (k - 1), k) if k else 0)

    def exp(self) -> "TruncatedSeries":
        """exp of a series with constant term 0."""
        if self.constant_term() is not None:
            raise ValueError("exp needs constant term 0")
        if self.has_negative_exponents():
            raise ValueError("exp needs nonnegative exponents")
        return self._power_sum(self, lambda k: Fraction(1, factorial(k)))

    def sqrt(self) -> "TruncatedSeries":
        """Square root of a series with constant term 1 (binomial series)."""
        c0 = self.constant_term()
        if c0 != self.one:
            raise ValueError("sqrt needs constant term 1")
        w = self - self.const_like(1)
        if w.has_negative_exponents():
            raise ValueError("sqrt needs nonnegative exponents")
        # binom(1/2, k) = (-1)^(k+1) C(2k, k) / (4^k (2k - 1))
        return self._power_sum(
            w, lambda k: Fraction((-1) ** (k + 1) * comb(2 * k, k), 4 ** k * (2 * k - 1))
        )

    def substitute(self, name: str, replacement: "TruncatedSeries") -> "TruncatedSeries":
        """Substitute a series (same frame) for the named variable."""
        self._compatible(replacement)
        i = self._idx(name)
        by_exp: dict[int, dict] = {}
        for expts, c in self.terms.items():
            e = expts[i]
            key = expts[:i] + (0,) + expts[i + 1:]
            by_exp.setdefault(e, {})[key] = c
        if any(e < 0 for e in by_exp):
            raise ValueError("substitute needs nonnegative exponents in the replaced variable")
        acc = self.zero_like()
        power = self.const_like(1)
        prev = 0
        for e in sorted(by_exp):
            for _ in range(e - prev):
                power = power * replacement
            prev = e
            part = TruncatedSeries(self.variables, self.orders, by_exp[e], self.one)
            acc = acc + part * power
        return acc

    def xdx(self, name: str) -> "TruncatedSeries":
        """The Euler operator x d/dx in the named variable."""
        i = self._idx(name)
        out = {}
        for expts, c in self.terms.items():
            if expts[i]:
                v = c * Fraction(expts[i])
                if v:
                    out[expts] = v
        return TruncatedSeries(self.variables, self.orders, out, self.one)

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


# -- compositional inverse --------------------------------------------------


def series_reversion(s: TruncatedSeries, name: str | None = None) -> TruncatedSeries:
    """Compositional inverse in the named (default: first) variable.

    Needs zero constant term, an invertible linear coefficient, and every term
    divisible by the variable.  Uses the Lagrange formula
        [v^n] t = (1/n) [v^{n-1}] (v / s)^n.
    """
    name = name or s.variables[0]
    i = s._idx(name)
    N = s.orders[i]
    zkey = (0,) * len(s.variables)
    if zkey in s.terms:
        raise ValueError("reversion needs zero constant term")
    if any(e[i] < 1 for e in s.terms):
        raise ValueError("reversion needs every term divisible by the variable")
    shifted = {}
    for expts, c in s.terms.items():
        key = expts[:i] + (expts[i] - 1,) + expts[i + 1:]
        shifted[key] = c
    g = TruncatedSeries(s.variables, s.orders, shifted, s.one)  # s / v
    c1 = g.constant_term()
    if c1 is None or not c1:
        raise ValueError("reversion needs an invertible linear coefficient")
    r = g.inverse()  # v / s
    out = s.zero_like()
    rpow = s.const_like(1)
    for n in range(1, N + 1):
        rpow = rpow * r
        coeff = rpow.coefficient(name, n - 1).scale(Fraction(1, n))
        shifted_up = {}
        for expts, c in coeff.terms.items():
            key = expts[:i] + (n,) + expts[i + 1:]
            shifted_up[key] = c
        out = out + TruncatedSeries(s.variables, s.orders, shifted_up, s.one)
    return out


# -- expansion in the string coupling ----------------------------------------

HBAR = "hbar"


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


def hbar_expand(f: RationalFunctionU, order: int) -> TruncatedSeries:
    """Expand a bracket-ring value under u = exp(hbar/2) as a Laurent series.

    hbar = i*lambda is the string coupling times i, so every coefficient is
    rational and the lambda^k coefficient is i^k times the hbar^k one.
    Returns a TruncatedSeries in `hbar` over Fraction with exponents from
    -(pole order) up to `order`.  The denominator's vanishing order at
    hbar = 0 is at most its number of terms minus one, which bounds the search.
    """
    if f.num.is_zero():
        return TruncatedSeries((HBAR,), (order,))
    den = f.den
    margin = len(den.terms)  # vanishing order is < number of terms
    work = max(order, 0) + margin
    den_series = _laurent_hbar_series(den, work)
    v = next((k for k, c in enumerate(den_series) if c), None)
    if v is None:
        raise ArithmeticError("denominator expansion vanished to its theoretical bound")
    work = max(order + v, 0)
    num_series = _laurent_hbar_series(f.num, work)
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
    return TruncatedSeries((HBAR,), (order,), terms)
