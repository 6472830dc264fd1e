"""The quantum-bracket ring: Laurent polynomials in u = q^{1/2} and their quotients.

A LaurentU is a finite map {exponent: coefficient} over the rationals; the
exponent is measured in units of u, so the bracket [n] = u^n - u^{-n} has
exponents +-n and never a half-integer.  RationalFunctionU is a quotient of
two LaurentU values with a canonical reduced form (polynomial gcd removed,
denominator of valuation zero and monic) so that equality is decidable.

Gcds and exact division see a nonzero LaurentU as content * u^v * P(u): one
rational content, a u-power, and a primitive integer polynomial P with a
positive top coefficient.  The gcd of the P's is a primitive pseudo-remainder
sequence over Z and exact division is integer trial division; by Gauss's
lemma both give the answer over Q (Knuth, TAOCP vol. 2, 4.6.1).  Fractions
are built only when a result becomes a LaurentU again.

Arithmetic on quotients is lazy: sums keep denominators small by cancelling
the gcd of the two denominators, products just multiply, and the canonical
form is computed once on demand (equality, serialization, extraction).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot use {type(x).__name__} as a rational coefficient")


class LaurentU:
    """Laurent polynomial in u with Fraction coefficients; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                c = _frac(c)
                if c:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def monomial(exponent: int, coeff=1) -> "LaurentU":
        return LaurentU({exponent: coeff})

    @staticmethod
    def const(c) -> "LaurentU":
        return LaurentU({0: c})

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentU):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentU({0: x})
        return NotImplemented

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("degree of the zero polynomial")
        return max(self.terms)

    def valuation(self) -> int:
        if not self.terms:
            raise ValueError("valuation of the zero polynomial")
        return min(self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- ring operations ----------------------------------------------

    def __neg__(self):
        out = LaurentU()
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        big, small = (self.terms, o.terms) if len(self.terms) >= len(o.terms) else (o.terms, self.terms)
        out = dict(big)
        for e, c in small.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentU()
        r.terms = out
        return r

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if not c:
                return LaurentU()
            out = LaurentU()
            out.terms = {e: v * c for e, v in self.terms.items()}
            return out
        if not isinstance(other, LaurentU):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return LaurentU()
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = out.get(e, _ZERO) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = LaurentU()
        r.terms = out
        return r

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentU":
        if k < 0:
            raise ValueError("negative power of a LaurentU; use RationalFunctionU")
        result = LaurentU({0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other) -> "RationalFunctionU":
        o = self._coerce(other)
        if o is NotImplemented:
            if isinstance(other, RationalFunctionU):
                return RationalFunctionU(self) / other
            return NotImplemented
        return RationalFunctionU(self, o)

    def shift(self, k: int) -> "LaurentU":
        """Multiply by u^k."""
        out = LaurentU()
        out.terms = {e + k: c for e, c in self.terms.items()}
        return out

    def bar(self) -> "LaurentU":
        """The involution u -> u^{-1}."""
        out = LaurentU()
        out.terms = {-e: c for e, c in self.terms.items()}
        return out

    def has_integer_coeffs(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                up = "u" if e == 1 else f"u^{e}"
                body = up if mag == 1 else f"{mag}*{up}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self) -> str:
        return f"<LaurentU {self}>"


LAURENT_ZERO = LaurentU()
LAURENT_ONE = LaurentU({0: 1})


def qbracket(n: int) -> LaurentU:
    """[n] = u^n - u^{-n}; [0] = 0 and [-n] = -[n]."""
    return LaurentU.monomial(n) - LaurentU.monomial(-n)


def qfactorial(n: int) -> LaurentU:
    """[n]! = [n][n-1]...[1], with [0]! = 1."""
    if n < 0:
        raise ValueError("qfactorial needs n >= 0")
    return bracket_product(range(1, n + 1))


def qbinomial(n: int, j: int) -> "RationalFunctionU":
    """Quantum binomial [n][n-1]...[n-j+1] / [j]!.

    For 0 <= j <= n this reduces to a Laurent polynomial with nonnegative
    integer coefficients, invariant under u -> u^{-1}.
    """
    if j < 0:
        raise ValueError("qbinomial needs j >= 0")
    return bracket_ratio(range(n, n - j, -1), range(1, j + 1))


# -- integer polynomial core (lists of ints, index = exponent) -------------


def _primitive(p: LaurentU) -> tuple[Fraction, int, list[int]]:
    """(content, v, P) with p = content * u^v * P(u), for nonzero p."""
    terms = p.terms
    v = min(terms)
    den = lcm(*[c.denominator for c in terms.values()])
    dense = [0] * (max(terms) - v + 1)
    for e, c in terms.items():
        dense[e - v] = c.numerator * (den // c.denominator)
    prim = _primitive_part(dense)
    return Fraction(dense[-1] // prim[-1], den), v, prim


def _primitive_part(a: list[int]) -> list[int]:
    """a divided by its content, signed so that the top coefficient is positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else [c // g for c in a]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """A remainder of a by b (degree below deg b), up to a nonzero integer factor."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    low = b[:-1]
    while len(a) > db:
        la = a[-1]
        q, r = divmod(la, lb)
        if r:
            g = gcd(la, lb)
            scale, q = lb // g, la // g
            a = [scale * c for c in a]
        off = len(a) - 1 - db
        a[off:-1] = [x - q * y for x, y in zip(a[off:-1], low)]
        a.pop()
        while a and not a[-1]:
            a.pop()
    return a


def _gcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd (top coefficient positive) of two primitive polynomials."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            return b
        a, b = b, _primitive_part(r)
    return [1]


def _div_poly(a: list[int], b: list[int]) -> list[int] | None:
    """a / b in Z[u] for primitive b, or None when b does not divide a.

    By Gauss's lemma b divides a over Q exactly when this integer trial
    division leaves no fractional lead and no remainder.
    """
    db = len(b) - 1
    n = len(a) - db
    if n <= 0:
        return None
    lb = b[-1]
    low = b[:-1]
    a = list(a)
    q = [0] * n
    for i in range(n - 1, -1, -1):
        la = a[i + db]
        if la:
            f, r = divmod(la, lb)
            if r:
                return None
            q[i] = f
            a[i:i + db] = [x - f * y for x, y in zip(a[i:i + db], low)]
    if any(a[:db]):
        return None
    return q


def _laurent(coeffs: list[int], shift: int, scale: Fraction) -> LaurentU:
    """sum_e scale * coeffs[e] * u^(e + shift)."""
    n, d = scale.numerator, scale.denominator
    out = LaurentU()
    if d == 1:
        out.terms = {e + shift: Fraction(n * c) for e, c in enumerate(coeffs) if c}
    else:
        out.terms = {e + shift: Fraction(n * c, d) for e, c in enumerate(coeffs) if c}
    return out


def laurent_gcd(a: LaurentU, b: LaurentU) -> LaurentU:
    """Monic gcd of the polynomial parts (u-valuations ignored)."""
    if a.is_zero() or b.is_zero():
        raise ValueError("gcd with zero")
    g = _gcd_poly(_primitive(a)[2], _primitive(b)[2])
    return _laurent(g, 0, Fraction(1, g[-1]))


def laurent_exact_div(a: LaurentU, b: LaurentU) -> LaurentU:
    """a / b when b divides a exactly (up to a u-power); raises otherwise."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero LaurentU")
    if a.is_zero():
        return LaurentU()
    ca, va, pa = _primitive(a)
    cb, vb, pb = _primitive(b)
    q = _div_poly(pa, pb)
    if q is None:
        raise ArithmeticError("inexact Laurent division")
    return _laurent(q, va - vb, ca / cb)


class RationalFunctionU:
    """Quotient of two LaurentU values with a cached canonical form.

    Canonical form: gcd of numerator and denominator removed, the denominator
    shifted to valuation zero and scaled monic (so its top coefficient is the
    positive number 1); the u-power shift lives on the numerator.  Two values
    are equal iff their canonical pairs are literally equal.
    """

    __slots__ = ("num", "den", "_canon")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = LaurentU.const(num)
        if den is None:
            den = LAURENT_ONE
        elif isinstance(den, (int, Fraction)):
            den = LaurentU.const(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = LAURENT_ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunctionU is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunctionU):
            return x
        if isinstance(x, (int, Fraction, LaurentU)):
            return RationalFunctionU(x)
        return NotImplemented

    # -- canonical form ------------------------------------------------

    def canonical(self) -> tuple[LaurentU, LaurentU]:
        c = self._canon
        if c is None:
            c = self._canonicalize()
            object.__setattr__(self, "_canon", c)
        return c

    def _canonicalize(self) -> tuple[LaurentU, LaurentU]:
        num, den = self.num, self.den
        if num.is_zero():
            return (LAURENT_ZERO, LAURENT_ONE)
        if den.is_monomial():
            (e, c), = den.terms.items()
            n = num.shift(-e) * (1 / c)
            return (n, LAURENT_ONE)
        cn, vn, pn = _primitive(num)
        cd, vd, pd = _primitive(den)
        g = _gcd_poly(pn, pd)
        if len(g) > 1:
            pn = _div_poly(pn, g)
            pd = _div_poly(pd, g)
        lead = pd[-1]
        n = _laurent(pn, vn - vd, cn / (cd * lead))
        if len(pd) == 1:
            return (n, LAURENT_ONE)
        return (n, _laurent(pd, 0, Fraction(1, lead)))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.num == o.num and self.den == o.den:
            return True
        return self.canonical() == o.canonical()

    def __hash__(self):
        n, d = self.canonical()
        return hash((n, d))

    # -- field operations -----------------------------------------------

    def __neg__(self):
        return RationalFunctionU(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.num.is_zero():
            return o
        if o.num.is_zero():
            return self
        if self.den == o.den:
            return RationalFunctionU(self.num + o.num, self.den)
        # lcm denominator keeps repeated sums from blowing up
        g = laurent_gcd(self.den, o.den)
        if g == LAURENT_ONE:
            return RationalFunctionU(self.num * o.den + o.num * self.den, self.den * o.den)
        bg = laurent_exact_div(o.den, g)
        ag = laurent_exact_div(self.den, g)
        return RationalFunctionU(self.num * bg + o.num * ag, self.den * bg)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalFunctionU(self.num * other, self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunctionU(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "RationalFunctionU":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunctionU(self.den, self.num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "RationalFunctionU":
        if k < 0:
            return self.inverse() ** (-k)
        return RationalFunctionU(self.num ** k, self.den ** k)

    def bar(self) -> "RationalFunctionU":
        return RationalFunctionU(self.num.bar(), self.den.bar())

    # -- extraction -------------------------------------------------------

    def as_laurent(self) -> LaurentU:
        n, d = self.canonical()
        if d != LAURENT_ONE:
            raise ArithmeticError(f"{self} is not a Laurent polynomial")
        return n

    def __str__(self) -> str:
        n, d = self.canonical()
        if d == LAURENT_ONE:
            return str(n)
        return f"({n}) / ({d})"

    def __repr__(self) -> str:
        return f"<RationalFunctionU {self}>"


RFU_ZERO = RationalFunctionU(0)
RFU_ONE = RationalFunctionU(1)


def bracket_product(args) -> LaurentU:
    """prod_j [d_j] expanded with integer arithmetic.

    The one builder of bracket products in the package: qfactorial, qbinomial,
    the closed-form amplitudes and the Ooguri-Vafa right sides all come here.
    A zero argument gives the zero polynomial; no arguments give 1.
    """
    exps = {0: 1}
    for d in args:
        if d == 0:
            return LAURENT_ZERO
        new: dict[int, int] = {}
        for e, c in exps.items():
            up = e + d
            s = new.get(up, 0) + c
            if s:
                new[up] = s
            else:
                del new[up]
            dn = e - d
            s = new.get(dn, 0) - c
            if s:
                new[dn] = s
            else:
                del new[dn]
        exps = new
    out = LaurentU()
    out.terms = {e: Fraction(c) for e, c in exps.items() if c}
    return out


def bracket_ratio(num_args, den_args) -> RationalFunctionU:
    """Product of brackets over product of brackets, from integer arguments."""
    return RationalFunctionU(bracket_product(num_args), bracket_product(den_args))
