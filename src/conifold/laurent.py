"""The quantum-bracket ring: Laurent polynomials in u = q^{1/2} over products of brackets.

A nonzero LaurentU is stored as content * P(u) (FLINT's fmpq_poly layout): a
signed nonzero Fraction content and a sparse {exponent: int} polynomial P that
is primitive (its coefficients have gcd 1) with a positive top coefficient.
The pair is unique, so equality and hashing compare it directly; the zero
polynomial has content 0 and an empty P.  Exponents are in units of u, so the
bracket [n] = u^n - u^{-n} has exponents +-n and never a half-integer.

By Gauss's lemma a product of primitive polynomials is primitive and the top
coefficients multiply, so a product multiplies the contents and convolves the
integer P's with no gcd; a sum takes one lcm of the content denominators and
one gcd of the integer result (Knuth, TAOCP vol. 2, 4.6.1).

RationalFunctionU is a LaurentU numerator over a multiset of positive bracket
arguments, the only denominators the package builds (brane weights, closed
forms, correlators, Adams-scaled Moebius sums).  As u^d [d] = u^(2d) - 1, two
integer kernels carry all of its arithmetic: multiplying by a bracket is two
shifted copies of the sparse polynomial, and dividing by u^s - 1 exactly is a
prefix sum along each residue class mod s of a dense list.  Sums and equality
multiply; only canonical(), the reduced form that printing, hashing and
as_laurent read, divides: since u^s - 1 = prod_{e | s} Phi_e(u), the gcd of a
numerator with a bracket product is a product of cyclotomic polynomials, and
dividing by Phi_e is multiplying by the u^d - 1 with mu(e/d) = -1 and dividing
by those with mu(e/d) = +1.  No Euclid runs anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import sub

from .partitions import divisors, mobius

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _over_common_denominator(terms):
    """(numerators, d) with every coefficient equal to numerators[e] / d.

    d is None when every coefficient is an int (they are returned as given).
    Returns None when some coefficient is neither an int nor a Fraction.
    """
    d = None
    for c in terms.values():
        if isinstance(c, Fraction):
            d = lcm(d or 1, c.denominator)
        elif not isinstance(c, int):
            return None
    if d is None:
        return terms, None
    return {e: c.numerator * (d // c.denominator) for e, c in terms.items()}, d


def _lu(content: Fraction, poly: dict[int, int]) -> "LaurentU":
    """content * P(u) for a P already primitive with a positive top coefficient."""
    out = object.__new__(LaurentU)
    out.content = content
    out.poly = poly
    return out


def _from_ints(nums: dict[int, int], d: int) -> "LaurentU":
    """sum_e nums[e] / d * u^e, for nonzero integers nums and a positive d."""
    if not nums:
        return LAURENT_ZERO
    g = gcd(*nums.values())
    if nums[max(nums)] < 0:
        g = -g
    return _lu(Fraction(g, d), nums if g == 1 else {e: v // g for e, v in nums.items()})


class LaurentU:
    """Laurent polynomial in u over the rationals, stored as content * P(u); immutable by convention.

    Invariants of a nonzero value: `content` is a nonzero Fraction, `poly` is
    a nonempty {exponent: int} map with no zero value, the gcd of its values
    is 1 and its value at the largest exponent is positive.  Zero has content
    0 and an empty poly.  `terms` is the derived {exponent: Fraction} view.
    """

    __slots__ = ("content", "poly")

    def __init__(self, terms=None):
        self.content, self.poly = _ZERO, {}
        if terms:
            split = _over_common_denominator(terms)
            if split is None:
                raise TypeError("LaurentU coefficients must be int or Fraction")
            nums, d = split
            x = _from_ints({int(e): int(v) for e, v in nums.items() if v}, d or 1)
            self.content, self.poly = x.content, x.poly

    @property
    def terms(self) -> dict[int, Fraction]:
        n, d = self.content.numerator, self.content.denominator
        if d == 1:
            return {e: Fraction(n * v) for e, v in self.poly.items()}
        return {e: Fraction(n * v, d) for e, v in self.poly.items()}

    # -- constructors -------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, LaurentU):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentU({0: x})
        return NotImplemented

    # -- structure ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.poly)

    def degree(self) -> int:
        if not self.poly:
            raise ValueError("degree of the zero polynomial")
        return max(self.poly)

    def valuation(self) -> int:
        if not self.poly:
            raise ValueError("valuation of the zero polynomial")
        return min(self.poly)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.content == o.content and self.poly == o.poly

    def __hash__(self):
        return hash((self.content, frozenset(self.poly.items())))

    # -- ring operations ----------------------------------------------

    def __neg__(self):
        return _lu(-self.content, self.poly)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.poly:
            return self
        if not self.poly:
            return o
        ca, cb = self.content, o.content
        d = lcm(ca.denominator, cb.denominator)
        fa, fb = ca.numerator * (d // ca.denominator), cb.numerator * (d // cb.denominator)
        a, b = self.poly, o.poly
        if len(a) < len(b):
            a, b, fa, fb = b, a, fb, fa
        out = {e: v * fa for e, v in a.items()}
        for e, v in b.items():
            s = out.get(e, 0) + v * fb
            if s:
                out[e] = s
            else:
                del out[e]
        return _from_ints(out, d)

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
            if not other or not self.poly:
                return LAURENT_ZERO
            return _lu(self.content * other, self.poly)
        if not isinstance(other, LaurentU):
            return NotImplemented
        a, b = self.poly, other.poly
        if not a or not b:
            return LAURENT_ZERO
        content = self.content * other.content
        if len(a) > len(b):
            a, b = b, a
        # a primitive monomial is u^k, in the CLI jobs always u^0 (a constant
        # numerator); without this shift the oracle workload read about 4% slower
        if len(a) == 1:
            (k,) = a
            return _lu(content, {e + k: v for e, v in b.items()} if k else b)
        # Gauss's lemma: the product of primitive polynomials is primitive
        out: dict[int, int] = {}
        for ea, va in a.items():
            for eb, vb in b.items():
                e = ea + eb
                out[e] = out.get(e, 0) + va * vb
        return _lu(content, {e: v for e, v in out.items() if v})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentU":
        if k < 0:
            raise ValueError("negative power of a LaurentU")
        result = LaurentU({0: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def shift(self, k: int) -> "LaurentU":
        """Multiply by u^k."""
        return _lu(self.content, {e + k: v for e, v in self.poly.items()})

    def bar(self) -> "LaurentU":
        """The involution u -> u^{-1}."""
        if not self.poly:
            return self
        # the new top coefficient is the old bottom one, whose sign may differ
        if self.poly[min(self.poly)] < 0:
            return _lu(-self.content, {-e: -v for e, v in self.poly.items()})
        return _lu(self.content, {-e: v for e, v in self.poly.items()})

    def has_integer_coeffs(self) -> bool:
        return self.content.denominator == 1

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        """Terms by falling exponent, as -3/2*u^2 + u - 1; each coefficient is reduced from content * P."""
        if not self.poly:
            return "0"
        n, d = self.content.numerator, self.content.denominator
        out = []
        for e in sorted(self.poly, reverse=True):
            v = n * self.poly[e]
            g = gcd(v, d)
            mag = str(abs(v) // g) if g == d else f"{abs(v) // g}/{d // g}"
            if e:
                up = "u" if e == 1 else f"u^{e}"
                mag = up if mag == "1" else f"{mag}*{up}"
            out.append(("- " if v < 0 else "+ ") + mag)
        # the top coefficient has the sign of the content; it is written with no space
        out[0] = ("-" if n < 0 else "") + out[0][2:]
        return " ".join(out)

    def __repr__(self) -> str:
        return f"<LaurentU {self}>"


LAURENT_ZERO = LaurentU()
LAURENT_ONE = LaurentU({0: 1})


def qbracket(n: int) -> LaurentU:
    """[n] = u^n - u^{-n}; [0] = 0 and [-n] = -[n]."""
    return bracket_product((n,))


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


# -- integer polynomial core: sparse bracket products, exact division on dense lists


def _primitive(p: LaurentU) -> tuple[Fraction, int, list[int]]:
    """(content, v, P) with p = content * u^v * P(u), for nonzero p; P is a dense list."""
    poly = p.poly
    v = min(poly)
    dense = [0] * (max(poly) - v + 1)
    for e, c in poly.items():
        dense[e - v] = c
    return p.content, v, dense


def _laurent(coeffs: list[int], shift: int, scale: Fraction) -> LaurentU:
    """sum_e scale * coeffs[e] * u^(e + shift), for coeffs primitive with a positive top.

    Multiplying or exactly dividing a primitive list by the monic u^s - 1
    leaves it primitive with the same top (Gauss's lemma), so every list the
    kernels below return from a _primitive one is taken as it stands.
    """
    return _lu(scale, {e + shift: c for e, c in enumerate(coeffs) if c})


def _times_binomial(a: list[int], s: int) -> list[int]:
    """a * (u^s - 1): two shifted copies of a dense list."""
    b = [0] * s + a
    b[:len(a)] = map(sub, b[:len(a)], a)
    return b


def _div_binomial(a: list[int], s: int) -> list[int] | None:
    """b with a = b * (u^s - 1), or None when there is none.

    b_i = a_(i+s) + b_(i+s), so read from the top, b is the prefix sum of a
    along each residue class mod s; the s full sums are the remainder and
    must vanish.
    """
    n = len(a) - s
    if n <= 0:
        return None
    a = a[::-1]
    b = [0] * len(a)
    for r in range(s):
        b[r::s] = accumulate(a[r::s])
    if any(b[n:]):
        return None
    return b[n - 1::-1]


def _div_cyclotomic(a: list[int], e: int) -> list[int] | None:
    """a / Phi_e(u), or None when Phi_e does not divide a.

    Phi_e = prod_{d | e} (u^d - 1)^mu(e/d) has degree phi(e) = sum_{d | e}
    mu(e/d) d, so an a of lower degree is refused at once.  Otherwise a is
    multiplied by the factors with mu = -1, then divided by those with
    mu = +1.  If Phi_e divides a, every partial quotient is a polynomial, so
    an inexact step proves that it does not.
    """
    mu = {d: mobius(e // d) for d in divisors(e)}
    if len(a) <= sum(m * d for d, m in mu.items()):
        return None
    for d, m in mu.items():
        if m < 0:
            a = _times_binomial(a, d)
    for d, m in mu.items():
        if m > 0:
            a = _div_binomial(a, d)
            if a is None:
                return None
    return a


def _times_brackets(p: LaurentU, args) -> LaurentU:
    """p * prod_j [d_j] for positive d_j: per bracket, two shifted copies of the sparse P.

    [d] = u^d - u^(-d) is monic up to a power of u, so by Gauss's lemma the
    product keeps the content of p; an exponent where the copies cancel is
    dropped.
    """
    poly = p.poly
    if not args or not poly:
        return p
    for d in args:
        q = {e + d: c for e, c in poly.items()}
        for e, c in poly.items():
            e -= d
            c = q.get(e, 0) - c
            if c:
                q[e] = c
            else:
                del q[e]
        poly = q
    return _lu(p.content, poly)


def _union(a: tuple[int, ...], b: tuple[int, ...]):
    """(M, M - a, M - b) for M the max-multiplicity union of the sorted multisets a and b."""
    lack_a, lack_b = [], list(a)
    for d in b:
        if d in lack_b:
            lack_b.remove(d)
        else:
            lack_a.append(d)
    return tuple(sorted(a + tuple(lack_a))), lack_a, lack_b


def _rfu(num: LaurentU, den: tuple[int, ...]) -> "RationalFunctionU":
    """num / prod [den] for a sorted tuple of positive den, with no check."""
    out = object.__new__(RationalFunctionU)
    out.num, out.den = num, den if num.poly else ()
    return out


class RationalFunctionU:
    """num / prod_j [den_j], den a sorted tuple of positive bracket arguments; immutable by convention.

    The pair is not reduced, and a zero value has den ().  A sum brings both
    numerators to the max-multiplicity union of the two multisets, a product
    adds them, and equality cross-multiplies over the union.  canonical() is
    the reduced num / bracket_product(den): the denominator a monic product of
    cyclotomic polynomials coprime to the numerator, the u-power shift on the
    numerator.  It is computed afresh on each call.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den_args=()):
        if isinstance(num, (int, Fraction)):
            num = LaurentU({0: num})
        den = tuple(sorted(den_args))
        if den and den[0] < 1:
            raise ValueError("denominator bracket arguments must be positive; bracket_ratio folds signs")
        self.num, self.den = num, den if num.poly else ()

    @staticmethod
    def _coerce(x):
        if isinstance(x, RationalFunctionU):
            return x
        if isinstance(x, (int, Fraction, LaurentU)):
            return RationalFunctionU(x)
        return NotImplemented

    # -- canonical form ------------------------------------------------

    def canonical(self) -> tuple[LaurentU, LaurentU]:
        """(numerator, denominator) in lowest terms, the denominator monic at valuation zero.

        The numerator, as a dense list, has each whole u^(2d) - 1 of the
        denominator that divides it cancelled; then, for the arguments d left,
        each Phi_e (e | 2d) as often as both sides hold it.  The denominator
        is a product of cyclotomic polynomials, so what is left is coprime.
        The denominator prod (u^(2d) - 1) over the d left is built sparse by
        _times_brackets, and goes dense only when some Phi_e is divided out
        of it.  The one place the package divides in the bracket ring.
        """
        if not self.den:
            return (self.num, LAURENT_ONE)
        c, v, a = _primitive(self.num)
        left = []
        for d in self.den:
            q = _div_binomial(a, 2 * d)
            if q is None:
                left.append(d)
            else:
                a = q
        held, cancelled = {}, []
        for d in left:
            for e in divisors(2 * d):
                held[e] = held.get(e, 0) + 1
        for e, k in held.items():
            for _ in range(k):
                q = _div_cyclotomic(a, e)
                if q is None:
                    break
                a = q
                cancelled.append(e)
        n = _laurent(a, v + sum(self.den), c)
        den = _times_brackets(_lu(_ONE, {sum(left): 1}), left)
        if cancelled:
            _, _, a = _primitive(den)
            for e in cancelled:
                a = _div_cyclotomic(a, e)
            den = _laurent(a, 0, _ONE)
        return (n, den)

    def __bool__(self) -> bool:
        return bool(self.num.poly)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.den == o.den:
            return self.num == o.num
        _, lack_a, lack_b = _union(self.den, o.den)
        return _times_brackets(self.num, lack_a) == _times_brackets(o.num, lack_b)

    def __hash__(self):
        return hash(self.canonical())

    # -- ring operations ------------------------------------------------

    def __neg__(self):
        return _rfu(-self.num, self.den)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.num.poly:
            return o
        if not o.num.poly:
            return self
        if self.den == o.den:
            return _rfu(self.num + o.num, self.den)
        den, lack_a, lack_b = _union(self.den, o.den)
        return _rfu(_times_brackets(self.num, lack_a) + _times_brackets(o.num, lack_b), den)

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
            return _rfu(self.num * other, self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _rfu(self.num * o.num, tuple(sorted(self.den + o.den)))

    __rmul__ = __mul__

    def bar(self) -> "RationalFunctionU":
        """The involution u -> u^{-1}; each bracket changes sign."""
        num = self.num.bar()
        return _rfu(-num if len(self.den) % 2 else num, self.den)

    # -- extraction -------------------------------------------------------

    def as_laurent(self) -> LaurentU:
        """The value as a LaurentU: the numerator of canonical(), whose denominator must be 1."""
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
    args = tuple(args)
    if 0 in args:
        return LAURENT_ZERO
    # [-d] = -[d]; the sign lives in the content
    sign = -_ONE if sum(d < 0 for d in args) % 2 else _ONE
    return _times_brackets(_lu(sign, {0: 1}), [abs(d) for d in args])


def bracket_ratio(num_args, den_args) -> RationalFunctionU:
    """Product of brackets over product of brackets, from integer arguments, through bracket_normal."""
    sign, num, den = bracket_normal(num_args, den_args)
    return _rfu(bracket_product(num) * sign, den)


def bracket_normal(num_args, den_args) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Normal form (sign, numerator, denominator) of prod_j [num_j] / prod_k [den_k].

    The sign is (-1)^(number of negative arguments), since [-d] = -[d]; the
    two sorted tuples hold the |arguments| left after cancelling those common
    to numerator and denominator.  A zero numerator argument gives (0, (), ()),
    the one form of the zero value; a zero denominator argument raises.

    Equal normal forms are equal values.  The converse holds too: for d > 0,
    u^d [d] = u^(2d) - 1 = prod_{e | 2d} Phi_e(u), so the ratio is a unit
    +-u^s times prod_e Phi_e^(c_e), where c_e is the number of numerator
    arguments d with e | 2d minus the number of denominator ones.  Q[u] has
    unique factorization, so the value fixes every c_e.  As c_e sums the
    signed multiplicities of the |arguments| d over the multiples 2d of e,
    Moebius inversion gives those multiplicities back, that is the cancelled
    multisets, and with them s; the value then fixes the sign.  So two ratios
    are equal exactly when their normal forms are, and neither is expanded.
    """
    # one pass per tuple: count signs, take absolute values, cancel
    sign, zero, num, den = 1, False, [], []
    for d in num_args:
        if d < 0:
            sign, d = -sign, -d
        elif not d:
            zero = True
        num.append(d)
    for d in den_args:
        if d < 0:
            sign, d = -sign, -d
        elif not d:
            raise ZeroDivisionError("zero bracket in a denominator")
        if d in num:
            num.remove(d)
        else:
            den.append(d)
    if zero:
        return (0, (), ())
    num.sort()
    den.sort()
    return (sign, tuple(num), tuple(den))
