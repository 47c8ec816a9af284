"""Exact coefficient rings for the series engine.

Every ring is a small immutable descriptor object that knows how to
operate on raw payloads:

    rationals               Fraction
    gaussian rationals      (Fraction, Fraction), real and imaginary parts
    integers                int for plain Z; for Z[1/n], Fraction whose
                            denominator divides a power of the declared
                            inverted elements
    integers mod m          int in [0, m)
    power series            {exponent: base payload}, 0 <= exponent <= order
    laurent series          {exponent: base payload}, -tail <= exponent <= order
    laurent polynomials     {exponent: base payload}, any integer exponent, exact
    polynomial quotients    {(e_1, ..., e_r): base payload} reduced by the
                            ring's rewrite relations

Payloads never store explicit zeros, so payload equality is plain ``==``.
normalize() turns externally built data into these types and rejects
bool and float, so no inexact value reaches the arithmetic.
Rings nest freely (a Laurent series ring over a quotient ring over the
integers is fine) and the same operation set works at every level.

Truncated series semantics: a power series ring of order N is the honest
quotient by q^(N+1), so truncation commutes with every operation.  Laurent
windows are sharper at the bottom than at the top: exponents that would
fall below -tail raise TailOverflowError, exponents above the order are
dropped.  When negative and positive exponents mix, coefficients within
(combined negative valuation) of the order can be silently lost, so
products of Laurent polynomials in a window (the equivariant Euler
classes and the Thom tower stages) allocate order headroom and read
answers only below it.

Every ring divides through one entry point, divide(a, d).  The default
is a * d^-1.  Power and Laurent series rings divide by long division,
_SeriesLike._long_divide, the one series division kernel: the truncated
multivariate series of polyseries invert through PowerSeries.invert
too.  In a Laurent window that division is exact:

* for a divisor of valuation v <= 0, long division reads the dividend
  only through order + v, so a product by a Laurent polynomial of
  valuation v still divides back exactly;
* a monomial divisor c q^v with v > 0 is a shift, exact through
  order - v, and a quotient below the window raises TailOverflowError;
* any other divisor of positive valuation raises ValueError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field, replace
from functools import cached_property
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional

from .errors import (
    NotAUnitError,
    RingMismatchError,
    TailOverflowError,
    UnrepresentableError,
)

Payload = Any


class Ring:
    """Common operation set.  Subclasses define the payload convention."""

    def zero(self) -> Payload:
        raise NotImplementedError

    def one(self) -> Payload:
        return self.from_int(1)

    def from_int(self, n: int) -> Payload:
        raise NotImplementedError

    def from_fraction(self, fr: Fraction) -> Payload:
        raise NotImplementedError

    def add(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def neg(self, a: Payload) -> Payload:
        raise NotImplementedError

    def sub(self, a: Payload, b: Payload) -> Payload:
        return self.add(a, self.neg(b))

    def mul(self, a: Payload, b: Payload) -> Payload:
        raise NotImplementedError

    def is_zero(self, a: Payload) -> bool:
        return a == self.zero()

    def eq(self, a: Payload, b: Payload) -> bool:
        # payloads are canonical, so structural equality is ring equality
        return a == b

    def is_unit(self, a: Payload) -> bool:
        try:
            self.invert(a)
        except NotAUnitError:
            return False
        return True

    def invert(self, a: Payload) -> Payload:
        raise NotImplementedError

    def divide(self, a: Payload, d: Payload) -> Payload:
        """a / d for a unit d.  Power series and Laurent series rings
        override this with a long division that needs no inverse of d."""
        return self.mul(a, self.invert(d))

    def pow(self, a: Payload, n: int) -> Payload:
        if n < 0:
            return self.pow(self.invert(a), -n)
        return repeated(self.mul, a, n, self.one)

    def nilpotency_order(self, a: Payload, cap: int) -> Optional[int]:
        """Smallest k <= cap with a^k = 0, or None."""
        power = a
        for k in range(1, cap + 1):
            if self.is_zero(power):
                return k
            power = self.mul(power, a)
        return None

    def has_rational_scalars(self) -> bool:
        raise NotImplementedError

    def product_kernel(self, a: dict, b: dict) -> tuple:
        """What a series product loop over this ring runs on:
        (a, b, mul, add, is_zero, finish), the two operands' terms, the
        pair operations, and finish, which turns the loop's output
        terms back into payloads.  Every ring but Rationals and series
        rings over Q runs on its own payloads."""
        return a, b, self.mul, self.add, self.is_zero, _same_terms

    def linear_combination(self, pairs: Iterable[tuple[Optional[Payload], dict]]) -> dict:
        """The sum of c * t over pairs (c, t) of a payload c, or None
        for one, and a sparse term dict t, without explicit zeros.
        Every ring but Rationals runs on its own mul and add."""
        mul, add = self.mul, self.add
        out: dict = {}
        for c, t in pairs:
            for k, x in t.items():
                if c is not None:
                    x = mul(c, x)
                prev = out.get(k)
                out[k] = x if prev is None else add(prev, x)
        is_zero = self.is_zero
        return {k: x for k, x in out.items() if not is_zero(x)}

    def normalize(self, data: Payload) -> Payload:
        """Bring externally built data into canonical form."""
        return data

    def text(self, a: Payload) -> str:
        raise NotImplementedError

    def parse(self, s: str) -> Payload:
        raise NotImplementedError

    def descriptor(self) -> str:
        raise NotImplementedError

    def wrap(self, data: Payload) -> "RingElement":
        return RingElement(self, data)

    def el(self, value: "int | Fraction | Payload" = 0, *, raw: bool = False) -> "RingElement":
        """Convenience element constructor from int or Fraction."""
        if raw:
            return RingElement(self, self.normalize(value))
        if isinstance(value, bool):
            raise TypeError("bool is not a ring value")
        if isinstance(value, int):
            return RingElement(self, self.from_int(value))
        if isinstance(value, Fraction):
            return RingElement(self, self.from_fraction(value))
        raise TypeError(f"cannot build element from {value!r}")


_FRACTION_RE = re.compile(r"^[+-]?\d+(?:/\d*[1-9]\d*)?$")  # no zero denominator


def _parse_fraction(s: str) -> Fraction:
    s = s.strip()
    if not _FRACTION_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)


def _same_terms(terms: dict) -> dict:
    return terms


def repeated(op: Callable[[Any, Any], Any], a: Any, n: int, identity: Callable[[], Any]) -> Any:
    """a op a op ... op a with n factors, n >= 0, by repeated doubling.

    The chain starts from the first factor it needs, so op never sees
    the identity; identity() is called only for n = 0."""
    if n == 0:
        return identity()
    result = None
    while True:
        if n & 1:
            result = a if result is None else op(result, a)
        n >>= 1
        if not n:
            return result
        a = op(a, a)


def add_terms(ring: Ring, a: dict, b: dict) -> dict:
    """The termwise sum of two sparse term dicts over ring, without
    explicit zeros."""
    add, is_zero = ring.add, ring.is_zero
    out = dict(a)
    for k, c in b.items():
        prev = out.get(k)
        if prev is None:
            out[k] = c
            continue
        s = add(prev, c)
        if is_zero(s):
            del out[k]
        else:
            out[k] = s
    return out


def _over_common_denominator(terms: dict) -> tuple[dict, int]:
    """Rational terms as (integer numerators, their common denominator)."""
    den = math.lcm(*[c.denominator for c in terms.values()])
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _series_over_common_denominator(terms: dict) -> tuple[dict, int]:
    """Terms whose payloads are rational series {e: Fraction}, as
    (integer series payloads, one common denominator for all of them)."""
    den = math.lcm(*[c.denominator for p in terms.values() for c in p.values()])
    return {
        k: {e: c.numerator * (den // c.denominator) for e, c in p.items()}
        for k, p in terms.items()
    }, den


def _long_divide_rational(a: dict, d: dict, v: int, top: int) -> dict:
    """_SeriesLike._long_divide over Q, on integers.

    With a = A / den_a and d = D / den_d over integer series A and D,
    a / d = (den_d / den_a) * A / D.  Let u = D_v be D's lowest
    coefficient and i = e - start.  The numerator N_e = u^(i+1) (A/D)_e
    is an integer:

        N_e = u^i A_{e+v} - sum_{s >= 1} D_{v+s} u^(s-1) N_{e-s}

    so each quotient term costs one Fraction, not one gcd per step.
    When u is 1 or -1, as for every division point 1 - q^k, the powers
    of u are 1 or -1.
    """
    if not a:
        return {}
    nums, den_a = _over_common_denominator(a)
    den_series, den_d = _over_common_denominator(d)
    u = den_series[v]
    rest = sorted(
        (j - v, -c * u ** (j - v - 1)) for j, c in den_series.items() if j != v
    )
    start = min(a) - v
    out: dict[int, Fraction] = {}
    quot: dict[int, int] = {}
    scale = 1  # u^i
    for e in range(start, top + 1):
        n = nums.get(e + v, 0) * scale
        for s, c in rest:
            if e - s < start:
                break
            prev = quot.get(e - s)
            if prev is not None:
                n += c * prev
        scale *= u
        if n:
            quot[e] = n
            out[e] = Fraction(n * den_d, den_a * scale)
    return out


def _exact_rational(value) -> Fraction:
    """An int or Fraction payload as a Fraction; bool, float and every
    other type raise TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"{value!r} is not an exact rational payload")
    return Fraction(value)


def _split_top(s: str, sep: str = ",") -> list[str]:
    """Split at top level, respecting (), [], {} nesting."""
    parts: list[str] = []
    depth = 0
    current: list[str] = []
    for ch in s:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {s!r}")
    if current or parts:
        parts.append("".join(current))
    return parts


def _split_exponent_entry(entry: str) -> tuple[str, str]:
    """Break 'exp:coeff' at the first top-level colon."""
    depth = 0
    for i, ch in enumerate(entry):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == ":" and depth == 0:
            return entry[:i], entry[i + 1 :]
    raise ValueError(f"missing exponent separator in {entry!r}")


@dataclass(frozen=True)
class Rationals(Ring):
    def zero(self):
        return Fraction(0)

    def from_int(self, n):
        return Fraction(n)

    def from_fraction(self, fr):
        return Fraction(fr)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    def invert(self, a):
        if a == 0:
            raise NotAUnitError("0 is not invertible in Q")
        return Fraction(a.denominator, a.numerator)

    def has_rational_scalars(self):
        return True

    def product_kernel(self, a, b):
        # integers over one common denominator per operand: one Fraction
        # per output term, not one gcd per pair
        a, den_a = _over_common_denominator(a)
        b, den_b = _over_common_denominator(b)
        den = den_a * den_b

        def finish(out):
            return {k: Fraction(n, den) for k, n in out.items()}

        return a, b, operator.mul, operator.add, operator.not_, finish

    def linear_combination(self, pairs):
        # two passes: the common denominator of every c * t, then integer
        # numerators over it; one Fraction per output term
        scaled = []
        for c, t in pairs:
            if t:
                d = math.lcm(*[x.denominator for x in t.values()])
                scaled.append((c, t, d, d if c is None else d * c.denominator))
        den = math.lcm(*[cd for _, _, _, cd in scaled])
        out: dict = {}
        get = out.get
        for c, t, d, cd in scaled:
            scale = den // cd if c is None else c.numerator * (den // cd)
            for k, x in t.items():
                out[k] = get(k, 0) + scale * (d // x.denominator) * x.numerator
        return {k: Fraction(n, den) for k, n in out.items() if n}

    def normalize(self, data):
        return _exact_rational(data)

    def text(self, a):
        return str(a)

    def parse(self, s):
        return _parse_fraction(s)

    def descriptor(self):
        return "Q"


_GAUSS_RE = re.compile(r"^([+-]?\d+(?:/\d*[1-9]\d*)?)(?:([+-]\d+(?:/\d*[1-9]\d*)?)i)?$")


@dataclass(frozen=True)
class GaussianRationals(Ring):
    """Q(i) with payload (re, im)."""

    def zero(self):
        return (Fraction(0), Fraction(0))

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def from_fraction(self, fr):
        return (Fraction(fr), Fraction(0))

    def i(self):
        return (Fraction(0), Fraction(1))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])

    def invert(self, a):
        norm = a[0] * a[0] + a[1] * a[1]
        if norm == 0:
            raise NotAUnitError("0 is not invertible in Q(i)")
        return (a[0] / norm, -a[1] / norm)

    def has_rational_scalars(self):
        return True

    def normalize(self, data):
        re_part, im_part = data
        return (_exact_rational(re_part), _exact_rational(im_part))

    def text(self, a):
        re_part, im_part = a
        if im_part == 0:
            return str(re_part)
        sign = "+" if im_part > 0 else "-"
        return f"{re_part}{sign}{abs(im_part)}i"

    def parse(self, s):
        m = _GAUSS_RE.match(s.strip())
        if not m:
            raise ValueError(f"not a gaussian rational: {s!r}")
        re_part = Fraction(m.group(1))
        im_part = Fraction(m.group(2)) if m.group(2) else Fraction(0)
        return (re_part, im_part)

    def descriptor(self):
        return "Q[i]"


def _strip_factors(n: int, factors: tuple[int, ...]) -> int:
    n = abs(n)
    if n == 0:
        return 0
    changed = True
    while changed and n > 1:
        changed = False
        for f in factors:
            g = math.gcd(n, f)
            while g > 1:
                n //= g
                changed = True
                g = math.gcd(n, f)
    return n


@dataclass(frozen=True)
class Integers(Ring):
    """Z, optionally with finitely many declared elements made invertible.

    Plain Z stores int payloads.  With inverted elements the payloads
    are Fractions whose denominator divides a product of powers of the
    inverted elements, so Integers((3,)) is Z[1/3].
    """

    inverted: tuple[int, ...] = ()

    def __post_init__(self):
        for n in self.inverted:
            if n in (0, 1, -1):
                raise ValueError(f"cannot invert {n}")

    def zero(self):
        return Fraction(0) if self.inverted else 0

    def from_int(self, n):
        return Fraction(n) if self.inverted else operator.index(n)

    def from_fraction(self, fr):
        fr = Fraction(fr)
        if _strip_factors(fr.denominator, self.inverted) != 1:
            raise UnrepresentableError(
                f"{fr} does not lie in {self.descriptor()}"
            )
        return fr if self.inverted else fr.numerator

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a):
        return not a

    def invert(self, a):
        if a == 0:
            raise NotAUnitError("0 is not invertible")
        if _strip_factors(a.numerator, self.inverted) != 1:
            raise NotAUnitError(f"{a} is not a unit in {self.descriptor()}")
        if not self.inverted:
            return a  # the units of Z are 1 and -1, each its own inverse
        return Fraction(a.denominator, a.numerator)

    def has_rational_scalars(self):
        return False

    def normalize(self, data):
        return self.from_fraction(_exact_rational(data))

    def text(self, a):
        return str(a)

    def parse(self, s):
        return self.from_fraction(_parse_fraction(s))

    def descriptor(self):
        if not self.inverted:
            return "Z"
        inner = ",".join(f"1/{n}" for n in self.inverted)
        return f"Z[{inner}]"


@dataclass(frozen=True)
class IntegersMod(Ring):
    modulus: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")

    def zero(self):
        return 0

    def from_int(self, n):
        return n % self.modulus

    def from_fraction(self, fr):
        fr = Fraction(fr)
        try:
            inv = pow(fr.denominator, -1, self.modulus)
        except ValueError:
            raise NotAUnitError(
                f"denominator {fr.denominator} of {fr} is not a unit mod {self.modulus}"
            ) from None
        return (fr.numerator * inv) % self.modulus

    def add(self, a, b):
        return (a + b) % self.modulus

    def neg(self, a):
        return (-a) % self.modulus

    def mul(self, a, b):
        return (a * b) % self.modulus

    def is_zero(self, a):
        return not a

    def invert(self, a):
        if math.gcd(a, self.modulus) != 1:
            raise NotAUnitError(f"{a} is not a unit mod {self.modulus}")
        return pow(a, -1, self.modulus)

    def has_rational_scalars(self):
        return False

    def normalize(self, data):
        if isinstance(data, bool) or not isinstance(data, int):
            raise TypeError(f"{data!r} is not an integer payload mod {self.modulus}")
        return data % self.modulus

    def text(self, a):
        return str(a)

    def parse(self, s):
        return int(s.strip()) % self.modulus

    def descriptor(self):
        return f"Z/{self.modulus}"


class _SeriesLike(Ring):
    """Shared machinery for the three one-parameter dict-payload kinds."""

    base: Ring
    param: str

    def _lo(self) -> Optional[int]:
        raise NotImplementedError

    def _hi(self) -> Optional[int]:
        raise NotImplementedError

    def zero(self):
        return {}

    def from_int(self, n):
        c = self.base.from_int(n)
        return {0: c} if not self.base.is_zero(c) else {}

    def from_fraction(self, fr):
        c = self.base.from_fraction(fr)
        return {0: c} if not self.base.is_zero(c) else {}

    def from_base(self, c: Payload) -> Payload:
        return {0: c} if not self.base.is_zero(c) else {}

    def param_payload(self, power: int = 1) -> Payload:
        if not self._check_exponent(power):
            return {}
        return {power: self.base.one()}

    def _check_exponent(self, e: int) -> bool:
        """True when e is storable, False when it truncates away."""
        lo = self._lo()
        hi = self._hi()
        if lo is not None and e < lo:
            raise TailOverflowError(
                f"exponent {e} of {self.param} falls below the declared window"
            )
        return hi is None or e <= hi

    def add(self, a, b):
        return add_terms(self.base, a, b)

    def neg(self, a):
        return {e: self.base.neg(c) for e, c in a.items()}

    def is_zero(self, a):
        return not a

    @cached_property
    def _over_integers(self) -> "_SeriesLike":
        """The same window over Z, where Q payloads run as numerators."""
        return replace(self, base=Integers())

    def product_kernel(self, a, b):
        # over Q every payload of an operand goes over one common
        # denominator, so the pairs multiply as integer series in the
        # same window and each output coefficient is one Fraction
        if not isinstance(self.base, Rationals):
            return super().product_kernel(a, b)
        a, den_a = _series_over_common_denominator(a)
        b, den_b = _series_over_common_denominator(b)
        den = den_a * den_b

        def finish(out):
            return {
                k: {e: Fraction(n, den) for e, n in p.items()} for k, p in out.items()
            }

        ints = self._over_integers
        return a, b, ints.mul, ints.add, ints.is_zero, finish

    def mul(self, a, b):
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return {}
        lo, hi = self._lo(), self._hi()
        low = min(a) + min(b)
        if lo is not None and low < lo:
            self._check_exponent(low)  # raises TailOverflowError
        if len(a) == 1:
            # a monomial: a shift and a scale, with no kernel set-up
            ((e1, c1),) = a.items()
            bmul, bzero = self.base.mul, self.base.is_zero
            out = {}
            for e2, c2 in b.items():
                e = e1 + e2
                if hi is None or e <= hi:
                    p = bmul(c1, c2)
                    if not bzero(p):
                        out[e] = p
            return out
        # over Q the pairs run on integers: one denominator per product,
        # not one gcd per pair
        a, b, bmul, badd, bzero, finish = self.base.product_kernel(a, b)
        # the longer operand in ascending order, so each row stops at hi
        terms = b.items() if hi is None else sorted(b.items(), key=itemgetter(0))
        out: dict[int, Payload] = {}
        for e1, c1 in a.items():
            for e2, c2 in terms:
                e = e1 + e2
                if hi is not None and e > hi:
                    break
                p = bmul(c1, c2)
                prev = out.get(e)
                if prev is not None:
                    p = badd(prev, p)
                if bzero(p):
                    out.pop(e, None)
                else:
                    out[e] = p
        return finish(out)

    def _long_divide(self, a: Payload, d: Payload, top: int) -> Payload:
        """The quotient c = a / d by long division, through exponent top.

        With v the valuation of d and d_v its lowest coefficient, which
        must be a unit of the base,

            c_e = (a_{e+v} - sum_{j != v} d_j c_{e+v-j}) / d_v

        for e from val(a) - v upward.  Each c_e costs one base product
        per term of d, so a sparse divisor is cheap.  c_e reads a only
        through exponent e + v and d only through e + 2v - val(a), and
        no window bound is applied: callers choose top.  Over Q the
        recurrence runs on integers (see _long_divide_rational); over
        other bases a step skips the product by one or minus one.
        """
        base = self.base
        v = min(d)
        if isinstance(base, Rationals):
            return _long_divide_rational(a, d, v, top)
        bmul, badd, bneg, bzero = base.mul, base.add, base.neg, base.is_zero
        # payloads are canonical, so == against one and minus one is ring
        # equality: each factor that is one of them becomes that very
        # object, and a division point 1 - q^k costs no base product
        one = base.one()
        minus_one = bneg(one)

        def unit_or_self(c):
            return one if c == one else minus_one if c == minus_one else c

        inv = unit_or_self(base.invert(d[v]))
        out: dict[int, Payload] = {}
        if not a:
            return out
        rest = sorted(
            ((j - v, unit_or_self(bneg(c))) for j, c in d.items() if j != v),
            key=itemgetter(0),
        )
        start = min(a) - v
        for e in range(start, top + 1):
            acc = a.get(e + v)
            for s, c in rest:
                if e - s < start:
                    break
                prev = out.get(e - s)
                if prev is not None:
                    p = prev if c is one else bneg(prev) if c is minus_one else bmul(c, prev)
                    acc = p if acc is None else badd(acc, p)
            if acc is not None:
                q = acc if inv is one else bneg(acc) if inv is minus_one else bmul(acc, inv)
                if not bzero(q):
                    out[e] = q
        return out

    def has_rational_scalars(self):
        return self.base.has_rational_scalars()

    def normalize(self, data):
        out = {}
        for e, c in data.items():
            c = self.base.normalize(c)
            if not self.base.is_zero(c):
                if self._check_exponent(e):
                    out[e] = c
        return out

    def text(self, a):
        if not a:
            return "[]"
        entries = [f"{e}:{self.base.text(c)}" for e, c in sorted(a.items())]
        return "[" + ",".join(entries) + "]"

    def parse(self, s):
        s = s.strip()
        if not (s.startswith("[") and s.endswith("]")):
            raise ValueError(f"not a series literal: {s!r}")
        inner = s[1:-1].strip()
        out = {}
        if not inner:
            return out
        for entry in _split_top(inner):
            e_text, c_text = _split_exponent_entry(entry)
            e = int(e_text)
            c = self.base.parse(c_text)
            if not self.base.is_zero(c):
                if self._check_exponent(e):
                    out[e] = c
        return out


@dataclass(frozen=True)
class PowerSeries(_SeriesLike):
    """base[[param]] truncated at the given order (inclusive)."""

    base: Ring
    param: str
    order: int

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")

    def _lo(self):
        return 0

    def _hi(self):
        return self.order

    def divide(self, a: Payload, d: Payload) -> Payload:
        """a / d for d with a unit constant term, exact through the order."""
        if d.get(0) is None:
            raise NotAUnitError(f"no constant term, not a unit in {self.descriptor()}")
        return self._long_divide(a, d, self.order)

    def invert(self, a):
        return self.divide(self.one(), a)

    def descriptor(self):
        return f"powser({self.base.descriptor()};{self.param};{self.order})"


@dataclass(frozen=True)
class LaurentSeries(_SeriesLike):
    """Truncated Laurent window: exponents in [-tail, order].

    The bottom of the window is a hard contract (TailOverflowError), the
    top is plain truncation.  Both quotients are long divisions:

    * divide(a, d) takes d of valuation v <= 0 and is exact through the
      order whenever a is exact through order + v and d is a Laurent
      polynomial inside the window, so it needs no headroom.  It also
      takes a monomial c q^v with v > 0: the quotient is a shift, exact
      through order - v, and it raises TailOverflowError when it falls
      below the window.  Any other d of positive valuation raises
      ValueError;
    * invert(a) of an element of valuation v returns coefficients that
      are only trustworthy up to order - 2v when v > 0.
    """

    base: Ring
    param: str
    order: int
    tail: int

    def __post_init__(self):
        if self.tail < 0:
            raise ValueError("tail must be nonnegative")

    def _lo(self):
        return -self.tail

    def _hi(self):
        return self.order

    def divide(self, a: Payload, d: Payload) -> Payload:
        """a / d for d whose lowest coefficient is a unit, of valuation
        v <= 0 or a monomial.  For v <= 0, coefficients through the
        order are exact when a is exact through order + v and d through
        order + 2v - val(a); in particular whenever d is a Laurent
        polynomial inside the window.  For a monomial c q^v with v > 0
        the quotient is a shift, exact through order - v."""
        if not d:
            raise NotAUnitError("0 is not invertible")
        v = min(d)
        if v > 0:
            if len(d) > 1:
                raise ValueError(
                    f"divisor of valuation {v} > 0 is exact in a window "
                    "only as a monomial"
                )
            if a:
                self._check_exponent(min(a) - v)  # the quotient must fit
        return self._long_divide(a, d, self.order)

    def invert(self, a):
        if not a:
            raise NotAUnitError("0 is not invertible")
        v = min(a)
        # a is known through the order only, so for v > 0 the inverse is
        # read through order - 2v (and its leading term, whatever the order)
        out = self._long_divide(
            self.one(), a, min(self.order, max(self.order - v, 0) - v)
        )
        self._check_exponent(-v)  # the leading term q^-v must fit the window
        return out

    def descriptor(self):
        return (
            f"laurent({self.base.descriptor()};{self.param};"
            f"{self.order};{self.tail})"
        )


@dataclass(frozen=True)
class LaurentPolynomials(_SeriesLike):
    """base[param, param^-1], exact: no truncation in either direction."""

    base: Ring
    param: str

    def _lo(self):
        return None

    def _hi(self):
        return None

    def invert(self, a):
        if len(a) != 1:
            raise NotAUnitError(
                f"only monomials are units in {self.descriptor()}"
            )
        ((e, c),) = a.items()
        return {-e: self.base.invert(c)}

    def descriptor(self):
        return f"laurpoly({self.base.descriptor()};{self.param})"


Relation = Optional[tuple[int, tuple[tuple[tuple[int, ...], Payload], ...]]]

_REDUCTION_CAP = 100_000
_GEOMETRIC_CAP = 256


def _composition_length(ring: Ring) -> Optional[int]:
    """The composition length of a field or domain (1) or of Z/m (the
    number of prime factors of m with multiplicity); None otherwise."""
    if isinstance(ring, (Rationals, GaussianRationals, Integers)):
        return 1
    if isinstance(ring, IntegersMod):
        m, length, p = ring.modulus, 0, 2
        while p * p <= m:
            while m % p == 0:
                m //= p
                length += 1
            p += 1
        return length + (m > 1)
    return None


@dataclass(frozen=True)
class QuotientRing(Ring):
    """base[g_1, ..., g_r] / (g_i^{d_i} - P_i) with rewrite reduction.

    relations[i] is None for a free generator or (d_i, P_i) where P_i is
    the replacement for g_i^{d_i}, stored as a sorted tuple of
    (exponent tuple, base payload) pairs.  Every payload is kept in
    normal form: no exponent reaches its cap.
    """

    base: Ring
    gens: tuple[str, ...]
    relations: tuple[Relation, ...]
    # the reduced product of each pair of monomials met so far: the
    # ring's structure constants, filled lazily and left out of ==
    _products: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.gens) != len(self.relations):
            raise ValueError("one relation slot per generator required")
        if len(set(self.gens)) != len(self.gens):
            raise ValueError("generator names must be distinct")

    def zero(self):
        return {}

    def _zero_exps(self):
        return (0,) * len(self.gens)

    def from_int(self, n):
        c = self.base.from_int(n)
        return {self._zero_exps(): c} if not self.base.is_zero(c) else {}

    def from_fraction(self, fr):
        c = self.base.from_fraction(fr)
        return {self._zero_exps(): c} if not self.base.is_zero(c) else {}

    def from_base(self, c):
        return {self._zero_exps(): c} if not self.base.is_zero(c) else {}

    def gen_payload(self, name: str, power: int = 1) -> Payload:
        i = self.gens.index(name)
        exps = [0] * len(self.gens)
        exps[i] = power
        return self._reduce({tuple(exps): self.base.one()})

    def _reduce(self, data: dict) -> dict:
        out: dict[tuple[int, ...], Payload] = {}
        work = list(data.items())
        steps = 0
        while work:
            steps += 1
            if steps > _REDUCTION_CAP:
                raise RuntimeError("rewrite system did not terminate")
            exps, coeff = work.pop()
            if self.base.is_zero(coeff):
                continue
            for i, rel in enumerate(self.relations):
                if rel is not None and exps[i] >= rel[0]:
                    cap, repl = rel
                    rest = list(exps)
                    rest[i] -= cap
                    for r_exps, r_coeff in repl:
                        new_exps = tuple(
                            rest[j] + r_exps[j] for j in range(len(self.gens))
                        )
                        work.append((new_exps, self.base.mul(coeff, r_coeff)))
                    break
            else:
                prev = out.get(exps)
                s = coeff if prev is None else self.base.add(prev, coeff)
                if self.base.is_zero(s):
                    out.pop(exps, None)
                else:
                    out[exps] = s
        return out

    def add(self, a, b):
        return add_terms(self.base, a, b)

    def neg(self, a):
        return {exps: self.base.neg(c) for exps, c in a.items()}

    def _monomial_product(self, e1, e2) -> tuple:
        """The reduced form of the product of two monomials, as a tuple
        of (exponents, structure constant) pairs, where None stands for
        one; filled into the ring's memo on first use."""
        exps = tuple(map(operator.add, e1, e2))
        if all(map(operator.lt, exps, self._caps)):
            terms = ((exps, None),)
        else:
            one = self.base.one()
            reduced = self._reduce({exps: one})
            terms = tuple((e, None if c == one else c) for e, c in reduced.items())
        self._products[e1, e2] = terms
        return terms

    @cached_property
    def _caps(self) -> tuple:
        """Each generator's exponent cap, infinite for a free one."""
        return tuple(math.inf if rel is None else rel[0] for rel in self.relations)

    def mul(self, a, b):
        # each pair of monomials reads its reduced product from the memo,
        # so a product never runs the rewrite system again
        bmul, badd, bzero = self.base.mul, self.base.add, self.base.is_zero
        get_product = self._products.get
        out: dict[tuple[int, ...], Payload] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                terms = get_product((e1, e2))
                if terms is None:
                    terms = self._monomial_product(e1, e2)
                p = bmul(c1, c2)
                for e, s in terms:
                    t = p if s is None else bmul(p, s)
                    prev = get(e)
                    out[e] = t if prev is None else badd(prev, t)
        return {e: c for e, c in out.items() if not bzero(c)}

    def invert(self, a):
        zero_exps = self._zero_exps()
        const = a.get(zero_exps, self.base.zero())
        rest = {e: c for e, c in a.items() if e != zero_exps}
        if not rest:
            return self.from_base(self.base.invert(const))
        if not self.base.is_zero(const) and self.base.is_unit(const):
            inv_const = self.from_base(self.base.invert(const))
            # geometric series on the non-constant part when it is nilpotent
            s = self.neg(self.mul(inv_const, rest))
            acc = self.one()
            power = self.one()
            for _ in range(self._nilpotency_bound()):
                power = self.mul(power, s)
                if not power:
                    return self.mul(inv_const, acc)
                acc = self.add(acc, power)
        return self._invert_by_linear_solve(a)

    def _nilpotency_bound(self) -> int:
        """A k such that every nilpotent s has s^k = 0.

        Right multiplication by s is linear on the module spanned by the
        n normal monomials.  If s^j = 0 for some j, it is nilpotent on
        the cyclic submodule spanned by 1, s, s^2, ...; that submodule
        has length at most n*l, where l is the composition length of the
        base, so s^(n*l) = 0.  l is 1 over a field or a domain (a domain
        embeds in its fraction field) and the number of prime factors of
        m over Z/m.  An infinite basis or another base keeps the cap of
        256."""
        basis = self._monomial_basis()
        length = _composition_length(self.base)
        if basis is None or length is None:
            return _GEOMETRIC_CAP
        return min(len(basis) * length, _GEOMETRIC_CAP)

    def _monomial_basis(self) -> Optional[list[tuple[int, ...]]]:
        caps = []
        for rel in self.relations:
            if rel is None:
                return None
            caps.append(rel[0])
        basis = [()]
        for cap in caps:
            basis = [e + (k,) for e in basis for k in range(cap)]
        if len(basis) > 4096:
            return None
        return basis

    def _invert_by_linear_solve(self, a):
        """Solve a*x = 1 in the finite monomial basis.

        Gaussian elimination restricted to unit pivots, which is exact
        over a field base and conservative otherwise.
        """
        basis = self._monomial_basis()
        if basis is None:
            raise NotAUnitError("element is not invertible")
        index = {e: i for i, e in enumerate(basis)}
        n = len(basis)
        rows = []
        for e in basis:
            col = self.mul(a, {e: self.base.one()})
            vec = [self.base.zero()] * n
            for exps, c in col.items():
                vec[index[exps]] = c
            rows.append(vec)
        # columns of the multiplication matrix are rows[] transposed
        mat = [[rows[j][i] for j in range(n)] for i in range(n)]
        rhs = [self.base.zero()] * n
        rhs[index[self._zero_exps()]] = self.base.one()

        for col in range(n):
            pivot_row = None
            for r in range(col, n):
                if self.base.is_unit(mat[r][col]):
                    pivot_row = r
                    break
            if pivot_row is None:
                raise NotAUnitError("element is not invertible")
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            rhs[col], rhs[pivot_row] = rhs[pivot_row], rhs[col]
            inv_p = self.base.invert(mat[col][col])
            mat[col] = [self.base.mul(inv_p, v) for v in mat[col]]
            rhs[col] = self.base.mul(inv_p, rhs[col])
            for r in range(n):
                if r != col and not self.base.is_zero(mat[r][col]):
                    factor = mat[r][col]
                    mat[r] = [
                        self.base.sub(mat[r][k], self.base.mul(factor, mat[col][k]))
                        for k in range(n)
                    ]
                    rhs[r] = self.base.sub(rhs[r], self.base.mul(factor, rhs[col]))
        out = {}
        for i, e in enumerate(basis):
            if not self.base.is_zero(rhs[i]):
                out[e] = rhs[i]
        return out

    def has_rational_scalars(self):
        return self.base.has_rational_scalars()

    def normalize(self, data):
        cleaned = {}
        for exps, c in data.items():
            c = self.base.normalize(c)
            if not self.base.is_zero(c):
                cleaned[tuple(exps)] = c
        return self._reduce(cleaned)

    def text(self, a):
        if not a:
            return "{}"
        entries = []
        for exps, c in sorted(a.items()):
            e_text = "(" + ",".join(str(e) for e in exps) + ")"
            entries.append(f"{e_text}:{self.base.text(c)}")
        return "{" + ",".join(entries) + "}"

    def parse(self, s):
        s = s.strip()
        if not (s.startswith("{") and s.endswith("}")):
            raise ValueError(f"not a quotient ring literal: {s!r}")
        inner = s[1:-1].strip()
        if not inner:
            return {}
        data = {}
        for entry in _split_top(inner):
            e_text, c_text = _split_exponent_entry(entry)
            e_text = e_text.strip()
            if not (e_text.startswith("(") and e_text.endswith(")")):
                raise ValueError(f"bad exponent tuple {e_text!r}")
            exps = tuple(
                int(p) for p in e_text[1:-1].split(",") if p.strip() != ""
            )
            if len(exps) != len(self.gens):
                raise ValueError("exponent tuple has wrong length")
            data[exps] = self.base.parse(c_text)
        return self.normalize(data)

    def descriptor(self):
        rels = []
        for g, rel in zip(self.gens, self.relations):
            if rel is None:
                rels.append(f"{g}:free")
            else:
                cap, repl = rel
                poly = self.text(dict(repl))
                rels.append(f"{g}^{cap}={poly}")
        return (
            f"polyquot({self.base.descriptor()};gens:{','.join(self.gens)};"
            f"rels:{';'.join(rels)})"
        )


class RingElement:
    """Thin wrapper pairing a payload with its ring.

    Arithmetic delegates to the ring and enforces that both operands
    live over the same ring.  Integers coerce implicitly.
    """

    __slots__ = ("ring", "data")

    def __init__(self, ring: Ring, data: Payload):
        self.ring = ring
        self.data = data

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"{other.ring.descriptor()} vs {self.ring.descriptor()}"
                )
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return RingElement(self.ring, self.ring.from_int(other))
        if isinstance(other, Fraction):
            return RingElement(self.ring, self.ring.from_fraction(other))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.add(self.data, other.data))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(self.data, other.data))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.sub(other.data, self.data))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RingElement(self.ring, self.ring.mul(self.data, other.data))

    __rmul__ = __mul__

    def __neg__(self):
        return RingElement(self.ring, self.ring.neg(self.data))

    def __pow__(self, n: int):
        return RingElement(self.ring, self.ring.pow(self.data, n))

    def inverse(self) -> "RingElement":
        return RingElement(self.ring, self.ring.invert(self.data))

    def is_unit(self) -> bool:
        return self.ring.is_unit(self.data)

    def is_zero(self) -> bool:
        return self.ring.is_zero(self.data)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.ring.eq(self.data, other.data)

    def __hash__(self):
        raise TypeError("ring elements are not hashable")

    def __str__(self):
        return self.ring.text(self.data)

    def __repr__(self):
        return f"<{self.ring.descriptor()}| {self.ring.text(self.data)}>"


def quotient_ring(
    base: Ring,
    gens: Iterable[str],
    relations: dict[str, Optional[tuple[int, dict]]],
) -> QuotientRing:
    """Friendly constructor for polynomial quotient test rings.

    relations maps generator name to None (free) or (cap, replacement)
    where replacement maps exponent tuples to int / Fraction / base
    payload coefficients.
    """
    gens = tuple(gens)
    rel_list: list[Relation] = []
    for g in gens:
        rel = relations.get(g)
        if rel is None:
            rel_list.append(None)
            continue
        cap, repl = rel
        entries = []
        for exps, coeff in repl.items():
            if isinstance(coeff, bool):
                raise TypeError("bool coefficient")
            if isinstance(coeff, int):
                coeff = base.from_int(coeff)
            elif isinstance(coeff, Fraction):
                coeff = base.from_fraction(coeff)
            if not base.is_zero(coeff):
                entries.append((tuple(exps), coeff))
        rel_list.append((cap, tuple(sorted(entries))))
    return QuotientRing(base, gens, tuple(rel_list))


_SERIES_HEAD_RE = re.compile(r"^(powser|laurent|laurpoly)\((.*)\)$")


def parse_ring(s: str) -> Ring:
    """Parse the descriptor grammar produced by Ring.descriptor.

    Quotient rings are built programmatically, not parsed, so polyquot
    descriptors are rejected here.
    """
    s = s.strip()
    if s == "Q":
        return Rationals()
    if s == "Q[i]":
        return GaussianRationals()
    if s == "Z":
        return Integers()
    if s.startswith("Z[") and s.endswith("]"):
        inner = s[2:-1]
        inverted = []
        for part in inner.split(","):
            part = part.strip()
            if not part.startswith("1/"):
                raise ValueError(f"bad localized integers descriptor {s!r}")
            inverted.append(int(part[2:]))
        return Integers(tuple(inverted))
    if s.startswith("Z/"):
        return IntegersMod(int(s[2:]))
    m = _SERIES_HEAD_RE.match(s)
    if m:
        kind, inner = m.group(1), m.group(2)
        parts = _split_top(inner, ";")
        base = parse_ring(parts[0])
        if kind == "powser":
            if len(parts) != 3:
                raise ValueError(f"bad power series descriptor {s!r}")
            return PowerSeries(base, parts[1].strip(), int(parts[2]))
        if kind == "laurent":
            if len(parts) != 4:
                raise ValueError(f"bad laurent descriptor {s!r}")
            return LaurentSeries(
                base, parts[1].strip(), int(parts[2]), int(parts[3])
            )
        if len(parts) != 2:
            raise ValueError(f"bad laurent polynomial descriptor {s!r}")
        return LaurentPolynomials(base, parts[1].strip())
    raise ValueError(f"unknown ring descriptor {s!r}")


QQ = Rationals()
ZZ = Integers()
QI = GaussianRationals()
