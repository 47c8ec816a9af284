"""Renormalized theta products, Weierstrass sigma, and the Tate group.

The renormalized product attached to a law F with distinguished point
qhat is

    Theta(x; N) = x * prod over 0 < |k| <= N of (x +_F [k](qhat)) / [k](qhat)

which demands every [k](qhat) in range to be a unit (the suitability
condition on the coefficient ring).  Two closed-form expansions anchor
the two classical cases: the sine expansion t^{-1} sin(t x) in a
formal parameter t for the additive law, and the Weierstrass expansion

    sigma(L, q) = (1 - L) prod_{k>0} (1 - q^k L)(1 - q^k L^{-1}) / (1 - q^k)^2

in Z[L, L^{-1}][[q]] for the multiplicative law, where the cutoff
product equals L^N sigma^(N) on the nose.  sigma is not expanded as
that product: by the Jacobi triple product and Jacobi's identity for
(q; q)^3 (Andrews, The Theory of Partitions, ch. 2)

    sigma(L, q) = sum_n (-1)^n q^{n(n-1)/2} L^n
                  / sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2},

two sums with O(sqrt(N)) terms each, so sigma to q-order N costs one
power series inverse over Z.  The cutoff products are the finite
objects checked against this closed form.  Both cutoff products,
theta_series and theta_multiplicative_L, divide by their division
points with the ring's exact divide, which needs no precision headroom
in the Laurent window they are computed in.

The Tate group T(F)(A) = (F(A) x Q) / Z(qhat, 1) has the points (g, a)
with a in Q cap [0, 1).  Its one carry is the reduction rho(x, a) =
(x +_F [-floor a](qhat), a - floor a): the product is rho(g +_F h, a + b)
and the inverse rho([-1](g), -a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coefficients import (
    Integers,
    LaurentPolynomials,
    LaurentSeries,
    PowerSeries,
    Rationals,
    Ring,
    RingElement,
    quotient_ring,
    repeated,
)
from .errors import (
    NotAUnitError,
    RingMismatchError,
    TruncationError,
    UnrepresentableError,
)
from .fgl import (
    X,
    FormalGroupLaw,
    inverse_element,
    law_apply,
    n_series_element,
)
from .polyseries import MultiSeries, series

# ----------------------------------------------------------------------
# the renormalized product


@dataclass
class ThetaSeries:
    law: FormalGroupLaw
    qhat: RingElement
    cutoff: int
    series: MultiSeries  # univariate in x over the law's coefficient ring


def division_points(
    F: FormalGroupLaw, qhat: RingElement, cutoff: int
) -> dict[int, RingElement]:
    """[k](qhat) for 0 < |k| <= cutoff, each checked to be a unit."""
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    points: dict[int, RingElement] = {}
    for k in range(1, cutoff + 1):
        for kk in (k, -k):
            u = n_series_element(F, kk, qhat)
            if not u.is_unit():
                raise NotAUnitError(
                    f"[{kk}](qhat) = {u} is not a unit; "
                    f"the coefficient ring is not suitable at cutoff {cutoff}"
                )
            points[kk] = u
    return points


def theta_series(
    F: FormalGroupLaw,
    qhat: RingElement,
    cutoff: int,
    x_trunc: int,
) -> ThetaSeries:
    """The cutoff renormalized product as a series in x.

    Each of the 2 * cutoff factors is applied as
    th <- (th * (x +_F u)) / u, dividing every x-coefficient by the
    division point u with the ring's divide, as theta_multiplicative_L
    does; in a Laurent window that division is exact (see
    coefficients), so the product carries no truncation junk from it.

    For a truncated (non-exact) law the law's truncation must dominate
    x_trunc plus the nilpotency order of the division points, so that
    the tail of the law cannot leak into the reported coefficients.
    """
    if qhat.ring != F.ring:
        raise RingMismatchError("qhat must live over the law's coefficient ring")
    points = division_points(F, qhat, cutoff)
    if not F.exact and points:
        worst = 0
        for u in points.values():
            n = F.ring.nilpotency_order(u.data, F.trunc + 1)
            if n is None:
                raise TruncationError(
                    f"division point {u} is not nilpotent within the law "
                    f"truncation {F.trunc}; enlarge the law"
                )
            worst = max(worst, n)
        if F.trunc < x_trunc + worst - 1:
            raise TruncationError(
                f"law truncation {F.trunc} too small: need at least "
                f"{x_trunc + worst - 1} for x-degree {x_trunc}"
            )
    ring = F.ring
    x = series(ring, (X,), x_trunc).var(X)
    th = x
    for k in range(1, cutoff + 1):
        for kk in (k, -k):
            u = points[kk]
            th = (th * law_apply(F, x, u)).map_coefficients(
                lambda c: ring.divide(c, u.data), ring
            )
    return ThetaSeries(law=F, qhat=qhat, cutoff=cutoff, series=th)


def theta_vanishes_at(theta: ThetaSeries, k: int) -> bool:
    """Does the expanded product vanish at the division point [k](qhat)?

    True for 0 < |k| <= cutoff if the expansion preserved the kernel.
    """
    u = n_series_element(theta.law, k, theta.qhat)
    if theta.law.exact:
        # the product is an honest polynomial; evaluating it at a unit
        # is only sound if no term was truncated away
        deg_x = max((e[0] for e in theta.law.whole.terms), default=0)
        full = 2 * theta.cutoff * deg_x + 1
        if theta.series.trunc < full:
            raise TruncationError(
                f"x-truncation {theta.series.trunc} drops terms of the "
                f"degree-{full} product; cannot evaluate at a unit"
            )
        mode = "exact"
    else:
        mode = "strict"
    return theta.series.eval_elements({X: u}, mode=mode).is_zero()


# ----------------------------------------------------------------------
# exact values of sin and cos at rational multiples of pi


_SINCOS_MAGNITUDE = {
    1: (None, "one"),     # sin 0, cos 1
    2: ("one", None),     # sin 1, cos 0
    3: ("w2", "half"),    # sqrt3/2, 1/2
    4: ("w2", "w2"),      # sqrt2/2 twice
    6: ("half", "w2"),    # 1/2, sqrt3/2
}


def sincos_pi(r: Fraction) -> tuple[Ring, object, object]:
    """Exact (ring, sin(pi r), cos(pi r)) payloads.

    Supported denominators of r: 1, 2, 3, 4, 6, the angles whose sine
    and cosine live in Q or a quadratic extension Q[w]/(w^2 - 2 or 3).
    """
    r = Fraction(r)
    r2 = r - 2 * (r // 2)  # reduce mod 2 into [0, 2)
    den = r2.denominator
    if den not in _SINCOS_MAGNITUDE:
        raise UnrepresentableError(
            f"sin(pi {r}) has no exact value in a supported ring"
        )
    sin_mag, cos_mag = _SINCOS_MAGNITUDE[den]
    radicand = None
    if den in (3, 6):
        radicand = 3
    elif den == 4:
        radicand = 2
    if radicand is None:
        ring: Ring = Rationals()
        w = None
    else:
        ring = quotient_ring(
            Rationals(), ["w"], {"w": (2, {(0,): radicand})}
        )
        w = ring.gen_payload("w")

    def magnitude(tag):
        if tag is None:
            return ring.zero()
        if tag == "one":
            return ring.one()
        if tag == "half":
            return ring.from_fraction(Fraction(1, 2))
        return ring.mul(w, ring.from_fraction(Fraction(1, 2)))  # w/2

    sin_val = magnitude(sin_mag)
    cos_val = magnitude(cos_mag)
    if not (0 < r2 < 1):  # sin(pi r) < 0 on (1, 2), zero at integers
        sin_val = ring.neg(sin_val) if r2 > 1 else sin_val
        if r2 == 0 or r2 == 1:
            sin_val = ring.zero()
    if not (0 <= r2 < Fraction(1, 2) or r2 > Fraction(3, 2)):
        cos_val = ring.neg(cos_val)
        if r2 == Fraction(1, 2) or r2 == Fraction(3, 2):
            cos_val = ring.zero()
    return ring, sin_val, cos_val


# ----------------------------------------------------------------------
# sine expansions in a formal parameter t


def sine_series(x_trunc: int, t_order: int) -> MultiSeries:
    """sin(t x) / t = sum (-1)^m t^{2m} x^{2m+1} / (2m+1)! over Q[[t]]."""
    ring = PowerSeries(Rationals(), "t", t_order)
    terms = {}
    m = 0
    while 2 * m + 1 <= x_trunc:
        if 2 * m <= t_order:
            coeff = Fraction((-1) ** m, math.factorial(2 * m + 1))
            terms[(2 * m + 1,)] = {2 * m: coeff}
        m += 1
    return MultiSeries(ring, (X,), x_trunc, terms, _canonical=True)


# ----------------------------------------------------------------------
# the Weierstrass expansion and its modified forms


def sigma_home(q_order: int) -> PowerSeries:
    """Z[L, L^{-1}][[q]] truncated at the given q-order."""
    return PowerSeries(LaurentPolynomials(Integers(), "L"), "q", q_order)


def _sigma_kernel(q_order: int) -> dict:
    """The payload of sigma(L, q) in sigma_home(q_order).

    Numerator: the triple product (L; q)(q/L; q)(q; q) summed as
    sum_n (-1)^n q^{n(n-1)/2} L^n, where n and 1 - n share a q-power.
    Denominator: Jacobi's (q; q)^3 = sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2}.
    Both are sparse, so one series inverse over Z is the whole cost.
    Inverting the L-free denominator and then multiplying beats dividing
    num by it directly: the quotient's q^e coefficient spans O(sqrt(e))
    L-powers, so the long division of num costs O(N^2) integer ops where
    the inverse costs O(N^1.5) on L-monomials.
    """
    R = sigma_home(q_order)
    ZZ = R.base.base
    num = {}
    n = 1
    while n * (n - 1) // 2 <= q_order:
        s = ZZ.from_int((-1) ** n)
        num[n * (n - 1) // 2] = {1 - n: ZZ.neg(s), n: s}
        n += 1
    den = {}
    m = 0
    while m * (m + 1) // 2 <= q_order:
        den[m * (m + 1) // 2] = {0: ZZ.from_int((-1) ** m * (2 * m + 1))}
        m += 1
    return R.mul(num, R.invert(den))


def sigma_series(q_order: int) -> RingElement:
    """sigma(L, q) = (1-L) prod_{k>0} (1-q^k L)(1-q^k L^{-1})/(1-q^k)^2.

    Computed in closed form from the Jacobi triple product over
    Jacobi's identity for (q; q)^3:

        sigma(L, q) = sum_n (-1)^n q^{n(n-1)/2} L^n
                      / sum_{m>=0} (-1)^m (2m+1) q^{m(m+1)/2}

    Both sums have O(sqrt(q_order)) terms, so the cost is one power
    series inverse over Z and one sparse product.  The result is
    integral: it lives over Z.
    """
    return sigma_home(q_order).wrap(_sigma_kernel(q_order))


def sigma_modified(r: Fraction, q_order: int) -> RingElement:
    """sigma[L, r] = q^{-T} (-L)^{floor(r)} sigma(L, q), T = m(m+1)/2.

    For r in [0, 1) this is sigma itself.  The result lives in a
    Laurent window deep enough for the q^{-T} prefactor.
    """
    r = Fraction(r)
    m = math.floor(r)
    T = m * (m + 1) // 2
    sig = sigma_series(q_order + T)
    R = LaurentSeries(LaurentPolynomials(Integers(), "L"), "q", q_order, T)
    LP = R.base
    prefactor_L = {m: LP.base.from_int(-1 if m % 2 else 1)}  # (-L)^m as an L-monomial
    data = {}
    for qe, lpayload in sig.data.items():
        e = qe - T
        if e > q_order:
            continue
        data[e] = LP.mul(lpayload, prefactor_L)
    return R.wrap({e: c for e, c in data.items() if c})


def sigma_substitute_L(s: RingElement, j: int, q_order: int, q_tail: int) -> RingElement:
    """Apply L -> q^j L and re-window to (q_order, q_tail).

    The input must carry enough q-order that every term landing in the
    output window is present; the triangle support of sigma makes
    s computed at order q_order + bound sufficient (see tests).
    """
    ring = s.ring
    if not isinstance(ring, (PowerSeries, LaurentSeries)):
        raise RingMismatchError("expected a series over laurent polynomials")
    LP = ring.base
    if not isinstance(LP, LaurentPolynomials):
        raise RingMismatchError("expected laurent polynomial coefficients")
    out_ring = LaurentSeries(LP, ring.param, q_order, q_tail)
    out: dict[int, dict] = {}
    for qe, lpayload in s.data.items():
        for le, c in lpayload.items():
            e = qe + j * le
            if e > q_order or e < -q_tail:
                continue
            bucket = out.setdefault(e, {})
            cur = LP.base.add(bucket.get(le, LP.base.zero()), c)
            if LP.base.is_zero(cur):
                bucket.pop(le, None)
            else:
                bucket[le] = cur
    return out_ring.wrap({e: b for e, b in out.items() if b})


def theta_multiplicative_L(cutoff: int, q_order: int) -> tuple[RingElement, RingElement]:
    """The cutoff product for the multiplicative law in the L coordinate.

    Returns (theta, normalized) where theta is the raw cutoff product
    with x = 1 - L and division points u = 1 - q^k, and normalized is
    theta * L^{-cutoff}.  Both live in Z[L, L^{-1}][[q]]; normalized
    agrees with sigma(L, q) up to q-order cutoff.

    Each of the 2 * cutoff factors is applied as an exact long division,
    acc <- (acc * (x +_F u)) / u, by the two-term divisor u, so a factor
    costs O(q_order) base operations.  For k < 0 the divisor has
    valuation k and the division reads the product only through
    q_order + k, where multiplying by x +_F u = 1 - L q^k is still
    exact; so the work window is [-cutoff, q_order] with no headroom.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    work = LaurentSeries(LaurentPolynomials(Integers(), "L"), "q", q_order, cutoff)
    LP = work.base
    one = work.one()
    x = work.sub(one, work.from_base(LP.param_payload(1)))  # 1 - L

    def gm_sum(a, b):
        return work.sub(work.add(a, b), work.mul(a, b))

    acc = x
    for k in range(1, cutoff + 1):
        for kk in (k, -k):
            u = work.sub(one, work.param_payload(kk))  # 1 - q^kk
            acc = work.divide(work.mul(acc, gm_sum(x, u)), u)
    if acc and min(acc) < 0:
        raise TruncationError("cutoff product left unexpected negative q-exponents")
    normalized = work.mul(acc, work.from_base(LP.param_payload(-cutoff)))
    out = sigma_home(q_order)
    return out.wrap(acc), out.wrap(normalized)


def sigma_in_x(x_trunc: int, q_ring: Ring) -> MultiSeries:
    """sigma(1 - x, q) as a series in x over a truncated q-ring.

    This is the multiplicative-law theta in the additive coordinate
    x = 1 - L.  The closed-form sigma of sigma_series (triple product
    over (q; q)^3) is computed once at the ring's q-order, then L^l is
    replaced by (1 - x)^l: a binomial polynomial for l >= 0 and, for
    l < 0, the (-l)-th power of the geometric series 1/(1 - x), whose
    x^j coefficient is C(j - l - 1, j).  All arithmetic is over Z.
    """
    if not isinstance(q_ring, (PowerSeries, LaurentSeries)):
        raise RingMismatchError("need a truncated series ring in q")
    by_l: dict[int, dict[int, Fraction]] = {}
    for qe, lpayload in _sigma_kernel(q_ring.order).items():
        for le, c in lpayload.items():
            by_l.setdefault(le, {})[qe] = c
    base = q_ring.base
    terms = {}
    for j in range(x_trunc + 1):
        acc: dict[int, Fraction] = {}
        for le, column in by_l.items():
            if le >= 0:
                b = (-1) ** j * math.comb(le, j)
            else:
                b = math.comb(j - le - 1, j)
            if b:
                for qe, c in column.items():
                    acc[qe] = acc.get(qe, 0) + b * c
        payload = {}
        for qe, c in acc.items():
            v = base.from_fraction(c)
            if not base.is_zero(v):
                payload[qe] = v
        if payload:
            terms[(j,)] = payload
    return MultiSeries(q_ring, (X,), x_trunc, terms, _canonical=True)


# ----------------------------------------------------------------------
# the Tate extension group


@dataclass
class TatePoint:
    """An element (g, a) of the Tate group: g a point of F, a in [0,1)."""

    g: RingElement
    a: Fraction

    def __post_init__(self):
        self.a = Fraction(self.a)
        if not (0 <= self.a < 1):
            raise ValueError(f"rational part {self.a} must lie in [0, 1)")


@dataclass
class TateGroup:
    """T(F)(A) for a law F over A with distinguished point qhat."""

    law: FormalGroupLaw
    qhat: RingElement

    def __post_init__(self):
        if self.qhat.ring != self.law.ring:
            raise RingMismatchError("qhat must live over the law's ring")

    def point(self, g: RingElement, a) -> TatePoint:
        if g.ring != self.law.ring:
            raise RingMismatchError("point must live over the law's ring")
        # formal points sit in the nilpotent part of the test ring; for a
        # truncated law this is also what makes evaluation sound
        cap = self.law.trunc + 1 if not self.law.exact else 64
        if not g.is_zero() and self.law.ring.nilpotency_order(g.data, cap) is None:
            raise ValueError(f"{g} is not nilpotent in the test ring")
        return TatePoint(g, Fraction(a))

    def identity(self) -> TatePoint:
        return TatePoint(self.law.ring.wrap(self.law.ring.zero()), Fraction(0))

    def mul(self, p: TatePoint, q: TatePoint) -> TatePoint:
        return self.reduce_pair(law_apply(self.law, p.g, q.g), p.a + q.a)

    def inv(self, p: TatePoint) -> TatePoint:
        return self.reduce_pair(inverse_element(self.law, p.g), -p.a)

    def power(self, p: TatePoint, n: int) -> TatePoint:
        if n < 0:
            return self.power(self.inv(p), -n)
        return repeated(self.mul, p, n, self.identity)

    def eq(self, p: TatePoint, q: TatePoint) -> bool:
        return p.a == q.a and p.g == q.g

    def torsion_order(self, p: TatePoint, cap: int = 64) -> Optional[int]:
        """Smallest n >= 1 with p^n = identity, or None up to cap."""
        acc = p
        ident = self.identity()
        for n in range(1, cap + 1):
            if self.eq(acc, ident):
                return n
            acc = self.mul(acc, p)
        return None

    def reduce_pair(self, x: RingElement, a) -> TatePoint:
        """The middle map rho: (x, a) -> (x +_F [-floor a](qhat), a - floor a)."""
        a = Fraction(a)
        m = math.floor(a)
        if m:
            x = law_apply(self.law, x, n_series_element(self.law, -m, self.qhat))
        return TatePoint(x, a - m)


@dataclass
class TateSequenceReport:
    ok: bool
    checked: int
    failures: list[str]


def exact_sequence_check(
    group: TateGroup,
    samples: Sequence[tuple[RingElement, Fraction]],
    integer_range: int = 4,
) -> TateSequenceReport:
    """Exercise the extension 0 -> Z -> F(A) x Q -> T(F)(A).

    Checks that reduction is a homomorphism on the samples, that it is
    onto the sampled points, that the integer kernel (([n](qhat), n))
    reduces to the identity, and that the projection to F(A) is a
    homomorphism modulo the subgroup generated by qhat.
    """
    failures: list[str] = []
    checked = 0
    reduced = [group.reduce_pair(x, a) for x, a in samples]

    # every sampled point is hit: a point (g, a) with a in [0, 1) is its
    # own preimage, so reducing it must return it unchanged
    for i, p in enumerate(reduced):
        checked += 1
        if not group.eq(group.reduce_pair(p.g, p.a), p):
            failures.append(f"reduced sample {i} is not fixed by reduction")

    # reduction is a homomorphism F(A) x Q -> T(F)(A)
    for i in range(len(samples)):
        x1, a1 = samples[i]
        x2, a2 = samples[(i + 1) % len(samples)]
        lhs = group.reduce_pair(law_apply(group.law, x1, x2), Fraction(a1) + Fraction(a2))
        rhs = group.mul(reduced[i], reduced[(i + 1) % len(samples)])
        checked += 1
        if not group.eq(lhs, rhs):
            failures.append(
                f"reduction is not multiplicative on samples {i}, "
                f"{(i + 1) % len(samples)}"
            )

    # the integer kernel dies
    for n in range(-integer_range, integer_range + 1):
        checked += 1
        image = group.reduce_pair(
            n_series_element(group.law, n, group.qhat), Fraction(n)
        )
        if not group.eq(image, group.identity()):
            failures.append(f"kernel element for n = {n} does not reduce to 1")

    # projection to F(A) is a homomorphism modulo <qhat>
    allowed = [
        n_series_element(group.law, m, group.qhat) for m in (-1, 0, 1)
    ]
    for i in range(len(reduced)):
        p, q = reduced[i], reduced[(i + 1) % len(reduced)]
        prod = group.mul(p, q)
        defect = law_apply(
            group.law,
            prod.g,
            inverse_element(group.law, law_apply(group.law, p.g, q.g)),
        )
        checked += 1
        if not any(defect == u for u in allowed):
            failures.append(
                f"projection defect {defect} is outside the qhat subgroup"
            )
    return TateSequenceReport(ok=not failures, checked=checked, failures=failures)
