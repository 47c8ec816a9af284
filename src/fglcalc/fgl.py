"""Formal group laws over exact coefficient rings.

A law is a bivariate series F(x, y) = x + y + higher order satisfying
commutativity and associativity up to the truncation order.  Laws are
validated eagerly at construction so nothing downstream operates on a
non-law.  Over rings with rational scalars, and over Z and Z[1/n] read
inside Q, associativity is checked through the logarithm,
l(F(x, y)) = l(x) + l(y); other rings, such as Z/n and Artin rings over
it, expand F(F(x, y), z) = F(x, F(y, z)) in three variables (see
``check_law_axioms``).  A law that is a polynomial keeps it whole in
``whole`` (the additive and multiplicative laws do); such a law is
exact, which legitimizes evaluation at arguments with non-nilpotent
constant parts.  The stored series is that polynomial truncated, so
below trunc 2 the multiplicative law stores x + y but still adds
points by x + y - xy.  Closed forms for inverses and n-series are read
off the polynomial, never off the law's display name.

The one-dimensional calculus lives here: n-series by binary addition
chains, the formal inverse by fixed-point iteration, logarithms by
integrating the reciprocal of the partial derivative, exponentials by
reversion, and transport of a law along a coordinate change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

from .coefficients import Integers, Rationals, Ring, RingElement, repeated
from .errors import (
    LawAxiomError,
    NotAUnitError,
    RationalsRequiredError,
    RingMismatchError,
)
from .polyseries import MultiSeries, series

X, Y = "x", "y"


def check_law_axioms(law: MultiSeries) -> None:
    """Raise LawAxiomError unless law is a commutative formal group law.

    Checks, coefficientwise up to the truncation order T, in this order:
    F(x, 0) = x, F(0, y) = y, F(x, y) = F(y, x), and associativity.

    Which associativity criterion runs depends on the ring:

    - rings with rational scalars (Q, Q[i], and power series, Laurent
      and quotient rings over them): the logarithm criterion below;
    - Z and Z[1/n]: the same criterion after mapping the coefficients
      into Q, which is faithful because these rings are subrings of Q;
    - Z/n, Artin rings over Z/n and every other ring without rational
      scalars: F(F(x, y), z) = F(x, F(y, z)) by three-variable
      substitution (``_associative_by_substitution``).

    The logarithm criterion: with g(x) = (dF/dy)(x, 0) and
    l = integral of 1/g from 0, F is associative modulo degree T + 1 if
    and only if l(F(x, y)) = l(x) + l(y) modulo degree T + 1.  Over any
    ring containing Q, for a bud F that satisfies the unit axioms:

    - associativity gives the log identity: differentiate
      F(F(x, y), z) = F(x, F(y, z)) in z at z = 0 to get
      g(F(x, y)) = (dF/dy)(x, y) g(y), so d/dy l(F(x, y)) = l'(y), and
      integrating in y from 0, where F(x, 0) = x, gives
      l(F(x, y)) = l(x) + l(y);
    - the log identity gives associativity: l is strict because
      g(0) = 1, so it has a compositional inverse e and
      F = e(l(x) + l(y)) modulo degree T + 1, and that law is
      associative because addition is.

    Truncation is harmless on both sides: every series substituted has
    no constant term, so congruences modulo degree T + 1 survive it, and
    l modulo degree T + 1 only needs g modulo degree T.  The check is a
    two-variable composition, where the substitution needs three.
    """
    if len(law.vars) != 2:
        raise LawAxiomError("a law needs exactly two variables")
    xv, yv = law.vars
    uni = series(law.ring, (xv,), law.trunc)
    if law.coefficient_in(yv, 0).project_vars((xv,)) != uni.var(xv):
        raise LawAxiomError("unit axiom fails: F(x, 0) != x")
    if law.coefficient_in(xv, 0).project_vars((yv,)) != series(
        law.ring, (yv,), law.trunc
    ).var(yv):
        raise LawAxiomError("unit axiom fails: F(0, y) != y")
    flipped = MultiSeries(
        law.ring,
        law.vars,
        law.trunc,
        {(e[1], e[0]): c for e, c in law.terms.items()},
        _canonical=True,
    )
    if flipped != law:
        raise LawAxiomError("commutativity fails")
    if law.ring.has_rational_scalars():
        associative = _associative_by_log(law)
    elif isinstance(law.ring, Integers):
        qq = Rationals()
        associative = _associative_by_log(law.map_coefficients(qq.from_fraction, qq))
    else:
        associative = _associative_by_substitution(law)
    if not associative:
        raise LawAxiomError("associativity fails")


def _log_of(law: MultiSeries) -> MultiSeries:
    """l = integral of 1 / (dF/dy)(x, 0), l(0) = 0, as a series in x.

    Modulo degree 1 the unit axioms leave F = 0, which has no
    (dF/dy)(x, 0) to invert, and l is the zero series."""
    xv, yv = law.vars
    d = law.coefficient_in(yv, 1).project_vars((xv,))
    if law.trunc == 0:
        return d.zero()
    return d.series_inverse().integrate(xv)


def _associative_by_log(law: MultiSeries) -> bool:
    """l(F(x, y)) == l(x) + l(y) for a unital bud over a Q-algebra."""
    xv, yv = law.vars
    log = _log_of(law)
    lx = log.lift_to(law.vars)
    ly = log.rename_vars({xv: yv}).lift_to(law.vars)
    return log.substitute({xv: law}) == lx + ly


def _associative_by_substitution(law: MultiSeries) -> bool:
    """F(F(x, y), z) == F(x, F(y, z)) expanded in three variables."""
    xv, yv = law.vars
    tri = series(law.ring, (xv, yv, "assoc_z"), law.trunc)
    inner_xy = law.lift_to(tri.vars)
    z = tri.var("assoc_z")
    left = law.substitute({xv: inner_xy, yv: z})
    inner_yz = law.rename_vars({xv: yv, yv: "assoc_z"}).lift_to(tri.vars)
    right = law.substitute({xv: tri.var(xv), yv: inner_yz})
    return left == right


@dataclass
class FormalGroupLaw:
    """A validated commutative one-dimensional formal group law."""

    law: MultiSeries
    name: str = ""
    # for a polynomial law, the whole polynomial in x and y, at a
    # truncation of at least its degree
    whole: Optional[MultiSeries] = field(default=None, repr=False)

    def __post_init__(self):
        if self.law.vars != (X, Y):
            self.law = self.law.rename_vars(
                {self.law.vars[0]: X, self.law.vars[1]: Y}
            )

    @property
    def exact(self) -> bool:
        """Is the law a polynomial, kept whole?"""
        return self.whole is not None

    @property
    def ring(self) -> Ring:
        return self.law.ring

    @property
    def trunc(self) -> int:
        return self.law.trunc

    def __eq__(self, other):
        if not isinstance(other, FormalGroupLaw):
            return NotImplemented
        return self.law == other.law

    def __repr__(self):
        tag = self.name or ("exact" if self.exact else "series")
        return f"<law {tag} trunc {self.trunc} over {self.ring.descriptor()}>"


def additive_law(ring: Ring, trunc: int) -> FormalGroupLaw:
    s = series(ring, (X, Y), max(trunc, 1))
    whole = s.var(X) + s.var(Y)
    return FormalGroupLaw(whole.with_trunc(trunc), name="additive", whole=whole)


def multiplicative_law(ring: Ring, trunc: int) -> FormalGroupLaw:
    s = series(ring, (X, Y), max(trunc, 2))
    x, y = s.var(X), s.var(Y)
    whole = x + y - x * y
    return FormalGroupLaw(whole.with_trunc(trunc), name="multiplicative", whole=whole)


def from_series(law: MultiSeries, name: str = "") -> FormalGroupLaw:
    check_law_axioms(law)
    return FormalGroupLaw(law, name=name)


def from_log(log: MultiSeries) -> FormalGroupLaw:
    """Build the law with the given logarithm: F = exp(log x + log y).

    The log must be a univariate strict coordinate (l(0) = 0, l'(0) = 1)
    over a ring with rational scalars.
    """
    if len(log.vars) != 1:
        raise ValueError("logarithm must be univariate")
    if not log.ring.has_rational_scalars():
        raise RationalsRequiredError(
            f"{log.ring.descriptor()} does not contain the rationals"
        )
    v = log.vars[0]
    if not log.constant_term().is_zero():
        raise LawAxiomError("logarithm must vanish at 0")
    if log.coefficient((1,)) != log.ring.wrap(log.ring.one()):
        raise LawAxiomError("logarithm must be strict: l'(0) = 1")
    exp = log.reversion()
    lx = log.rename_vars({v: X}).lift_to((X, Y))
    ly = log.rename_vars({v: Y}).lift_to((X, Y))
    law = exp.rename_vars({v: X}).substitute({X: lx + ly})
    return from_series(law, name="from_log")


# ----------------------------------------------------------------------
# applying the law

def law_apply(
    F: FormalGroupLaw,
    a: Union[MultiSeries, RingElement],
    b: Union[MultiSeries, RingElement],
):
    """a +_F b for two series in a common context or two ring elements.

    Mixed series and element arguments treat the element as a constant
    series; that direction is sound for exact laws always, and for
    truncated laws when the element is nilpotent and the law truncation
    has been sized with the headroom described in theta construction.
    """
    if isinstance(a, RingElement) and isinstance(b, RingElement):
        if F.exact:
            return F.whole.eval_elements({X: a, Y: b}, mode="exact")
        return F.law.eval_elements({X: a, Y: b}, mode="strict")
    if isinstance(a, RingElement):
        a = b.const(a.data) if isinstance(b, MultiSeries) else a
    if isinstance(b, RingElement):
        b = a.const(b.data)
    if not (isinstance(a, MultiSeries) and isinstance(b, MultiSeries)):
        raise TypeError("law_apply needs series or ring elements")
    if a.constant_term().is_zero() and b.constant_term().is_zero():
        mode = "strict"
    elif F.exact:
        # constant parts meet every term of the law, so the whole
        # polynomial is substituted, whatever the law's truncation
        return F.whole.substitute({X: a, Y: b}, mode="exact")
    else:
        mode = "nilpotent"
    return F.law.substitute({X: a, Y: b}, mode=mode)


def inverse_series(F: FormalGroupLaw) -> MultiSeries:
    """The formal inverse i(x) with F(x, i(x)) = 0, as a series in x."""
    uni = series(F.ring, (X,), F.trunc)
    x = uni.var(X)
    i = -x
    for _ in range(F.trunc + 2):
        defect = law_apply(F, x, i)
        if defect.is_zero():
            return i
        i = i - defect
    if not law_apply(F, x, i).is_zero():
        raise RuntimeError("formal inverse iteration failed to converge")
    return i


_XY_EXPONENTS = frozenset({(1, 0), (0, 1), (1, 1)})


def xy_coefficient(F: FormalGroupLaw) -> Optional[RingElement]:
    """c when F is the whole polynomial x + y + c xy, else None.

    c is 0 for the additive law and -1 for the multiplicative one.  The
    unit axioms fix the linear terms, so the exponents decide."""
    whole = F.whole
    if whole is None or not whole.terms.keys() <= _XY_EXPONENTS:
        return None
    return whole.ring.wrap(whole.terms.get((1, 1), whole.ring.zero()))


def inverse_element(F: FormalGroupLaw, a: RingElement) -> RingElement:
    """The group inverse of a point: -a / (1 + c a) for x + y + c xy."""
    c = xy_coefficient(F)
    if c is None:
        return inverse_series(F).eval_elements({X: a})
    # solve a + y + c a y = 0
    return -a if c.is_zero() else -(a * (1 + c * a).inverse())


def n_series(F: FormalGroupLaw, k: int) -> MultiSeries:
    """The k-fold formal sum [k](x) as a univariate series."""
    uni = series(F.ring, (X,), F.trunc)
    if k < 0:
        return inverse_series(F).substitute({X: n_series(F, -k)})
    return repeated(partial(law_apply, F), uni.var(X), k, uni.zero)


def n_series_element(F: FormalGroupLaw, k: int, a: RingElement) -> RingElement:
    """[k](a) for a ring element, via closed forms for x + y and x + y - xy."""
    ring = a.ring
    c = xy_coefficient(F)
    if c is not None and c.is_zero():
        return ring.wrap(ring.mul(ring.from_int(k), a.data))
    if c is not None and c == -1:
        one = ring.wrap(ring.one())
        return one - (one - a) ** k
    if k < 0:
        return inverse_element(F, n_series_element(F, -k, a))
    return repeated(partial(law_apply, F), a, k, lambda: ring.wrap(ring.zero()))


# ----------------------------------------------------------------------
# logarithm, exponential, transport

def fgl_log(F: FormalGroupLaw) -> MultiSeries:
    """The strict logarithm: l'(x) = 1 / (dF/dy)(x, 0), l(0) = 0."""
    if not F.ring.has_rational_scalars():
        raise RationalsRequiredError(
            f"logarithms need rational scalars, not {F.ring.descriptor()}"
        )
    return _log_of(F.law)


def fgl_exp(F: FormalGroupLaw) -> MultiSeries:
    """The strict exponential, the compositional inverse of the log."""
    return fgl_log(F).reversion()


@dataclass
class Isomorphism:
    """A coordinate change theta carrying ``source`` to ``target``.

    target(x, y) = theta(source(theta_inv(x), theta_inv(y))).  ``strict``
    records theta'(0) = 1.
    """

    theta: MultiSeries
    theta_inv: MultiSeries
    source: FormalGroupLaw
    target: FormalGroupLaw
    strict: bool


def transport(F: FormalGroupLaw, theta: MultiSeries) -> Isomorphism:
    """Push F forward along an invertible coordinate change.

    theta must be univariate with theta(0) = 0 and unit slope.  The
    resulting law is validated once, by ``from_series``, before being
    returned: through its logarithm over Q-algebras, Z and Z[1/n], and
    by three-variable substitution over other rings.
    """
    if len(theta.vars) != 1:
        raise ValueError("theta must be univariate")
    if theta.ring != F.ring:
        raise RingMismatchError(
            f"theta lives over {theta.ring.descriptor()}, "
            f"law over {F.ring.descriptor()}"
        )
    v = theta.vars[0]
    if not theta.constant_term().is_zero():
        raise LawAxiomError("theta(0) must vanish")
    one = F.ring.wrap(F.ring.one())
    # modulo degree 1 every coordinate change is 0, the identity x
    slope = theta.coefficient((1,)) if theta.trunc else one
    if not slope.is_unit():
        raise NotAUnitError(f"theta slope {slope} is not a unit")
    theta = theta.rename_vars({v: X})
    theta_inv = theta.reversion()
    tix = theta_inv.lift_to((X, Y))
    tiy = theta_inv.rename_vars({X: Y}).lift_to((X, Y))
    inner = F.law.substitute({X: tix, Y: tiy})
    law = theta.substitute({X: inner})
    target = from_series(law, name="transported")
    return Isomorphism(
        theta=theta,
        theta_inv=theta_inv,
        source=F,
        target=target,
        strict=slope == one,
    )


def is_homomorphism(
    f: MultiSeries, F: FormalGroupLaw, G: FormalGroupLaw
) -> bool:
    """Does f carry F to G, i.e. f(F(x, y)) = G(f(x), f(y))?"""
    if len(f.vars) != 1:
        raise ValueError("f must be univariate")
    v = f.vars[0]
    f = f.rename_vars({v: X})
    lhs = f.substitute({X: F.law})
    fx = f.lift_to((X, Y))
    fy = f.rename_vars({X: Y}).lift_to((X, Y))
    rhs = G.law.substitute({X: fx, Y: fy})
    return lhs == rhs
