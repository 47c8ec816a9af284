"""Circle-equivariant Euler classes over a trivial-action base.

The model: a coefficient ring in the deformation parameter (qhat for
the additive theory, q with qhat = 1 - q for the multiplicative one),
a group law over it, and bundles split into weighted blocks

    V = (+)  L_root (x) C(weight)   with multiplicity.

The Euler class of a block is (x_root +_F [weight](qhat))^mult, and a
localized context is one whose ring makes every [k](qhat) a unit up to
a declared bound, so fixed-point denominators exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .coefficients import (
    LaurentSeries,
    PowerSeries,
    Rationals,
    Ring,
    RingElement,
)
from .errors import NotAUnitError, RingMismatchError, TailOverflowError
from .fgl import (
    FormalGroupLaw,
    additive_law,
    law_apply,
    multiplicative_law,
    n_series_element,
)
from .polyseries import MultiSeries, series
from .tate import division_points


@dataclass(frozen=True)
class EquivariantContext:
    law: FormalGroupLaw
    qhat: RingElement
    localized: bool
    unit_bound: int  # invertibility of [k](qhat) was checked for |k| <= this

    @property
    def ring(self) -> Ring:
        return self.law.ring

    def division_point(self, k: int) -> RingElement:
        return n_series_element(self.law, k, self.qhat)


def make_context(
    law: FormalGroupLaw,
    qhat: RingElement,
    localized: bool,
    unit_bound: int = 0,
) -> EquivariantContext:
    """Wrap a law and its deformation parameter, checking suitability.

    In a localized context every [k](qhat) with 0 < |k| <= unit_bound
    must invert in the coefficient ring.
    """
    if qhat.ring != law.ring:
        raise RingMismatchError("qhat must live over the law's ring")
    if localized:
        division_points(law, qhat, unit_bound)
    return EquivariantContext(law, qhat, localized, unit_bound)


def additive_context(
    trunc: int,
    qhat_order: int,
    tail: int = 0,
    localized: bool = True,
    unit_bound: int = 8,
) -> EquivariantContext:
    """Rational Borel coefficients: power series in qhat, or a Laurent
    window when localized (inverting qhat inverts every k*qhat)."""
    if localized:
        ring: Ring = LaurentSeries(Rationals(), "qh", qhat_order, tail)
    else:
        ring = PowerSeries(Rationals(), "qh", qhat_order)
    law = additive_law(ring, trunc)
    qhat = ring.wrap(ring.param_payload(1))
    return make_context(law, qhat, localized, unit_bound if localized else 0)


def multiplicative_context(
    trunc: int,
    q_order: int,
    tail: int = 0,
    localized: bool = True,
    unit_bound: int = 8,
) -> EquivariantContext:
    """K-theoretic coefficients: qhat = 1 - q over a q-series ring.

    The localized form is a Laurent window in q; [k](qhat) = 1 - q^k is
    then a unit for every nonzero k with |k| <= tail (negative k needs
    q^{-k} representable).
    """
    if localized:
        ring: Ring = LaurentSeries(Rationals(), "q", q_order, tail)
    else:
        ring = PowerSeries(Rationals(), "q", q_order)
    law = multiplicative_law(ring, trunc)
    qhat = ring.wrap(ring.sub(ring.one(), ring.param_payload(1)))
    bound = min(unit_bound, tail) if localized else 0
    return make_context(law, qhat, localized, bound)


# ----------------------------------------------------------------------
# weighted bundles


@dataclass(frozen=True)
class EqBundle:
    """Blocks (root variable or None, weight, multiplicity)."""

    context: EquivariantContext
    blocks: tuple[tuple[Optional[str], int, int], ...]

    def __post_init__(self):
        for root, weight, mult in self.blocks:
            if mult < 0:
                raise ValueError("multiplicities must be nonnegative")

    def rank(self) -> int:
        return sum(m for _, _, m in self.blocks)

    def root_vars(self) -> tuple[str, ...]:
        seen = []
        for root, _, _ in self.blocks:
            if root is not None and root not in seen:
                seen.append(root)
        return tuple(sorted(seen))


def bundle(
    context: EquivariantContext,
    blocks: Sequence[tuple[Optional[str], int, int]],
) -> EqBundle:
    return EqBundle(context, tuple((r, int(w), int(m)) for r, w, m in blocks))


def euler_class(b: EqBundle, x_trunc: Optional[int] = None) -> MultiSeries:
    """prod over blocks of (x_root +_F [weight](qhat))^multiplicity.

    Weight-0 blocks reduce to the nonequivariant class: x_root for a
    line with a root, 0 for a trivial summand.
    """
    ctx = b.context
    trunc = ctx.law.trunc if x_trunc is None else x_trunc
    vars_ = b.root_vars()
    template = series(ctx.ring, vars_, trunc)
    acc = template.one()
    for root, weight, mult in b.blocks:
        if mult == 0:
            continue
        base = template.var(root) if root is not None else template.zero()
        if weight == 0:
            factor = base
        else:
            factor = law_apply(ctx.law, base, ctx.division_point(weight))
        acc = acc * factor ** mult
    return acc


def unit_check(b: EqBundle) -> bool:
    """Is the equivariant Euler class of b invertible in the declared ring?

    False whenever the context is not localized (no dividing outside
    the declared localization), or the bundle has a fixed summand
    (weight-0 block of positive rank); otherwise attempt the inversion.
    A Laurent window too shallow to hold the inverse also reports
    False: invertibility is relative to the declared coefficients.
    """
    if not b.context.localized:
        return False
    if any(w == 0 and m > 0 for _, w, m in b.blocks):
        return False
    try:
        euler_class(b).series_inverse()
    except (NotAUnitError, TailOverflowError):
        return False
    return True


def loop_normal_bundle(
    context: EquivariantContext,
    roots: Sequence[tuple[str, int]],
    cutoff: int,
) -> EqBundle:
    """The weight decomposition of the loop-space normal bundle at the
    constant loops, truncated at |weight| <= cutoff: one block
    (root, k, mult) per tangent root and nonzero weight."""
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    blocks = []
    for var, mult in roots:
        for k in range(1, cutoff + 1):
            blocks.append((var, k, mult))
            blocks.append((var, -k, mult))
    return EqBundle(context, tuple(blocks))
