"""Quotients of a formal group law by a finite subgroup of points.

Given a law F over A and a finite set H of points (elements of A on
which F converges, in practice roots of a polynomial over an Artin or
localized ring), the isogeny with kernel H is

    f_H(x) = prod over h in H of (x +_F h)

and after dividing by the unit f_H'(0) one gets a strict coordinate
g_H.  Transporting F along f_H = f_H'(0) g_H yields the quotient law
F/H, with f_H a homomorphism F -> F/H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .coefficients import RingElement
from .errors import NotAUnitError
from .fgl import (
    X,
    FormalGroupLaw,
    inverse_element,
    law_apply,
    transport,
)
from .polyseries import MultiSeries, series


@dataclass
class SubgroupPoints:
    """A candidate finite subgroup: explicit points including zero."""

    law: FormalGroupLaw
    points: tuple[RingElement, ...]

    def __post_init__(self):
        self.points = tuple(self.points)
        for p in self.points:
            if p.ring != self.law.ring:
                raise ValueError("subgroup points must live over the law's ring")


def _member(points, value: RingElement) -> bool:
    return any(value == p for p in points)


def subgroup_check(H: SubgroupPoints) -> tuple[bool, Optional[str]]:
    """Closure of the point set under the law and formal inverse.

    Returns (True, None) or (False, witness) where the witness names
    the first failing requirement.
    """
    pts = H.points
    zero = H.law.ring.wrap(H.law.ring.zero())
    if not _member(pts, zero):
        return False, "0 is missing from the point set"
    for i, p in enumerate(pts):
        for q in pts[i + 1 :]:
            if p == q:
                return False, f"duplicate point {p}"
    for p in pts:
        inv = inverse_element(H.law, p)
        if not _member(pts, inv):
            return False, f"inverse of {p} = {inv} escapes the set"
    for p in pts:
        for q in pts:
            s = law_apply(H.law, p, q)
            if not _member(pts, s):
                return False, f"({p}) +F ({q}) = {s} escapes the set"
    return True, None


def lubin_isogeny(H: SubgroupPoints, x_trunc: Optional[int] = None) -> MultiSeries:
    """f_H(x) = prod_{h in H} (x +_F h) as a univariate series in x."""
    F = H.law
    trunc = F.trunc if x_trunc is None else x_trunc
    ok, witness = subgroup_check(H)
    if not ok:
        raise ValueError(f"not a subgroup: {witness}")
    x = series(F.ring, (X,), trunc).var(X)
    f = None
    for h in H.points:
        factor = law_apply(F, x, h) if not h.is_zero() else x
        f = factor if f is None else f * factor
    return f


def lubin_coordinate(
    H: SubgroupPoints, x_trunc: Optional[int] = None
) -> tuple[MultiSeries, RingElement]:
    """The strict coordinate g_H = f_H / f_H'(0) and the unit f_H'(0).

    f_H'(0) is the product of the nonzero points; when it is not a
    unit (for example over F_p before inverting the points' parameter)
    NotAUnitError propagates and the quotient construction is refused.
    """
    f = lubin_isogeny(H, x_trunc)
    # [x] f_H = prod F(0, h) = prod h: read off the points, it also holds
    # at truncation 0, where f_H is the zero series
    lead = H.law.ring.wrap(H.law.ring.one())
    for h in H.points:
        if not h.is_zero():
            lead = lead * h
    try:
        inv_lead = lead.inverse()
    except NotAUnitError as exc:
        raise NotAUnitError(
            f"f_H'(0) = {lead} is not a unit; localize before quotienting"
        ) from exc
    return f * inv_lead, lead


@dataclass
class QuotientLaw:
    """The quotient law F/H together with the isogeny data."""

    law: FormalGroupLaw
    isogeny: MultiSeries        # f_H, a homomorphism onto the quotient
    coordinate: MultiSeries     # g_H = f_H / f_H'(0)
    scale: RingElement          # f_H'(0)


def quotient_law(H: SubgroupPoints, x_trunc: Optional[int] = None) -> QuotientLaw:
    """Transport F along f_H = f_H'(0) g_H."""
    g, lead = lubin_coordinate(H, x_trunc)
    f = g * lead
    law = transport(H.law, f).target
    return QuotientLaw(law=law, isogeny=f, coordinate=g, scale=lead)
