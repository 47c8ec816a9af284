"""Staged Thom modules over a circle-equivariant context.

A tower holds a bundle V and models stage n as a free rank-1 module
over the base ring.  The transition from stage n-1 to stage n is
multiplication by the Euler class of V tensored with the two new
weight summands (+n and -n); the renormalizing units u_n collect all
weights 0 < |k| <= n.  Stage classes are compared by pushing the
lower one up.  Coefficientwise stabilization of the normalized
products recovers the closed sine and sigma forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import PowerSeries, Rationals
from .equivariant import EqBundle, EquivariantContext, bundle, euler_class
from .errors import NonConvergentError, NotAUnitError
from .fgl import xy_coefficient
from .polyseries import MultiSeries, divide_by_var, series
from .tate import sigma_in_x, sine_series


@dataclass(frozen=True)
class ThomTower:
    context: EquivariantContext
    bundle: EqBundle

    def __post_init__(self):
        if self.bundle.context is not self.context:
            raise ValueError("bundle must live over the tower's context")


@dataclass(frozen=True)
class TowerClass:
    stage: int
    value: MultiSeries

    def __post_init__(self):
        if self.stage < 0:
            raise ValueError("stage must be nonnegative")


def tower(context: EquivariantContext, V: EqBundle) -> ThomTower:
    return ThomTower(context, V)


def _tensor_shift(V: EqBundle, k: int) -> EqBundle:
    """V tensored with the weight-k line: every block weight moves by k."""
    return bundle(V.context, [(r, w + k, m) for r, w, m in V.blocks])


def _pad(T: ThomTower, blocks) -> tuple:
    """Zero-rank markers keep every stage multiplier in one template,
    with the tower bundle's full root variable set."""
    return tuple(blocks) + tuple(
        (r, 0, 0) for r in T.bundle.root_vars()
    )


def transition_bundle(T: ThomTower, n: int) -> EqBundle:
    if n < 1:
        raise ValueError("transitions start at stage 1")
    shifted = _tensor_shift(T.bundle, n).blocks + _tensor_shift(
        T.bundle, -n
    ).blocks
    return bundle(T.context, _pad(T, shifted))


def transition(T: ThomTower, n: int, x_trunc=None) -> MultiSeries:
    """The stage n-1 -> n multiplier: e(V(n)) * e(V(-n))."""
    return euler_class(transition_bundle(T, n), x_trunc)


def unit_u(T: ThomTower, n: int, x_trunc=None) -> MultiSeries:
    """prod over 0 < |k| <= n of e(V(k)); u_0 is the empty product."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not T.context.localized:
        raise NotAUnitError("units live in the localized theory")
    blocks = []
    for k in range(1, n + 1):
        blocks += _tensor_shift(T.bundle, k).blocks
        blocks += _tensor_shift(T.bundle, -k).blocks
    return euler_class(bundle(T.context, _pad(T, blocks)), x_trunc)


def omega(T: ThomTower, n: int, s) -> TowerClass:
    """The stage-n renormalized class (n, u_n * s)."""
    return TowerClass(n, unit_u(T, n) * s)


def push_class(T: ThomTower, c: TowerClass, stage: int) -> TowerClass:
    """Move a class up the tower through the transition multipliers."""
    if stage < c.stage:
        raise ValueError("classes only push to higher stages")
    v = c.value
    for k in range(c.stage + 1, stage + 1):
        v = v * transition(T, k, v.trunc)
    return TowerClass(stage, v)


def tower_class_eq(T: ThomTower, a: TowerClass, b: TowerClass) -> bool:
    top = max(a.stage, b.stage)
    return push_class(T, a, top).value == push_class(T, b, top).value


def relative_omega(T: ThomTower, cutoff: int, x_trunc=None) -> MultiSeries:
    """The stage-cutoff multiplier relative to the trivial bundle of
    the same rank: prod over roots x_j and 0 < |k| <= cutoff of
    (x_j +_F [k](qhat)) / [k](qhat).  Times prod x_j this is the
    product of the renormalized theta series of the roots.

    The numerator u_cutoff is divided by prod [k](qhat)^rank one
    coefficient at a time with the ring's divide, which is exact in a
    Laurent window (see coefficients)."""
    ring = T.context.ring
    num = unit_u(T, cutoff, x_trunc)
    rank = T.bundle.rank()
    denom = ring.one()
    for k in range(1, cutoff + 1):
        for kk in (k, -k):
            denom = ring.mul(denom, ring.pow(T.context.division_point(kk).data, rank))
    return num.map_coefficients(lambda c: ring.divide(c, denom), ring)


def _root_blocks(V: EqBundle) -> list[tuple[str, int]]:
    """Collapse to (root, multiplicity), checking weights are zero."""
    out = []
    for r, w, m in V.blocks:
        if w != 0:
            raise ValueError(
                "stabilization applies to bundles pulled back from the "
                "base, i.e. weight-0 blocks"
            )
        if r is not None and m > 0:
            out.append((r, m))
    return out


def stabilize(
    T: ThomTower, q_order: int, normalization: str = "sigma", x_trunc=None
):
    """The cutoff n_stable past which the normalized stage multiplier is
    coefficientwise constant up to q_order, and the stable series.

    sigma: per root x of multiplicity m the pair at distance k
    contributes (1-q^k L)(1-q^k L^{-1})/(1-q^k)^2 with L = 1-x once one
    power of L is divided out per step.  Pairs with k > q_order are
    exactly 1 in the truncated ring, so the stable series is the whole
    product, the closed form prod (sigma_in_x / x)^m over the roots.
    Since L + L^{-1} - 2 = x^2 + x^3 + ..., the k-th pair to the m is
    1 - q^k m (x^2 + x^3 + ...) + O(q^{k+1}): it moves the x^2
    coefficient at q^k for every k <= q_order.  So n_stable is q_order
    when some root has positive multiplicity and trunc >= 2, and 0
    otherwise, where every pair is 1.

    sine: the additive pairs (1 - x^2/(k^2 qhat^2)) never repeat
    coefficients exactly; the declared limit is the sine closed form
    and the stability bound is the requested order itself.

    raw: no renormalization; any positive-rank bundle is reported as
    non-convergent.
    """
    if q_order < 0:
        raise ValueError("q_order must be nonnegative")
    trunc = T.context.law.trunc if x_trunc is None else x_trunc
    c = xy_coefficient(T.context.law)
    roots = _root_blocks(T.bundle)
    vars_ = T.bundle.root_vars()

    if normalization == "raw":
        if T.bundle.rank() > 0:
            raise NonConvergentError(
                "raw stage multipliers acquire new leading factors at "
                "every stage; renormalize with sigma or sine"
            )
        return 0, series(Rationals(), (), 0).one()

    if normalization == "sine":
        if c != 0:
            raise NonConvergentError(
                "sine normalization needs the additive law"
            )
        tring = PowerSeries(Rationals(), "t", q_order)
        sine = sine_series(trunc + 1, q_order)
        ctx = series(tring, vars_, trunc)
        acc = ctx.one()
        for r, m in roots:
            per = _ratio_to_root(sine, ctx, r)
            acc = acc * per ** m
        return q_order, acc

    if normalization != "sigma":
        raise ValueError(f"unknown normalization {normalization!r}")
    if c != -1:
        raise NonConvergentError(
            "sigma normalization needs the multiplicative law"
        )
    qring = PowerSeries(Rationals(), "q", q_order)
    ctx = series(qring, vars_, trunc)
    sig = sigma_in_x(trunc + 1, qring)
    acc = ctx.one()
    for r, m in roots:
        acc = acc * _ratio_to_root(sig, ctx, r) ** m
    return (q_order if roots and trunc >= 2 else 0), acc


def _ratio_to_root(f: MultiSeries, ctx: MultiSeries, root: str) -> MultiSeries:
    """f(x)/x evaluated at the root variable, inside the template ctx."""
    ratio = divide_by_var(f).with_trunc(ctx.trunc)
    return ratio.rename_vars({f.vars[0]: root}).lift_to(ctx.vars)
