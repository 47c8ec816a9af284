"""Genera of Chern-root data: multiplicative genera, the coordinate
change (Riemann-Roch) identity, loop-space genera, and the rational
residue computation.

A space is presented as blocks of Chern-root data: block i contributes
a variable h_i, a list of roots (scale * h_i with multiplicity), and a
pairing power n_i.  Pairing against the fundamental class is reading
off the coefficient of prod h_i^{n_i}; the dimension is sum n_i.  For
complex projective n-space the total Chern class is (1+h)^{n+1} with
pairing power n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coefficients import (
    GaussianRationals,
    PowerSeries,
    Rationals,
    RingElement,
)
from .equivariant import EquivariantContext
from .errors import (
    NonConvergentError,
    PoleError,
    TruncationError,
)
from .fgl import X, FormalGroupLaw, fgl_exp, law_apply, multiplicative_law, transport
from .polyseries import MultiSeries, divide_by_var, series
from .tate import sigma_in_x, sincos_pi, sine_series, theta_series

# ----------------------------------------------------------------------
# spaces as Chern-root data


@dataclass(frozen=True)
class ChernBlock:
    var: str
    top: int  # pairing power: extract var^top
    roots: tuple[tuple[int, int], ...]  # (scale, multiplicity)


@dataclass(frozen=True)
class ChernData:
    blocks: tuple[ChernBlock, ...]
    name: str = ""

    def __post_init__(self):
        vs = [b.var for b in self.blocks]
        if len(set(vs)) != len(vs):
            raise ValueError("block variables must be distinct")

    @property
    def vars(self) -> tuple[str, ...]:
        return tuple(b.var for b in self.blocks)

    @property
    def dimension(self) -> int:
        return sum(b.top for b in self.blocks)

    def top_exponents(self) -> tuple[int, ...]:
        return tuple(b.top for b in self.blocks)

    def first_chern_vanishes(self) -> bool:
        return all(
            sum(s * m for s, m in b.roots) == 0 for b in self.blocks
        )


def cp(n: int, var: str = "h") -> ChernData:
    """Complex projective n-space: total Chern class (1+h)^{n+1}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ChernData(
        blocks=(ChernBlock(var, n, ((1, n + 1),)),), name=f"cp{n}"
    )


def point() -> ChernData:
    return ChernData(blocks=(), name="point")


def product_data(a: ChernData, b: ChernData) -> ChernData:
    overlap = set(a.vars) & set(b.vars)
    if overlap:
        raise ValueError(f"blocks share variables {sorted(overlap)}")
    name = f"{a.name}x{b.name}" if a.name and b.name else ""
    return ChernData(blocks=a.blocks + b.blocks, name=name)


def c1_trivial_block(top: int = 4, var: str = "h") -> ChernData:
    """A formal block with roots h and -h: first Chern class zero."""
    return ChernData(
        blocks=(ChernBlock(var, top, ((1, 1), (-1, 1))),),
        name=f"c1zero{top}",
    )


# ----------------------------------------------------------------------
# genus evaluation


def genus_eval(Xd: ChernData, Q: MultiSeries) -> RingElement:
    """The multiplicative genus: coefficient of prod h_i^{n_i} in
    prod over roots of Q(scale * h_i)^multiplicity."""
    d = Xd.dimension
    if Q.trunc < d:
        raise TruncationError(
            f"characteristic series truncated at {Q.trunc} < dimension {d}"
        )
    if len(Q.vars) != 1:
        raise ValueError("characteristic series must be univariate")
    ring = Q.ring
    ctx = series(ring, Xd.vars, d)
    acc = ctx.one()
    qv = Q.vars[0]
    for block in Xd.blocks:
        h = ctx.var(block.var)
        for scale, mult in block.roots:
            if mult == 0:
                continue
            value = h * scale
            factor = Q.substitute({qv: value})
            acc = acc * factor ** mult
    return acc.coefficient(Xd.top_exponents())


def euler_characteristic(Xd: ChernData) -> RingElement:
    """c_top paired with the fundamental class, via Q(x) = 1 + x."""
    ring = Rationals()
    s = series(ring, (X,), max(Xd.dimension, 1))
    return genus_eval(Xd, s.one() + s.var(X))


def _ratio_to_var(f: MultiSeries) -> MultiSeries:
    """x / f for univariate f = x(1 + ...): invert the unit cofactor."""
    return divide_by_var(f).series_inverse()


def todd_series_of(F: FormalGroupLaw) -> MultiSeries:
    """The characteristic series x / exp_F(x) whose genus is p^X_F(1)."""
    return _ratio_to_var(fgl_exp(F))


def ahat_series(trunc: int) -> MultiSeries:
    """(x/2) / sinh(x/2) over the rationals."""
    ring = Rationals()
    ctx = series(ring, (X,), trunc + 1)
    sinh_half = ctx.zero()
    x = ctx.var(X)
    m = 0
    import math

    while 2 * m + 1 <= trunc + 1:
        c = Fraction(1, math.factorial(2 * m + 1) * 2 ** (2 * m + 1))
        sinh_half = sinh_half + x ** (2 * m + 1) * ctx.const(c)
        m += 1
    # x / (2 sinh(x/2))
    return _ratio_to_var(sinh_half + sinh_half)


# ----------------------------------------------------------------------
# the coordinate-change identity


def rr_transform(
    Xd: ChernData, F: FormalGroupLaw, theta: MultiSeries
) -> tuple[RingElement, RingElement]:
    """Both sides of the umkehr comparison for the map to a point.

    Left: the genus of the transported law G (built from G's own
    exponential).  Right: the F-genus density corrected by the factor
    prod x_j / theta(x_j) read at the F-Chern roots, which are the
    exponentials of the additive roots.  The two sides are computed
    along independent code paths and must agree exactly.
    """
    iso = transport(F, theta)
    if not iso.strict:
        raise ValueError("theta must be strict; renormalize the slope first")
    lhs = genus_eval(Xd, todd_series_of(iso.target))

    expF = fgl_exp(F)
    qf = _ratio_to_var(expF)  # x / exp_F(x)
    th = theta.rename_vars({theta.vars[0]: X})
    correction = _ratio_to_var(th).substitute({X: expF})  # (y/theta(y)) at y=exp_F
    t = min(qf.trunc, correction.trunc)
    rhs = genus_eval(Xd, qf.with_trunc(t) * correction.with_trunc(t))
    return lhs, rhs


# ----------------------------------------------------------------------
# loop-space genera


def _loop_density(
    law: FormalGroupLaw, theta_x: MultiSeries, d: int
) -> MultiSeries:
    """x / Theta(exp_F(x)) truncated to degree d."""
    expF = fgl_exp(law).with_trunc(d + 1)
    comp = theta_x.rename_vars({theta_x.vars[0]: X}).substitute({X: expF})
    return _ratio_to_var(comp)


def loop_genus(
    Xd: ChernData, context: EquivariantContext, cutoff: int
) -> RingElement:
    """The renormalized loop-space genus at a finite product cutoff:
    p^X_F applied to prod x_j / Theta_F(x_j; qhat)."""
    d = Xd.dimension
    th = theta_series(context.law, context.qhat, cutoff, d + 1)
    density = _loop_density(context.law, th.series, d)
    return genus_eval(Xd, density)


def loop_genus_unrenormalized(
    Xd: ChernData, context: EquivariantContext, cutoff: int
) -> RingElement:
    """The raw fixed-point expression prod 1/(x_j +_F [k](qhat)) at a
    finite cutoff, leading factor and all."""
    d = Xd.dimension
    law = context.law
    expF = fgl_exp(law).with_trunc(d + 1)
    ctx = series(law.ring, (X,), d + 1)
    prod = ctx.one()
    for k in range(1, cutoff + 1):
        for kk in (k, -k):
            u = context.division_point(kk)
            prod = prod * law_apply(law, expF, u)
    density = _ratio_to_var(expF) * prod.series_inverse().with_trunc(d)
    return genus_eval(Xd, density)


def loop_genus_sine(Xd: ChernData, t_order: int) -> RingElement:
    """The additive closed form: density x t / sin(t x), over the
    Gaussian rationals so the answer can carry powers of 2 i t."""
    d = Xd.dimension
    tring = PowerSeries(GaussianRationals(), "t", t_order)
    sine = sine_series(d + 1, t_order).map_coefficients(
        lambda payload: {
            e: tring.base.from_fraction(c) for e, c in payload.items()
        },
        tring,
    )
    return genus_eval(Xd, _ratio_to_var(sine))


def loop_genus_sigma(Xd: ChernData, q_order: int) -> RingElement:
    """The multiplicative closed form (the Witten-genus expansion):
    density x / sigma(exp_Gm(x)), requiring first Chern class zero."""
    if not Xd.first_chern_vanishes():
        raise NonConvergentError(
            "sigma normalization drops one L-power per cutoff step, "
            "which is only harmless when the first Chern class vanishes"
        )
    d = Xd.dimension
    qring = PowerSeries(Rationals(), "q", q_order)
    law = multiplicative_law(qring, d + 1)
    sig = sigma_in_x(d + 1, qring)
    density = _loop_density(law, sig, d)
    return genus_eval(Xd, density)


def loop_vs_quotient_check(
    Xd: ChernData, context: EquivariantContext, cutoff: int
) -> bool:
    """The central comparison: the renormalized loop genus equals the
    plain genus of the law transported along Theta(.; qhat).

    One theta at x-truncation d + 1 (no higher term reaches a degree-d
    genus) feeds the loop density and the transport.  Both sides are
    compared on every stored coefficient: theta_series divides exactly,
    so a Laurent coefficient window carries no truncation junk.
    """
    d, law = Xd.dimension, context.law
    th = theta_series(law, context.qhat, cutoff, d + 1).series
    lhs = genus_eval(Xd, _loop_density(law, th, d))
    rhs = genus_eval(Xd, todd_series_of(transport(law, th).target))
    return lhs == rhs


# ----------------------------------------------------------------------
# the rational residue


def _angle_series(
    y: MultiSeries, tring: PowerSeries, odd: bool
) -> MultiSeries:
    """sin(t y) or cos(t y) as a series over tring, y a nilpotent part."""
    import math

    acc = y.zero() if odd else y.one()
    k = 1 if odd else 2
    while k <= y.trunc:
        sign = (-1) ** (k // 2)
        coeff = tring.from_base(
            tring.base.from_fraction(Fraction(sign, math.factorial(k)))
        )
        scalar = tring.mul(coeff, tring.param_payload(k))
        acc = acc + (y ** k) * y.const(scalar)
        k += 2
    return acc


def chi_residue(Xd: ChernData, r) -> RingElement:
    """The z-residue of the loop density at the rational rotation r.

    Expands prod_j (t x_j z) / sin(t (x_j z) + pi r) over the honest
    tangent roots: the numerator contributes (t z)^d times the top
    Chern class, the denominator is stabilized by normalizing each
    factor to 1 at the origin.  The result is (t / sin(pi r))^d times
    the Euler characteristic, but is computed by direct expansion.
    """
    r = Fraction(r)
    if r.denominator == 1:
        raise PoleError(f"r = {r} is integral: sin(pi r) vanishes")
    base, sv, cv = sincos_pi(r)
    d = Xd.dimension
    tring = PowerSeries(base, "t", 2 * d)
    ctx = series(tring, Xd.vars + ("z",), 2 * d)

    # degree-d part of the total Chern class, from the root data
    total = ctx.one()
    for block in Xd.blocks:
        h = ctx.var(block.var)
        for scale, mult in block.roots:
            total = total * (ctx.one() + h * scale) ** mult
    e_top = MultiSeries(
        ctx.ring,
        ctx.vars,
        ctx.trunc,
        {e: c for e, c in total.terms.items() if sum(e) == d},
        _canonical=True,
    )

    z = ctx.var("z")
    acc = e_top * z ** d
    sv_el = ctx.const(tring.from_base(sv))
    cv_el = ctx.const(tring.from_base(cv))
    for block in Xd.blocks:
        h = ctx.var(block.var)
        for scale, mult in block.roots:
            y = h * z * scale
            denom = cv_el * _angle_series(y, tring, odd=True) + sv_el * (
                _angle_series(y, tring, odd=False)
            )
            normalized = sv_el * denom.series_inverse()
            acc = acc * normalized ** mult
    raw = acc.coefficient(Xd.top_exponents() + (d,))
    # the t^d prefactor and the sin(pi r)^{-d} from the normalization
    t_power = tring.param_payload(d) if d else tring.one()
    sv_inv = tring.base.invert(sv)
    scale_payload = tring.mul(
        t_power, tring.from_base(tring.base.pow(sv_inv, d))
    )
    return raw.ring.wrap(raw.ring.mul(raw.data, scale_payload))
