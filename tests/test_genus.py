"""Genus evaluation on Chern data, loop-space densities, residue formulas."""

from dataclasses import replace
from fractions import Fraction

import pytest

from fglcalc.coefficients import (
    GaussianRationals,
    PowerSeries,
    Rationals,
    quotient_ring,
)
from fglcalc.equivariant import additive_context, multiplicative_context
from fglcalc.errors import NonConvergentError, PoleError, TruncationError
from fglcalc.fgl import additive_law, from_series, multiplicative_law
from fglcalc.genus import (
    ahat_series,
    c1_trivial_block,
    chi_residue,
    cp,
    euler_characteristic,
    genus_eval,
    loop_genus,
    loop_genus_sigma,
    loop_genus_sine,
    loop_genus_unrenormalized,
    loop_vs_quotient_check,
    point,
    product_data,
    rr_transform,
    todd_series_of,
)
from fglcalc.polyseries import series

from oracles import (
    AHAT_CP1XCP1,
    AHAT_CP2,
    ahat_density,
    genus_cp,
    genus_cp1xcp1,
    todd_density,
    witten_block_oracle,
)

QQ = Rationals()


def cp1xcp1():
    return product_data(cp(1, "h1"), cp(1, "h2"))


# --------------------------------------------------------- basic genera


def test_euler_characteristics():
    assert euler_characteristic(point()).data == Fraction(1)
    for n in range(1, 7):
        assert euler_characteristic(cp(n)).data == Fraction(n + 1)
    assert euler_characteristic(cp1xcp1()).data == Fraction(4)


def test_dimension_and_vars():
    assert cp(3).dimension == 3
    assert cp1xcp1().dimension == 2
    assert cp1xcp1().vars == ("h1", "h2")
    assert point().dimension == 0


def test_todd_genus_of_projective_spaces():
    for n in range(1, 7):
        # the density x/exp(x) loses one order relative to the law
        td = todd_series_of(multiplicative_law(QQ, n + 1))
        assert td.trunc == n
        assert genus_eval(cp(n), td).data == Fraction(1)
        # cross-check the density itself against the classical expansion
        oracle = todd_density(n + 1)
        for k in range(n + 1):
            assert td.coefficient([k]) == oracle[k]


def test_todd_genus_matches_dense_oracle():
    td = todd_series_of(multiplicative_law(QQ, 6))
    dens = [td.coefficient([k]) for k in range(6)]
    for n in range(1, 6):
        assert genus_eval(cp(n), td.with_trunc(n)).data == genus_cp(n, dens)


def test_ahat_values():
    A2 = ahat_series(2)
    assert genus_eval(cp(1), A2.with_trunc(1)).data == Fraction(0)
    assert genus_eval(cp(2), A2).data == Fraction(-1, 8)
    assert genus_eval(cp1xcp1(), A2).data == Fraction(0)
    # frozen against Pontryagin-number arithmetic done independently
    assert genus_eval(cp(2), A2).data == AHAT_CP2
    assert genus_eval(cp1xcp1(), A2).data == AHAT_CP1XCP1


def test_ahat_series_against_oracle():
    A = ahat_series(4)
    oracle = ahat_density(5)
    for k in range(5):
        assert A.coefficient([k]) == oracle[k]
    dens = [A.coefficient([k]) for k in range(5)]
    assert genus_eval(cp1xcp1(), A.with_trunc(2)).data == genus_cp1xcp1(dens)


def test_genus_eval_needs_enough_truncation():
    with pytest.raises(TruncationError):
        genus_eval(cp(3), ahat_series(2))


def test_additive_todd_is_trivial():
    # x/exp_Ga(x) = 1, so the genus is the top Chern coefficient of 1
    td = todd_series_of(additive_law(QQ, 4))
    assert genus_eval(cp(2), td.with_trunc(2)).data == Fraction(0)
    assert genus_eval(point(), td.with_trunc(0)).data == Fraction(1)


# ------------------------------------------------ symbolic Riemann-Roch


def symbolic_theta(T):
    R = quotient_ring(QQ, ["a", "b"], {"a": None, "b": None})
    c = series(R, ("x",), T)
    x = c.var("x")
    th = (
        x
        + c.const(R.wrap(R.gen_payload("a"))) * x**2
        + c.const(R.wrap(R.gen_payload("b"))) * x**3
    )
    return R, th


@pytest.mark.parametrize("law_name", ["ga", "gm"])
@pytest.mark.parametrize("mfd", ["cp1", "cp2", "cp1xcp1"])
def test_rr_transform_symbolic(law_name, mfd):
    T = 6
    R, th = symbolic_theta(T)
    F = additive_law(R, T) if law_name == "ga" else multiplicative_law(R, T)
    X = {"cp1": cp(1), "cp2": cp(2), "cp1xcp1": cp1xcp1()}[mfd]
    lhs, rhs = rr_transform(X, F, th)
    assert lhs.data == rhs.data


def test_rr_transform_frozen_values():
    T = 6
    R, th = symbolic_theta(T)
    lhs, _ = rr_transform(cp(1), additive_law(R, T), th)
    # genus of cp1 against x/theta(x) = 1 - a x + ...: coefficient of
    # h in (1 - a h + ...)^2 is -2a
    assert lhs.data == {(1, 0): Fraction(-2)}
    lhs_m, _ = rr_transform(cp(2), multiplicative_law(R, T), th)
    assert lhs_m.data == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(-3),
        (1, 0): Fraction(-3),
        (2, 0): Fraction(6),
    }


def test_rr_transform_trivial_theta_is_plain_genus():
    T = 5
    c = series(QQ, ("x",), T)
    th = c.var("x")
    F = multiplicative_law(QQ, T)
    lhs, rhs = rr_transform(cp(2), F, th)
    assert lhs.data == rhs.data == Fraction(1)


# ----------------------------------------------------- loop-space genus


def ga_ctx():
    return additive_context(trunc=6, qhat_order=2, tail=12, unit_bound=3)


def test_loop_genus_additive_cp2_frozen():
    # x/Theta(x) at cutoff 3 is prod_{k=1..3} (1 - x^2/(k qh)^2)^{-1};
    # the h^2 coefficient of its cube is 3(1 + 1/4 + 1/9) = 49/12
    val = loop_genus(cp(2), ga_ctx(), 3)
    assert val.data == {-2: Fraction(49, 12)}


def test_loop_genus_additive_cp1_vanishes():
    # odd-degree coefficient of an even density
    val = loop_genus(cp(1), ga_ctx(), 3)
    assert val.data == {}


def test_loop_genus_unrenormalized_diverges_with_cutoff():
    # without the division-point normalization the density carries the
    # prefactor prod_{0<|k|<=3}(k qh)^{-1} = -(36 qh^6)^{-1}; for cp2 the
    # answer is -(49/12) / 36^3 at qh^{-20} instead of 49/12 at qh^{-2}
    ctx = additive_context(trunc=6, qhat_order=16, tail=24, unit_bound=3)
    val = loop_genus_unrenormalized(cp(2), ctx, 3)
    assert val.data == {-20: Fraction(-49, 559872)}
    ren = loop_genus(cp(2), ctx, 3)
    assert ren.data == {-2: Fraction(49, 12)}
    # the two differ by the cutoff-dependent unit -(36 qh^6)^{-3}: the
    # unrenormalized family cannot converge as the cutoff grows
    assert val.data != ren.data


def test_loop_vs_quotient_additive():
    ctx = ga_ctx()
    assert loop_vs_quotient_check(cp(1), ctx, 3)
    assert loop_vs_quotient_check(cp(2), ctx, 3)


def test_loop_vs_quotient_multiplicative_whole_window():
    # every stored coefficient of the tight window [-3, 6] is compared
    ctx = multiplicative_context(trunc=4, q_order=6, tail=3, unit_bound=3)
    assert loop_vs_quotient_check(cp(2), ctx, 3)


def non_exact_ga(trunc, qhat_order):
    # the additive law re-read from its series: no longer marked exact,
    # so theta checks the law truncation against the division points
    ctx = additive_context(trunc=trunc, qhat_order=qhat_order, tail=24, unit_bound=3)
    return replace(ctx, law=from_series(ctx.law.law))


@pytest.mark.parametrize("trunc", (6, 8, 10))
@pytest.mark.parametrize("qhat_order", (2, 3))
def test_loop_vs_quotient_non_exact_law(trunc, qhat_order):
    ctx = non_exact_ga(trunc, qhat_order)
    assert not ctx.law.exact
    assert loop_vs_quotient_check(cp(1), ctx, 3)
    assert loop_vs_quotient_check(cp(2), ctx, 3)
    assert loop_genus(cp(2), ctx, 3).data == {-2: Fraction(49, 12)}


def test_loop_genus_refuses_a_law_too_short():
    # at qhat-order 4 the division points die only at the fifth power, so
    # x-degree 3 needs law truncation 3 + 5 - 1 = 7 > 6
    ctx = non_exact_ga(6, 4)
    with pytest.raises(TruncationError, match="law truncation 6 too small"):
        loop_genus(cp(2), ctx, 3)
    with pytest.raises(TruncationError, match="law truncation 6 too small"):
        loop_vs_quotient_check(cp(2), ctx, 3)


def test_loop_genus_sine_closed_form():
    QI = GaussianRationals()
    for X in (cp(1), cp(2), cp1xcp1()):
        d = X.dimension
        got = loop_genus_sine(X, 4)
        # (2i t)^d times the classical ahat value
        ahat = genus_eval(X, ahat_series(2).with_trunc(d)).data
        tring = PowerSeries(QI, "t", 4)
        two_i = QI.mul(QI.from_int(2), QI.i())
        scalar = QI.mul(QI.pow(two_i, d), QI.from_fraction(ahat))
        expect = {d: scalar} if not QI.is_zero(scalar) else {}
        assert got.ring == tring
        assert got.data == expect, X.name


def test_loop_genus_sine_cp2_frozen():
    got = loop_genus_sine(cp(2), 4)
    # (2it)^2 * (-1/8) = t^2/2
    assert got.data == {2: (Fraction(1, 2), Fraction(0))}


def test_loop_genus_sigma_needs_vanishing_first_chern():
    with pytest.raises(NonConvergentError):
        loop_genus_sigma(cp(2), 4)


def test_loop_genus_sigma_matches_bivariate_oracle():
    X = c1_trivial_block(4)
    assert X.first_chern_vanishes()
    got = loop_genus_sigma(X, 6)
    assert got.data == witten_block_oracle(6)


# ----------------------------------------------------- residue formulas


def test_chi_residue_half_twist():
    # r = 1/2: sin(pi/2) = 1, so the residue is t^d chi(X)
    assert chi_residue(cp(1), Fraction(1, 2)).data == {1: Fraction(2)}
    assert chi_residue(cp(2), Fraction(1, 2)).data == {2: Fraction(3)}
    assert chi_residue(cp1xcp1(), Fraction(1, 2)).data == {2: Fraction(4)}
    assert chi_residue(point(), Fraction(1, 2)).data == {0: Fraction(1)}


def test_chi_residue_irrational_sine_values():
    # sin(pi/3) = w/2 with w^2 = 3: chi(cp1) * t/sin = 4/w = (4/3) w
    got = chi_residue(cp(1), Fraction(1, 3))
    assert got.data == {1: {(1,): Fraction(4, 3)}}
    # sin(pi/4) = w/2 with w^2 = 2: 2 * 2/w = 2w
    got4 = chi_residue(cp(1), Fraction(1, 4))
    assert got4.data == {1: {(1,): Fraction(2)}}
    # sin(5 pi/6) = 1/2: (2t)^2 * 3 = 12 t^2
    got6 = chi_residue(cp(2), Fraction(5, 6))
    assert got6.data == {2: {(0,): Fraction(12)}}


def test_chi_residue_integral_twist_is_a_pole():
    with pytest.raises(PoleError):
        chi_residue(cp(1), Fraction(1))
    with pytest.raises(PoleError):
        chi_residue(cp(2), Fraction(-2))
