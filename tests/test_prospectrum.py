"""Thom-class towers over the equivariant contexts and their stabilization."""

from fractions import Fraction

import pytest

from fglcalc.coefficients import PowerSeries, Rationals
from fglcalc.equivariant import additive_context, bundle, multiplicative_context
from fglcalc.errors import NonConvergentError, NotAUnitError
from fglcalc.prospectrum import (
    omega,
    push_class,
    relative_omega,
    stabilize,
    tower,
    tower_class_eq,
    transition,
    unit_u,
)
from fglcalc.polyseries import series as mk_series
from fglcalc.tate import theta_series

from oracles import stabilize_scan_oracle

QQ = Rationals()


def ga_tower(blocks, trunc=3, depth=60, unit_bound=6):
    ctx = additive_context(
        trunc=trunc, qhat_order=depth, tail=depth, unit_bound=unit_bound
    )
    return tower(ctx, bundle(ctx, blocks)), ctx


def gm_tower(blocks, trunc=3, depth=90, unit_bound=6):
    ctx = multiplicative_context(
        trunc=trunc, q_order=depth, tail=depth, unit_bound=unit_bound
    )
    return tower(ctx, bundle(ctx, blocks)), ctx


def test_transition_rank_one_trivial():
    T, _ = ga_tower([(None, 0, 1)], depth=10, unit_bound=2)
    t1 = transition(T, 1)
    # e(V(1)) e(V(-1)) = qh * (-qh) = -qh^2
    assert t1.coefficient([]).data == {2: Fraction(-1)}
    Tm, _ = gm_tower([(None, 0, 1)], depth=10, unit_bound=2)
    tm1 = transition(Tm, 1)
    assert tm1.coefficient([]).data == {
        -1: Fraction(-1),
        0: Fraction(2),
        1: Fraction(-1),
    }


def test_unit_u_closed_form():
    T, _ = ga_tower([(None, 0, 1)], depth=12, unit_bound=2)
    u2 = unit_u(T, 2)
    # prod over 0<|k|<=2 of k qh = 4 qh^4
    assert u2.coefficient([]).data == {4: Fraction(4)}
    u0 = unit_u(T, 0)
    assert u0.coefficient([]).data == {0: Fraction(1)}


def test_unit_u_requires_localization():
    ctx = additive_context(
        trunc=3, qhat_order=10, tail=10, localized=False, unit_bound=2
    )
    T = tower(ctx, bundle(ctx, [(None, 0, 1)]))
    with pytest.raises(NotAUnitError):
        unit_u(T, 1)


SHAPES = [
    [(None, 0, 1)],
    [(None, 0, 2)],
    [("h", 0, 1)],
    [("h", 0, 1), (None, 0, 1)],
]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("law", ["ga", "gm"])
def test_tower_identity_up_to_six(shape, law):
    # u_n * transition(n+1) = u_{n+1}: classes agree after pushing up
    T, ctx = ga_tower(shape) if law == "ga" else gm_tower(shape)
    s = unit_u(T, 0).one()
    classes = [omega(T, n, s) for n in range(7)]
    for n in range(6):
        pushed = push_class(T, classes[n], n + 1)
        assert pushed.value == classes[n + 1].value, (law, n)
    # and the wrapper agrees across any pair of stages
    assert tower_class_eq(T, classes[2], classes[6])
    assert tower_class_eq(T, classes[5], classes[1])


def test_tower_class_eq_detects_mismatch():
    T, _ = ga_tower([(None, 0, 1)], depth=20, unit_bound=3)
    s = unit_u(T, 0).one()
    w1 = omega(T, 1, s)
    w2 = omega(T, 2, s)
    assert not tower_class_eq(T, w1, TowerClassShift(w2))


def TowerClassShift(c):
    # helper constructing a deliberately wrong class at the same stage
    from fglcalc.prospectrum import TowerClass

    return TowerClass(c.stage, c.value + c.value)


def test_relative_omega_matches_theta():
    ctx = additive_context(trunc=3, qhat_order=10, tail=10, unit_bound=2)
    T = tower(ctx, bundle(ctx, [("x", 0, 1)]))
    ro = relative_omega(T, 1)
    assert dict(ro.sorted_terms()) == {
        (0,): {0: Fraction(1)},
        (2,): {-2: Fraction(-1)},
    }
    # x * relative_omega = Theta(x) at the same cutoff
    th = theta_series(ctx.law, ctx.qhat, 1, 3).series
    xs = mk_series(ctx.ring, ("x",), ro.trunc).var("x")
    assert (ro * xs).sorted_terms() == th.sorted_terms()


def divisor_sum(k):
    return sum(d for d in range(1, k + 1) if k % d == 0)


def test_stabilize_multiplicative_rank_one():
    # the stable x^2 coefficient is the divisor-sum series -sum sigma_1(k) q^k
    for q_order in (3, 4, 5, 6):
        T, _ = gm_tower([("x", 0, 1)], trunc=4, depth=10, unit_bound=3)
        n_stable, val = stabilize(T, q_order)
        assert n_stable == q_order
        assert n_stable <= q_order + 1
        qring = PowerSeries(QQ, "q", q_order)
        assert val.ring == qring
        assert val.coefficient([1]).is_zero()
        c2 = val.coefficient([2]).data
        assert c2 == {
            k: Fraction(-divisor_sum(k)) for k in range(1, q_order + 1)
        }


def test_stabilize_zero_q_order_is_immediate():
    T, _ = gm_tower([("x", 0, 1)], trunc=4, depth=10, unit_bound=3)
    n_stable, val = stabilize(T, 0)
    assert n_stable == 0
    assert val.coefficient([0]).is_unit()


def test_stabilize_rank_two():
    T, _ = gm_tower([("x", 0, 1), ("y", 0, 1)], trunc=3, depth=12, unit_bound=3)
    n_stable, val = stabilize(T, 3)
    assert n_stable <= 4
    assert set(val.vars) == {"x", "y"}


@pytest.mark.parametrize(
    "blocks",
    [[("x", 0, 1)], [("x", 0, 2)], [("x", 0, 1), ("y", 0, 1)], [(None, 0, 1)]],
    ids=["x:0:1", "x:0:2", "x:0:1,y:0:1", "none:0:1"],
)
def test_stabilize_sigma_matches_the_partial_product_scan(blocks):
    # the closed form and its n_stable against the scan it replaces
    T, _ = gm_tower(blocks, trunc=4, depth=10, unit_bound=2)
    mults = [m for r, _, m in blocks if r is not None]
    for trunc in range(5):
        for q_order in range(7):
            n_stable, val = stabilize(T, q_order, "sigma", trunc)
            want_n, want = stabilize_scan_oracle(mults, trunc, q_order)
            got = {(qe, exps): c for exps, row in val.terms.items() for qe, c in row.items()}
            assert (n_stable, got) == (want_n, want), (trunc, q_order)


def test_stabilize_additive_sine_normalization():
    T, _ = ga_tower([("x", 0, 1)], trunc=4, depth=12, unit_bound=3)
    n_stable, val = stabilize(T, 6, normalization="sine")
    assert n_stable == 6
    # sin(t x)/(t x) = 1 - (tx)^2/6 + (tx)^4/120
    assert val.coefficient([0]).data == {0: Fraction(1)}
    assert val.coefficient([2]).data == {2: Fraction(-1, 6)}
    assert val.coefficient([4]).data == {4: Fraction(1, 120)}


def test_stabilize_mode_guards():
    Tg, _ = ga_tower([("x", 0, 1)], trunc=3, depth=10, unit_bound=2)
    with pytest.raises(NonConvergentError):
        stabilize(Tg, 3)  # sigma normalization needs the multiplicative law
    Tm, _ = gm_tower([("x", 0, 1)], trunc=3, depth=10, unit_bound=2)
    with pytest.raises(NonConvergentError):
        stabilize(Tm, 3, normalization="sine")
    with pytest.raises(NonConvergentError):
        stabilize(Tm, 3, normalization="raw")
    # raw succeeds only for rank zero
    T0, _ = gm_tower([], trunc=3, depth=8, unit_bound=2)
    n_stable, val = stabilize(T0, 3, normalization="raw")
    assert n_stable == 0
