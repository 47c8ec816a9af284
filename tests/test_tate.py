"""Renormalized theta products, sigma expansions, Tate-style groups."""

from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from fglcalc.coefficients import (
    IntegersMod,
    LaurentPolynomials,
    LaurentSeries,
    PowerSeries,
    Rationals,
    quotient_ring,
)
from fglcalc.fgl import additive_law, law_apply, multiplicative_law, n_series_element
from fglcalc.tate import (
    TateGroup,
    TatePoint,
    division_points,
    exact_sequence_check,
    sigma_in_x,
    sigma_modified,
    sigma_series,
    sigma_substitute_L,
    sine_series,
    theta_multiplicative_L,
    theta_series,
    theta_vanishes_at,
)

from oracles import (
    series_L_window,
    sigma_in_x_oracle,
    sigma_oracle,
    tate_inv_by_carry_branch,
    tate_mul_by_carry_branch,
    tate_reduce_by_inverted_shift,
    theta_cutoff_oracle,
)

QQ = Rationals()


# ---------------------------------------------------------------- theta


def test_additive_theta_weight_homogeneous():
    # over Q[[qh]] with x and qh both weight 1 every theta coefficient is
    # a single monomial in qh
    R = LaurentSeries(QQ, "qh", 4, 20)
    qhat = R.wrap(R.param_payload(1))
    Fa = additive_law(R, 5)
    th = theta_series(Fa, qhat, 2, 5)
    assert th.cutoff == 2
    # Theta(x) = x(x^2 - qh^2)(x^2 - 4 qh^2) / (4 qh^4)
    #          = x - (5/4) qh^{-2} x^3 + (1/4) qh^{-4} x^5
    assert th.series.coefficient([1]).data == {0: Fraction(1)}
    assert th.series.coefficient([2]).is_zero()
    assert th.series.coefficient([3]).data == {-2: Fraction(-5, 4)}
    assert th.series.coefficient([5]).data == {-4: Fraction(1, 4)}


def test_theta_vanishes_at_division_points():
    R = LaurentSeries(QQ, "qh", 8, 40)
    qhat = R.wrap(R.param_payload(1))
    Fa = additive_law(R, 7)
    th = theta_series(Fa, qhat, 3, 7)
    for k in range(-3, 4):
        if k == 0:
            continue
        assert theta_vanishes_at(th, k)
    # outside the cutoff nothing is claimed; vanishing fails honestly
    assert not theta_vanishes_at(th, 4)


def test_division_points_additive():
    R = LaurentSeries(QQ, "qh", 4, 8)
    qhat = R.wrap(R.param_payload(1))
    Fa = additive_law(R, 4)
    pts = division_points(Fa, qhat, 2)
    assert pts[1].data == {1: Fraction(1)}
    assert pts[-2].data == {1: Fraction(-2)}


# ---------------------------------------------------------------- sigma


def test_sigma_series_low_order_rows():
    # the triple-product kernel against the infinite product, every
    # (q, L) entry in both directions
    for N in (3, 12, 24):
        s = sigma_series(N)
        oracle = sigma_oracle(N)
        for (qe, le), val in oracle.items():
            assert s.data.get(qe, {}).get(le, Fraction(0)) == val, (N, qe, le)
        # and nothing extra beyond the oracle window
        for qe, row in s.data.items():
            for le, val in row.items():
                assert oracle.get((qe, le), Fraction(0)) == val, (N, qe, le)


@pytest.mark.parametrize(
    "r",
    [Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 2)],
    ids=str,
)
def test_sigma_modified_matches_shifted_oracle(r):
    # sigma[L, r] = q^{-T} (-L)^m sigma(L, q), m = floor(r), T = m(m+1)/2
    q_order = 8
    m = r.numerator // r.denominator
    T = m * (m + 1) // 2
    expected = {}
    for (qe, le), val in sigma_oracle(q_order + T).items():
        if qe - T <= q_order:
            expected[(qe - T, le + m)] = val * (-1 if m % 2 else 1)
    got = sigma_modified(r, q_order)
    flat = {(qe, le): c for qe, row in got.data.items() for le, c in row.items()}
    assert flat == expected


def test_sigma_in_x_matches_product_oracle():
    sx = sigma_in_x(6, PowerSeries(QQ, "q", 8))
    flat = {(qe, j): c for (j,), row in sx.terms.items() for qe, c in row.items()}
    assert flat == sigma_in_x_oracle(6, 8)


def test_sigma_functional_equation():
    # sigma(qL, q) = (-L)^{-1} sigma(L, q): multiply the shifted series
    # by -L and compare on the L-window [-6, 6] up to q-order 8
    q_order, q_tail = 8, 14
    s = sigma_series(q_order + 8)
    base = sigma_substitute_L(s, 0, q_order, q_tail)
    shifted = sigma_substitute_L(s, 1, q_order, q_tail)
    R = shifted.ring
    lhs = R.wrap(R.mul(shifted.data, R.normalize({0: {1: -1}})))
    win_l = series_L_window(lhs, -6, 6)
    win_r = series_L_window(base, -6, 6)
    for qe in range(q_order + 1):
        assert win_l.data.get(qe, {}) == win_r.data.get(qe, {}), qe


def test_sigma_functional_equation_iterated():
    # sigma(q^j L) = (-1)^j L^{-j} q^{-j(j-1)/2} sigma(L) for small j;
    # equivalently shifted * (-1)^j L^j q^{j(j-1)/2} == base.  Source
    # order is generous so every compared window entry is complete.
    q_order, q_tail = 8, 14
    s = sigma_series(q_order + 18)
    base = sigma_substitute_L(s, 0, q_order, q_tail)
    for j in (-2, -1, 2):
        shifted = sigma_substitute_L(s, j, q_order, q_tail)
        R = shifted.ring
        mult = {j * (j - 1) // 2: {j: -1 if j % 2 else 1}}  # (-1)^j as an int
        lhs = R.wrap(R.mul(shifted.data, R.normalize(mult)))
        win_l = series_L_window(lhs, -6, 6)
        win_r = series_L_window(base, -6, 6)
        for qe in range(q_order + 1):
            assert win_l.data.get(qe, {}) == win_r.data.get(qe, {}), (j, qe)


def test_theta_multiplicative_matches_sigma():
    # Theta(x)/x in L = 1 - x, renormalized by L^{-N}, agrees with the
    # sigma expansion to q-order N
    for N in (3, 4):
        raw, normalized = theta_multiplicative_L(N, N)
        s = sigma_series(N)
        for qe in range(N + 1):
            assert normalized.data.get(qe, {}) == s.data.get(qe, {}), (N, qe)


@pytest.mark.parametrize(
    "cutoff,q_order",
    [(1, 0), (1, 30), (2, 1), (3, 17), (4, 2), (5, 25), (6, 6), (7, 4), (8, 8), (8, 30)],
)
def test_theta_multiplicative_matches_cutoff_oracle(cutoff, q_order):
    # the raw and normalized products, every (q, L) entry, at q-orders
    # below, at and far above the cutoff
    raw, normalized = theta_multiplicative_L(cutoff, q_order)
    want_raw, want_normalized = theta_cutoff_oracle(cutoff, q_order)

    def flat(el):
        return {(qe, le): c for qe, row in el.data.items() for le, c in row.items()}

    assert flat(raw) == want_raw
    assert flat(normalized) == want_normalized


def test_sine_series_closed_form():
    # sin(t x)/t = x - t^2 x^3/6 + t^4 x^5/120
    f = sine_series(5, 4)
    c3 = f.coefficient([3]).data
    c5 = f.coefficient([5]).data
    assert c3 == {2: Fraction(-1, 6)}
    assert c5 == {4: Fraction(1, 120)}
    assert f.coefficient([2]).is_zero()


# ---------------------------------------------------------------- groups


def artin_group(mod, nil=2, unit=1, law="gm"):
    R = quotient_ring(IntegersMod(mod), ["e"], {"e": (2, {})})
    qhat = R.wrap(R.mul(R.from_int(unit), R.gen_payload("e")))
    F = (
        multiplicative_law(R, 3)
        if law == "gm"
        else additive_law(R, 3)
    )
    return TateGroup(F, qhat), R


def test_group_identity_and_inverse():
    # 3 is nilpotent mod 9, so (3, 1/3) is a legitimate formal point
    G, R = artin_group(9, law="ga")
    p = G.point(R.wrap(R.from_int(3)), Fraction(1, 3))
    q = G.inv(p)
    assert G.eq(G.mul(p, q), G.identity())
    # non-nilpotent coordinates are refused outright
    with pytest.raises(ValueError):
        G.point(R.wrap(R.from_int(2)), Fraction(1, 3))


def test_carry_branches_both_directions():
    G, R = artin_group(4)
    # fractional parts adding beyond 1 trigger the carry that subtracts qhat
    a = G.point(R.wrap(R.zero()), Fraction(2, 3))
    b = G.point(R.wrap(R.zero()), Fraction(2, 3))
    ab = G.mul(a, b)
    assert ab.a == Fraction(1, 3)
    # no carry when the sum stays below 1
    c = G.point(R.wrap(R.zero()), Fraction(1, 4))
    d = G.mul(c, c)
    assert d.a == Fraction(1, 2)


def test_kernel_points_reduce_to_identity():
    # ([n](qhat), n) represents the identity coset for every integer n
    G, R = artin_group(9, law="gm")
    for n in (-3, -1, 1, 2, 4):
        val = n_series_element(G.law, n, G.qhat)
        p = G.reduce_pair(val, Fraction(n))
        assert G.eq(p, G.identity())


def test_power_and_torsion_order():
    G, R = artin_group(9, law="ga")
    # e has additive order 9 in Z/9[e]/(e^2) with qhat = e: the group is
    # (R, +)/(Z qhat) so e itself is 9-torsion
    p = G.point(R.wrap(R.gen_payload("e")), Fraction(0))
    assert G.torsion_order(p, cap=64) == 9
    assert G.eq(G.power(p, 9), G.identity())
    assert not G.eq(G.power(p, 3), G.identity())


@pytest.mark.parametrize("law", ["ga", "gm"])
def test_power_negative_is_repeated_inverse(law):
    G, R = artin_group(9, law=law)
    p = G.point(R.wrap(R.add(R.from_int(3), R.gen_payload("e"))), Fraction(2, 5))
    acc = G.identity()
    for n in range(1, 8):
        acc = G.mul(acc, G.inv(p))
        got = G.power(p, -n)
        assert G.eq(got, acc), n
        assert G.eq(G.mul(got, G.power(p, n)), G.identity()), n


def test_reduce_pair_canonical_form():
    G, R = artin_group(4)
    p = G.reduce_pair(R.wrap(R.zero()), Fraction(7, 3))
    assert p.a == Fraction(1, 3)
    # the point constructor itself refuses out-of-range rational parts
    with pytest.raises(ValueError):
        TatePoint(R.wrap(R.zero()), Fraction(7, 3))


def test_exact_sequence_check_explicit_samples():
    # coordinates drawn from the nilpotent part 3Z/9 + (Z/9)e
    G, R = artin_group(9, law="gm")
    e = R.gen_payload("e")
    samples = [
        (R.wrap(R.add(R.from_int(k), R.mul(R.from_int(c), e))), Fraction(n, d))
        for k in (0, 3, 6)
        for c in (0, 2, 7)
        for n, d in ((0, 1), (1, 2), (2, 3), (5, 6))
    ]
    report = exact_sequence_check(G, samples, integer_range=3)
    assert report.ok, report.failures
    assert report.checked >= len(samples)


def test_exact_sequence_check_unit_rescaled_qhat():
    # the sequence clauses are relative to the group's own qhat, so a
    # unit multiple of the nilpotent generator works equally well
    R = quotient_ring(IntegersMod(9), ["e"], {"e": (2, {})})
    scaled = TateGroup(
        multiplicative_law(R, 3),
        R.wrap(R.mul(R.from_int(2), R.gen_payload("e"))),
    )
    samples = [
        (R.wrap(R.from_int(3)), Fraction(1, 2)),
        (R.wrap(R.gen_payload("e")), Fraction(3, 4)),
    ]
    report = exact_sequence_check(scaled, samples)
    assert report.ok, report.failures


@settings(derandomize=True, max_examples=50)
@given(
    st.integers(0, 2),
    st.integers(0, 8),
    st.integers(0, 2),
    st.integers(0, 8),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
    st.fractions(min_value=0, max_value=1, max_denominator=6),
)
def test_group_commutes_and_associates(k1, c1, k2, c2, a1, a2):
    G, R = artin_group(9, law="gm")
    e = R.gen_payload("e")

    def nil(k, c):
        return R.wrap(R.add(R.from_int(3 * k), R.mul(R.from_int(c), e)))

    p = G.reduce_pair(nil(k1, c1), a1)
    q = G.reduce_pair(nil(k2, c2), a2)
    assert G.eq(G.mul(p, q), G.mul(q, p))
    r = G.point(R.wrap(e), Fraction(1, 2))
    assert G.eq(G.mul(G.mul(p, q), r), G.mul(p, G.mul(q, r)))


# the CLI's Artin rings Z/n[e]/(e^2) with qhat = unit * e, and the prime p
# of which n is a power, so that g = p k + c e is nilpotent: a formal point
ARTIN = {"z4": (4, 2, 2), "z8": (8, 2, 2), "z9": (9, 3, 3)}


class ShiftByPlusFloor(TateGroup):
    """A wrong reduction: translates by [+floor a](qhat)."""

    def reduce_pair(self, x, a):
        a = Fraction(a)
        m = a.numerator // a.denominator
        if m:
            x = law_apply(self.law, x, n_series_element(self.law, m, self.qhat))
        return TatePoint(x, a - m)


def agrees_with_carry_branches(group_class):
    """reduce_pair, mul and inv of group_class against the carry written
    per operation, over z4, z8 and z9 with ga and gm, for rational parts
    in [-3, 3), so that floor a is negative, zero and positive."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(
        lambda a: a < 3
    )

    # no shrinking: the wrong reduction must fail fast, not minimally
    @settings(
        derandomize=True,
        max_examples=200,
        database=None,
        phases=(Phase.explicit, Phase.generate),
        report_multiple_bugs=False,
    )
    @given(
        st.sampled_from(sorted(ARTIN)),
        st.sampled_from(("ga", "gm")),
        st.tuples(st.integers(0, 8), st.integers(0, 8), rationals),
        st.tuples(st.integers(0, 8), st.integers(0, 8), rationals),
    )
    def check(artin, law, u, v):
        mod, unit, p = ARTIN[artin]
        G, R = artin_group(mod, unit=unit, law=law)
        G = group_class(G.law, G.qhat)
        e = R.gen_payload("e")
        reduced = []
        for k, c, a in (u, v):
            x = R.wrap(R.add(R.from_int(p * k), R.mul(R.from_int(c), e)))
            got = G.reduce_pair(x, a)
            assert (got.g, got.a) == tate_reduce_by_inverted_shift(G, x, a)
            reduced.append(got)
        P, Q = reduced
        got = G.mul(P, Q)
        assert (got.g, got.a) == tate_mul_by_carry_branch(G, P, Q)
        got = G.inv(P)
        assert (got.g, got.a) == tate_inv_by_carry_branch(G, P)

    check()


def test_tate_ops_agree_with_carry_branches():
    agrees_with_carry_branches(TateGroup)


def test_carry_branch_check_catches_plus_floor_shift():
    with pytest.raises(AssertionError):
        agrees_with_carry_branches(ShiftByPlusFloor)
