"""Quotients by finite subgroups via the isogeny product construction."""

from fractions import Fraction

import pytest

from fglcalc.coefficients import IntegersMod, Rationals, quotient_ring
from fglcalc.errors import NotAUnitError
from fglcalc.fgl import (
    additive_law,
    check_law_axioms,
    is_homomorphism,
    multiplicative_law,
)
from fglcalc.quotient import (
    SubgroupPoints,
    lubin_coordinate,
    lubin_isogeny,
    quotient_law,
    subgroup_check,
)

from oracles import quotient_law_two_step

QQ = Rationals()


def cube_roots_subgroup(trunc=10):
    # adjoin a primitive cube root of unity: z^2 = -1 - z
    R = quotient_ring(
        QQ, ["z"], {"z": (2, {(0,): Fraction(-1), (1,): Fraction(-1)})}
    )
    Fm = multiplicative_law(R, trunc)
    z = R.gen_payload("z")
    # the three points x with 1 - x a cube root of unity: 0, 1-z, 2+z
    pts = [
        R.wrap(R.zero()),
        R.wrap(R.sub(R.one(), z)),
        R.wrap(R.add(R.from_int(2), z)),
    ]
    return SubgroupPoints(Fm, tuple(pts)), R


def additive_p_subgroup(p, trunc=None):
    # kernel of Frobenius twisted by a free parameter h over F_p
    R = quotient_ring(IntegersMod(p), ["h"], {"h": None})
    Fa = additive_law(R, trunc if trunc is not None else 2 * p)
    h = R.gen_payload("h")
    pts = [R.wrap(R.mul(R.from_int(k), h)) for k in range(p)]
    return SubgroupPoints(Fa, tuple(pts)), R


def test_subgroup_check_cube_roots():
    H, _ = cube_roots_subgroup()
    ok, why = subgroup_check(H)
    assert ok, why


def test_subgroup_check_rejects_non_closed():
    R = quotient_ring(
        QQ, ["z"], {"z": (2, {(0,): Fraction(-1), (1,): Fraction(-1)})}
    )
    Fm = multiplicative_law(R, 8)
    z = R.gen_payload("z")
    pts = (R.wrap(R.zero()), R.wrap(R.sub(R.one(), z)))  # missing third point
    ok, why = subgroup_check(SubgroupPoints(Fm, pts))
    assert not ok
    assert why


def test_cube_roots_isogeny_closed_form():
    H, R = cube_roots_subgroup(trunc=10)
    f = lubin_isogeny(H)
    # product over the subgroup collapses to 1 - (1-x)^3
    assert f.coefficient([1]) == R.wrap(R.from_int(3))
    assert f.coefficient([2]) == R.wrap(R.from_int(-3))
    assert f.coefficient([3]) == R.wrap(R.one())
    assert len(f.sorted_terms()) == 3


def test_cube_roots_quotient_is_multiplicative_law():
    H, R = cube_roots_subgroup(trunc=10)
    Q = quotient_law(H)
    check_law_axioms(Q.law.law)
    # the quotient of the multiplicative law by mu_3 is multiplicative again
    expect = multiplicative_law(R, 10)
    assert Q.law.law.sorted_terms() == expect.law.sorted_terms()
    assert is_homomorphism(Q.isogeny, H.law, Q.law)


def test_additive_p_subgroup_isogeny():
    for p in (3, 5):
        H, R = additive_p_subgroup(p)
        ok, why = subgroup_check(H)
        assert ok, why
        f = lubin_isogeny(H)
        # f(x) = x^p - h^{p-1} x
        terms = dict(f.sorted_terms())
        assert set(terms) == {(1,), (p,)}
        assert terms[(p,)] == R.one()
        hpow = R.one()
        for _ in range(p - 1):
            hpow = R.mul(hpow, R.gen_payload("h"))
        assert terms[(1,)] == R.neg(hpow)


def test_additive_p_isogeny_is_additive_endomorphism():
    # f(x) = x^p - h^{p-1} x is additive mod p, so it maps the additive
    # law to itself; the full quotient is refused because f'(0) = -h^{p-1}
    # is not a unit while h stays a free parameter
    H, _ = additive_p_subgroup(3, trunc=10)
    f = lubin_isogeny(H)
    assert is_homomorphism(f, H.law, H.law)
    with pytest.raises(NotAUnitError):
        quotient_law(H)


@pytest.mark.parametrize("trunc", range(9))
def test_quotient_law_matches_two_step_transport(trunc):
    # one transport along f_H against transport along g_H, then along
    # t(x) = f_H'(0) x: the same law, term for term
    H, _ = cube_roots_subgroup(trunc)
    assert quotient_law(H).law.law == quotient_law_two_step(H).law


def test_quotient_scale_normalizes_derivative():
    # f'(0) = 3 for mu_3; the coordinate is the isogeny with slope
    # renormalized to 1
    H, R = cube_roots_subgroup(trunc=8)
    Q = quotient_law(H)
    assert Q.scale.data == R.from_int(3)
    assert Q.coordinate.coefficient([1]) == R.wrap(R.one())


@pytest.mark.parametrize("trunc", [1, 2, 3, 6])
def test_scale_is_the_product_of_the_nonzero_points(trunc):
    # the scale is read off the points; it must be the slope of f_H
    H, R = cube_roots_subgroup(trunc=8)
    f = lubin_isogeny(H, trunc)
    _, lead = lubin_coordinate(H, trunc)
    assert lead == f.coefficient([1])
    assert lead.data == R.from_int(3)


def test_quotient_at_trunc_zero():
    H, R = cube_roots_subgroup(trunc=0)
    Q = quotient_law(H)
    assert Q.scale.data == R.from_int(3)
    assert Q.isogeny.is_zero() and Q.law.law.is_zero()
    assert Q.law.law.trunc == 0


def test_trivial_subgroup_gives_identity_isogeny():
    Fm = multiplicative_law(QQ, 6)
    H = SubgroupPoints(Fm, (QQ.el(0),))
    f = lubin_isogeny(H)
    assert f.sorted_terms() == [((1,), Fraction(1))]
    Q = quotient_law(H)
    assert Q.law.law.sorted_terms() == Fm.law.sorted_terms()


def test_non_subgroup_points_rejected_by_quotient():
    Fm = multiplicative_law(QQ, 6)
    bad = SubgroupPoints(Fm, (QQ.el(0), QQ.el(Fraction(1, 2))))
    with pytest.raises(ValueError):
        quotient_law(bad)
