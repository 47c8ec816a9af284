"""Truncated multivariate series: arithmetic, substitution, reversion."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcalc.coefficients import (
    Integers,
    IntegersMod,
    LaurentSeries,
    PowerSeries,
    Rationals,
    quotient_ring,
)
from fglcalc.errors import ConstantTermError, NotAUnitError, RingMismatchError
from fglcalc.polyseries import series

from oracles import (
    lagrange_reversion,
    m_mul_all_pairs,
    m_mul_series_all_pairs,
    m_newton_inverse,
    newton_inverse,
    substitute_oracle,
)

QQ = Rationals()


def ctx(trunc=6, vars=("x",)):
    return series(QQ, vars, trunc)


def test_basic_arithmetic_and_terms():
    c = ctx(4, ("x", "y"))
    x, y = c.var("x"), c.var("y")
    f = (x + y) ** 2
    assert f.sorted_terms() == [
        ((0, 2), Fraction(1)),
        ((1, 1), Fraction(2)),
        ((2, 0), Fraction(1)),
    ]
    assert f.coefficient([1, 1]) == Fraction(2)
    assert (f - f).is_zero()


def test_truncation_drops_high_degree():
    c = ctx(3)
    x = c.var("x")
    f = (c.one() + x) ** 5
    # binomials above degree 3 discarded
    assert f.sorted_terms() == [
        ((0,), Fraction(1)),
        ((1,), Fraction(5)),
        ((2,), Fraction(10)),
        ((3,), Fraction(10)),
    ]


def test_series_inverse_geometric():
    c = ctx(7)
    x = c.var("x")
    g = (c.one() - x).series_inverse()
    assert all(g.coefficient([k]) == 1 for k in range(8))
    with pytest.raises(NotAUnitError):
        x.series_inverse()


# name: (base ring, random base element, random unit, a nonzero non-unit
# or None); the Laurent units have valuation 0, so the inverse is exact
# through the window's order
QS = PowerSeries(QQ, "q", 6)
QL = LaurentSeries(QQ, "q", 6, 4)


def _q_element(R, rng, low=0):
    exps = rng.sample(range(low, 7), 3)
    return R.normalize({e: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for e in exps})


def _q_unit(R):
    return lambda rng: R.add(R.from_int(rng.choice([-2, 1, 3])), _q_element(R, rng, low=1))


INVERSE_BASES = {
    "Q": (
        QQ,
        lambda rng: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
        lambda rng: Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)),
        None,
    ),
    "Z/8": (IntegersMod(8), lambda rng: rng.randrange(8), lambda rng: rng.choice([1, 3, 5, 7]), 6),
    "powser(Q;q;6)": (QS, lambda rng: _q_element(QS, rng), _q_unit(QS), {1: Fraction(1)}),
    "laurent(Q;q;6;4)": (QL, lambda rng: _q_element(QL, rng), _q_unit(QL), None),
}


@pytest.mark.parametrize("trunc", [0, 1, 8])
@pytest.mark.parametrize("vars", [("x",), ("x", "y"), ("x", "y", "z")], ids=len)
@pytest.mark.parametrize("name", list(INVERSE_BASES))
def test_series_inverse_is_the_long_division(name, vars, trunc):
    # one variable divides as its own payload, more are graded by total
    # degree: either way f * g = 1 through the truncation
    ring, elem, unit, non_unit = INVERSE_BASES[name]
    rng = random.Random(f"{name}/{len(vars)}/{trunc}")
    for count in (0, 1, 4, 12):
        terms = _random_terms(rng, len(vars), trunc, count, None)
        f = series(ring, vars, trunc, {e: elem(rng) for e in terms})
        f = f - f.constant_term() + f.const(unit(rng))
        g = f.series_inverse()
        assert (f * g).terms == f.one().terms
        assert (g * f).terms == f.one().terms
        if name == "Q" and len(vars) == 1:
            want = newton_inverse(QQ, {e: c for (e,), c in f.terms.items()}, trunc)
            assert g.terms == {(e,): c for e, c in want.items()}
        constant_free = f - f.constant_term()
        bad = [constant_free] + ([constant_free + f.const(non_unit)] if non_unit is not None else [])
        for h in bad:
            with pytest.raises(NotAUnitError, match="^series has non-unit constant term, cannot invert$"):
                h.series_inverse()


def test_substitute_strict_requires_no_constant_term():
    c = ctx(5)
    x = c.var("x")
    f = x + x * x
    with pytest.raises(ConstantTermError):
        f.substitute({"x": c.one() + x})
    g = f.substitute({"x": x + x * x})
    # (x + x^2) + (x + x^2)^2
    assert g.coefficient([2]) == 2
    assert g.coefficient([3]) == 2
    assert g.coefficient([4]) == 1


def test_substitute_nilpotent_mode_allows_nilpotent_constant():
    R = quotient_ring(IntegersMod(4), ["e"], {"e": (2, {})})
    c = series(R, ("x",), 4)
    x = c.var("x")
    e = c.const(R.wrap(R.gen_payload("e")))
    f = x * x
    g = f.substitute({"x": x + e}, mode="nilpotent")
    # (x + e)^2 = x^2 + 2ex since e^2 = 0
    assert g.coefficient([2]) == R.wrap(R.one())
    assert g.coefficient([1]) == R.wrap(R.mul(R.from_int(2), R.gen_payload("e")))


def test_reversion_exp_log_round_trip():
    c = ctx(8)
    x = c.var("x")
    # exp(x) - 1
    expm1 = c.zero()
    fact = 1
    for k in range(1, 9):
        fact *= k
        expm1 = expm1 + c.const(Fraction(1, fact)) * x**k
    log1p = expm1.reversion()
    for k in range(1, 9):
        assert log1p.coefficient([k]) == Fraction((-1) ** (k + 1), k)
    assert expm1.substitute({"x": log1p}).sorted_terms() == [((1,), Fraction(1))]


def test_integrate_derivative_inverse():
    c = ctx(6)
    x = c.var("x")
    f = x + c.const(Fraction(3)) * x**4
    assert f.integrate("x").derivative("x").sorted_terms() == f.sorted_terms()
    g = f.derivative("x")
    assert g.coefficient([0]) == 1
    assert g.coefficient([3]) == 12


def test_rename_lift_project():
    c = ctx(4, ("x",))
    f = c.var("x") ** 2
    g = f.rename_vars({"x": "t"})
    assert g.vars == ("t",)
    h = g.lift_to(("t", "u"))
    assert h.coefficient([2, 0]) == 1
    back = h.project_vars(("t",))
    assert back.sorted_terms() == g.sorted_terms()


def test_coefficient_in_partial_extraction():
    c = ctx(5, ("x", "q"))
    x, q = c.var("x"), c.var("q")
    f = x * q + x * x * q + x * q * q
    fx = f.coefficient_in("x", 1)
    assert fx.sorted_terms() == [((0, 1), Fraction(1)), ((0, 2), Fraction(1))]


def test_eval_elements():
    c = ctx(5)
    x = c.var("x")
    f = c.one() + x + x * x
    # exact mode: the polynomial is the whole series, so a non-nilpotent
    # value is fine
    v = f.eval_elements({"x": QQ.el(Fraction(1, 2))}, mode="exact")
    assert v.data == Fraction(7, 4)
    with pytest.raises(ConstantTermError):
        f.eval_elements({"x": QQ.el(Fraction(1, 2))})


def test_trunc_mismatch_is_an_error():
    a = ctx(4).var("x")
    b = ctx(5).var("x")
    with pytest.raises(RingMismatchError):
        _ = a + b


def test_with_trunc_lowers():
    c = ctx(6)
    x = c.var("x")
    f = (c.one() - x).series_inverse().with_trunc(2)
    assert f.sorted_terms() == [
        ((0,), Fraction(1)),
        ((1,), Fraction(1)),
        ((2,), Fraction(1)),
    ]


frac = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def poly_of(c, coeffs):
    x = c.var("x")
    f = c.zero()
    for k, a in enumerate(coeffs):
        f = f + c.const(a) * x**k
    return f


@settings(derandomize=True, max_examples=40)
@given(
    st.lists(frac, min_size=1, max_size=4),
    st.lists(frac, min_size=1, max_size=4),
    st.lists(frac, min_size=1, max_size=4),
)
def test_ring_axioms_for_series(ca, cb, cc):
    c = ctx(5)
    f, g, h = poly_of(c, ca), poly_of(c, cb), poly_of(c, cc)
    assert ((f * g) * h).sorted_terms() == (f * (g * h)).sorted_terms()
    assert (f * g).sorted_terms() == (g * f).sorted_terms()
    assert (f * (g + h)).sorted_terms() == (f * g + f * h).sorted_terms()


@settings(derandomize=True, max_examples=40)
@given(st.lists(frac, min_size=2, max_size=5))
def test_series_inverse_is_two_sided(coeffs):
    c = ctx(6)
    f = poly_of(c, coeffs)
    if f.constant_term().is_zero():
        f = f + c.one()
    g = f.series_inverse()
    assert (f * g).sorted_terms() == [((0,), Fraction(1))]


def _random_terms(rng, nvars, trunc, count, modulus):
    """Terms of every total degree up to trunc + 2; the constructor drops
    the ones beyond trunc."""
    terms = {}
    for _ in range(count):
        degree = rng.randint(0, trunc + 2)
        cuts = sorted(rng.randint(0, degree) for _ in range(nvars - 1))
        exps = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        if modulus is None:
            terms[exps] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        else:
            terms[exps] = rng.randint(0, modulus - 1)
    return terms


@pytest.mark.parametrize("trunc", [0, 1, 12])
@pytest.mark.parametrize(
    "ring, modulus, vars",
    [
        (QQ, None, ("x", "y")),
        (IntegersMod(8), 8, ("x", "y")),
        (QQ, None, ("x", "y", "z")),
        (IntegersMod(8), 8, ("x", "y", "z")),
    ],
    ids=["Q-xy", "Z/8-xy", "Q-xyz", "Z/8-xyz"],
)
def test_mul_matches_all_pairs_product(ring, modulus, vars, trunc):
    # the product on packed keys must give exactly the dict of the naive
    # product, for operands of unequal length with terms of high degree
    # that only low-degree partners reach
    rng = random.Random(f"{ring.descriptor()}{len(vars)}{trunc}")
    for count_a, count_b in ((1, 1), (3, 17), (17, 3), (25, 25)):
        a = series(ring, vars, trunc, _random_terms(rng, len(vars), trunc, count_a, modulus))
        b = series(ring, vars, trunc, _random_terms(rng, len(vars), trunc, count_b, modulus))
        assert (a * b).terms == m_mul_all_pairs(a.terms, b.terms, trunc, modulus)
        assert (b * a).terms == (a * b).terms
    c = series(ring, vars, trunc)
    x, y = c.var("x"), c.var("y")
    # cancellation: (x + y)(x - y) = x^2 - y^2 drops the xy terms
    assert ((x + y) * (x - y)).terms == m_mul_all_pairs(
        (x + y).terms, (x - y).terms, trunc, modulus
    )


# name: (ring, modulus or None, random nonzero coefficient); powser
# payloads are checked by the series all-pairs oracle, cut at q^4
QS4 = PowerSeries(QQ, "q", 4)
PACKED_RINGS = {
    "Q": (QQ, None, lambda rng: Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))),
    "Z/8": (IntegersMod(8), 8, lambda rng: rng.randint(1, 7)),
    "powser(Q;q;4)": (
        QS4,
        None,
        lambda rng: {rng.randint(0, 4): Fraction(rng.choice([-2, 1, 3]), rng.randint(1, 3))},
    ),
}


def _edge_terms(nvars, trunc):
    """The terms that sit on the cut: exponent trunc in each variable, and
    x^a y^b with a + b = trunc, whose digits are all at their largest."""
    terms = [tuple(trunc if j == i else 0 for j in range(nvars)) for i in range(nvars)]
    if nvars >= 2:
        terms += [(a, trunc - a) + (0,) * (nvars - 2) for a in range(trunc + 1)]
    return terms + [(0,) * nvars]


@pytest.mark.parametrize("trunc", [0, 1, 12])
@pytest.mark.parametrize("nvars", [0, 4])
@pytest.mark.parametrize("name", list(PACKED_RINGS))
def test_packed_product_at_the_cut_matches_all_pairs(name, nvars, trunc):
    # a radix of trunc would carry out of a digit trunc, and a key with
    # no degree digit would keep x^a y^b * x^c y^d beyond the cut
    ring, modulus, coeff = PACKED_RINGS[name]
    rng = random.Random(f"{name}/{nvars}/{trunc}")
    vars = ("x", "y", "z", "w")[:nvars]
    edge = _edge_terms(nvars, trunc)
    for count in (0, 6, 20):
        extra = list(_random_terms(rng, nvars, trunc, count, None)) if nvars else []
        exps = [edge, edge[: nvars + 1] + extra]
        a, b = (series(ring, vars, trunc, {e: coeff(rng) for e in es}) for es in exps)
        if ring is QS4:
            want = m_mul_series_all_pairs(a.terms, b.terms, trunc, QS4.order)
        else:
            want = m_mul_all_pairs(a.terms, b.terms, trunc, modulus)
        assert (a * b).terms == want
        assert (b * a).terms == want


@pytest.mark.parametrize("trunc", [0, 1, 5])
@pytest.mark.parametrize("nvars", [0, 2, 3, 4])
@pytest.mark.parametrize("modulus", [None, 9], ids=["Q", "Z/9"])
def test_series_inverse_matches_newton_on_all_pairs(modulus, nvars, trunc):
    ring = QQ if modulus is None else IntegersMod(modulus)
    rng = random.Random(f"{modulus}/{nvars}/{trunc}")
    vars = ("x", "y", "z", "w")[:nvars]
    terms = _random_terms(rng, nvars, trunc, 12, modulus) if nvars else {}
    terms.update({e: 1 for e in _edge_terms(nvars, trunc)})
    terms[(0,) * nvars] = Fraction(-2, 3) if modulus is None else 5
    f = series(ring, vars, trunc, terms)
    assert f.series_inverse().terms == m_newton_inverse(f.terms, trunc, modulus)


@pytest.mark.parametrize("modulus, y_coeff", [(None, Fraction(1, 2)), (9, 5)], ids=["Q", "Z/9"])
def test_series_inverse_of_a_dense_bivariate_unit(modulus, y_coeff):
    # 1 + x + y/2 + 3xy + x^2 - y^3 (5y over Z/9), inverted at trunc 18
    ring = QQ if modulus is None else IntegersMod(modulus)
    f = series(ring, ("x", "y"), 18, {(0, 0): 1, (1, 0): 1, (0, 1): y_coeff, (1, 1): 3, (2, 0): 1, (0, 3): -1})
    assert f.series_inverse().terms == m_newton_inverse(f.terms, 18, modulus)


# coefficients whose denominators are pairwise coprime, so a wrong common
# denominator (a max, a sum or one operand's alone) shows in the product
COPRIME = [Fraction(1, 2), Fraction(5, 7), Fraction(1, 1009), Fraction(-5, 7), Fraction(-3), Fraction(-1, 2)]


def q_terms(nvars, trunc):
    exps = st.tuples(*[st.integers(0, trunc)] * nvars).filter(lambda e: sum(e) <= trunc)
    return st.dictionaries(exps, st.sampled_from(COPRIME), max_size=10)


@pytest.mark.parametrize("trunc", [0, 1, 12])
@pytest.mark.parametrize("vars", [("x", "y"), ("x", "y", "z")], ids=["xy", "xyz"])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_q_mul_over_one_denominator_matches_all_pairs(vars, trunc, data):
    # max_size 10 starts at 0, so empty and one-term operands are drawn
    a = series(QQ, vars, trunc, data.draw(q_terms(len(vars), trunc)))
    b = series(QQ, vars, trunc, data.draw(q_terms(len(vars), trunc)))
    prod = a * b
    assert prod.terms == m_mul_all_pairs(a.terms, b.terms, trunc)
    assert all(type(c) is Fraction for c in prod.terms.values())


@pytest.mark.parametrize("trunc", [2, 12])
def test_q_mul_drops_coefficients_that_cancel(trunc):
    c = series(QQ, ("x", "y"), trunc)
    x, y = c.var("x"), c.var("y")
    # (x + 5/7 y)(x/1009 - 5/7063 y): the xy coefficients cancel to zero
    a = x + y * Fraction(5, 7)
    b = x * Fraction(1, 1009) - y * Fraction(5, 7063)
    prod = a * b
    assert prod.terms == m_mul_all_pairs(a.terms, b.terms, trunc)
    assert (1, 1) not in prod.terms and len(prod.terms) == 2
    assert (a * c.zero()).terms == {}


# ------------------------------------------------------------------
# substitution: the grouped kernel against the term-by-term oracle

Z6 = Integers((2, 3))
QP = PowerSeries(QQ, "q", 4)
QE = quotient_ring(QQ, ["e"], {"e": (3, {})})

# name: (ring, coefficient strategy, nilpotent-constant strategy); every
# strategy draws payloads or values the series constructor normalizes
SUBST_RINGS = {
    "Q": (QQ, st.sampled_from(COPRIME + [Fraction(2, 3), Fraction(7)]), st.just(0)),
    "Z": (Integers(), st.integers(-9, 9), st.just(0)),
    "Z[1/6]": (
        Z6,
        st.builds(lambda n, a, b: Fraction(n, 2**a * 3**b), st.integers(-7, 7), st.integers(0, 3), st.integers(0, 2)),
        st.just(0),
    ),
    # zero divisors, so that products and sums vanish mod 9
    "Z/9": (IntegersMod(9), st.sampled_from([1, 3, 6, 8]), st.sampled_from([0, 3, 6])),
    "powser(Q;q;4)": (
        QP,
        st.dictionaries(st.integers(0, 4), st.sampled_from(COPRIME), max_size=3),
        st.dictionaries(st.integers(1, 4), st.sampled_from(COPRIME), max_size=2),
    ),
    "Q[e]/(e^3)": (
        QE,
        st.dictionaries(st.sampled_from([(0,), (1,), (2,)]), st.sampled_from(COPRIME), max_size=3),
        st.dictionaries(st.sampled_from([(1,), (2,)]), st.sampled_from(COPRIME), max_size=2),
    ),
}
NILPOTENT_RINGS = ["Z/9", "powser(Q;q;4)", "Q[e]/(e^3)"]
TARGET_VARS = ("x", "y", "z")


def exps_of(nvars, top):
    """Exponent tuples of total degree <= top, dense low ones and sparse
    high ones (a single variable to a high power) alike."""
    low = st.tuples(*[st.integers(0, 3)] * nvars)
    high = st.tuples(*[st.integers(0, 1)] * (nvars - 1), st.integers(max(top - 2, 0), top)).map(lambda e: e[::-1])
    return st.one_of(low, high).filter(lambda e: sum(e) <= top)


def _check_substitute(f, bindings, mode):
    got = f.substitute(bindings, mode=mode)
    want = substitute_oracle(f, bindings)
    assert got.terms == want.terms
    assert (got.ring, got.vars, got.trunc) == (want.ring, want.vars, want.trunc)
    ring = got.ring
    assert all(ring.normalize(c) == c and type(c) is type(ring.normalize(c)) for c in got.terms.values())


@pytest.mark.parametrize("mode", ["strict", "exact", "nilpotent"])
@pytest.mark.parametrize("name", list(SUBST_RINGS))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_substitute_matches_term_by_term_oracle(name, mode, data):
    ring, coeff, nilpotent = SUBST_RINGS[name]
    if mode == "nilpotent" and name not in NILPOTENT_RINGS:
        nilpotent = st.just(0)
    nvars = data.draw(st.integers(1, 3), label="outer variables")
    outer_vars = TARGET_VARS[:nvars]
    # a nilpotent constant c needs c^(outer trunc + 1) = 0
    outer_trunc = data.draw(st.integers(4 if mode == "nilpotent" else 0, 9), label="outer trunc")
    trunc = data.draw(st.integers(0, 7), label="target trunc")
    terms = data.draw(st.dictionaries(exps_of(nvars, max(outer_trunc, 2)), coeff, max_size=12), label="outer")
    f = series(ring, outer_vars, outer_trunc, terms)
    bound = data.draw(
        st.lists(st.sampled_from(outer_vars), min_size=1, max_size=nvars, unique=True), label="bound"
    )
    bindings = {}
    for v in bound:
        s = series(ring, TARGET_VARS, trunc, data.draw(st.dictionaries(exps_of(3, trunc + 1), coeff, max_size=8)))
        if mode != "exact":
            s = s - s.constant_term()
        if mode == "nilpotent":
            s = s + s.const(ring.normalize(data.draw(nilpotent)))
        bindings[v] = s
    _check_substitute(f, bindings, mode)


@pytest.mark.parametrize("name", list(SUBST_RINGS))
def test_substitute_edge_outer_series(name):
    # empty and constant-only outer series, a univariate target, and a
    # sparse top-degree term whose powers run past the truncation
    ring = SUBST_RINGS[name][0]
    c = series(ring, ("x", "y"), 6)
    x, y = c.var("x"), c.var("y")
    p = x + x * y * ring.wrap(ring.from_int(2)) - y * y * y
    three = ring.wrap(ring.from_int(3))
    for f in (c.zero(), c.one() * three, x**6 * three + c.one()):
        for bindings in ({"x": p}, {"x": p, "y": x * x}, {"y": p - x}):
            _check_substitute(f, bindings, "strict")
    uni = series(ring, ("t",), 5)
    t = uni.var("t")
    q = t + t * t * three
    _check_substitute(x * y * y + y**5 + c.one(), {"x": q, "y": q * q}, "strict")


@pytest.mark.parametrize("name", list(SUBST_RINGS))
def test_substitute_cancels_to_zero(name):
    # terms of different groups cancel: x^2 - y at (P, P^2), and
    # x^2 y^3 - x^3 y^2 + x - y at (P, P); over Q the scalars have
    # coprime denominators, so a lost denominator scale shows
    ring = SUBST_RINGS[name][0]
    c = series(ring, ("x", "y"), 7)
    x, y = c.var("x"), c.var("y")
    target = series(ring, ("s", "t"), 7)
    s, t = target.var("s"), target.var("t")
    if ring.has_rational_scalars():
        scalars = [Fraction(5, 7), Fraction(1, 1009), Fraction(-3)]
    elif ring == Z6:
        scalars = [Fraction(5, 6), Fraction(-1, 8)]
    else:
        scalars = [2, -3]
    for k in scalars:
        p = s * k + s * t - t * t * t * k
        for f, bindings in (
            (x * x * k - y * k, {"x": p, "y": p * p}),
            (x**2 * y**3 * k - x**3 * y**2 * k + x - y, {"x": p, "y": p}),
        ):
            got = f.substitute(bindings)
            assert f.terms and got.terms == {} and got.vars == ("s", "t")
            _check_substitute(f, bindings, "strict")


# ------------------------------------------------------------------
# reversion: one composition per Newton step


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from([Fraction(1), Fraction(-2, 3), Fraction(5), Fraction(1, 1009)]),
    st.lists(frac, max_size=9),
    st.integers(0, 12),
)
def test_reversion_matches_lagrange_inversion(slope, higher, trunc):
    coeffs = [Fraction(0), slope] + higher
    f = series(QQ, ("x",), trunc, {(k,): c for k, c in enumerate(coeffs)})
    g = f.reversion()
    want = lagrange_reversion(coeffs, trunc)
    assert g.terms == {(k,): c for k, c in enumerate(want) if c}


@pytest.mark.parametrize("modulus", [8, 9])
@pytest.mark.parametrize("trunc", [0, 1, 2, 9, 16])
def test_reversion_over_z_mod_n_is_a_two_sided_inverse(modulus, trunc):
    ring = IntegersMod(modulus)
    rng = random.Random(f"{modulus}/{trunc}")
    c = series(ring, ("x",), trunc)
    x = c.var("x")
    for _ in range(4):
        terms = {(k,): rng.randrange(modulus) for k in range(2, trunc + 1)}
        terms[(1,)] = rng.choice([u for u in range(1, modulus) if math.gcd(u, modulus) == 1])
        f = series(ring, ("x",), trunc, terms)
        g = f.reversion()
        assert f.substitute({"x": g}) == x
        assert g.substitute({"x": f}) == x


def test_reversion_at_trunc_zero_is_zero():
    # modulo degree 1 the slope is truncated away and the inverse is 0
    assert series(QQ, ("x",), 0).reversion().terms == {}
    assert series(IntegersMod(8), ("x",), 0, {(1,): 2}).reversion().terms == {}
