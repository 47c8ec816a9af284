"""Integer kernels of the series payloads against exact oracles.

Over Q, series products and long divisions run on integer numerators
over one common denominator; a one-term operand is a shift and a scale;
long division over other bases skips products by one and minus one.
Every case is compared with the all-pairs product and the schoolbook
Fraction long division of tests/oracles.py."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcalc.coefficients import (
    Integers,
    IntegersMod,
    LaurentPolynomials,
    LaurentSeries,
    PowerSeries,
    Rationals,
)
from fglcalc.errors import NotAUnitError, TailOverflowError
from fglcalc.polyseries import MultiSeries

from oracles import m_mul_series_all_pairs, s_long_divide, s_mul_all_pairs

QQ = Rationals()
ZZ = Integers()
Z9 = IntegersMod(9)
ZL = LaurentPolynomials(ZZ, "L")

# pairwise coprime denominators, so a lost or shared scale shows
COPRIME = [Fraction(1, 2), Fraction(5, 7), Fraction(1, 1009), Fraction(-5, 7), Fraction(-3), Fraction(2, 3)]
# multiples of 3 mod 9 multiply to zero, so products and sums vanish
Z9_VALUES = [1, 3, 6, 8, 4]
ZL_VALUES = [{0: 1}, {0: -1}, {1: -1}, {-1: 2, 0: 1}, {0: 3, 2: -1}]

COEFFS = {
    "Q": st.sampled_from(COPRIME),
    "Z": st.integers(-3, 3),
    "Z/9": st.sampled_from(Z9_VALUES),
    "laurpoly(Z;L)": st.sampled_from(ZL_VALUES),
}

WINDOWS = [
    PowerSeries(QQ, "q", 6),
    LaurentSeries(QQ, "q", 5, 3),
    LaurentPolynomials(QQ, "t"),
    PowerSeries(ZZ, "q", 6),
    PowerSeries(Z9, "q", 6),
    LaurentSeries(Z9, "q", 5, 3),
    LaurentSeries(ZL, "q", 5, 3),
]


def _terms(R, data, max_size=5):
    """An operand whose exponents fit the window's bottom; max_size from 1
    up, so one-term operands are drawn often."""
    lo = -getattr(R, "tail", 0) if not isinstance(R, LaurentPolynomials) else -3
    size = data.draw(st.integers(1, max_size))
    raw = data.draw(
        st.dictionaries(st.integers(lo, 6), COEFFS[R.base.descriptor()], min_size=1, max_size=size)
    )
    return R.normalize(raw)


@pytest.mark.parametrize("R", WINDOWS, ids=[R.descriptor() for R in WINDOWS])
@settings(derandomize=True, max_examples=40, deadline=None)
@given(data=st.data())
def test_series_mul_matches_all_pairs(R, data):
    a, b = _terms(R, data), _terms(R, data)
    hi = getattr(R, "order", None)
    lo = -getattr(R, "tail", 0)
    if isinstance(R, LaurentSeries) and a and b and min(a) + min(b) < lo:
        with pytest.raises(TailOverflowError, match=f"^exponent {min(a) + min(b)} of q falls below"):
            R.mul(a, b)
        return
    want = s_mul_all_pairs(R.base, a, b, hi)
    assert R.mul(a, b) == want
    assert R.mul(b, a) == want


def test_one_term_tail_overflow_has_the_same_message():
    R = LaurentSeries(QQ, "q", 6, 4)
    message = r"^exponent -5 of q falls below the declared window$"
    with pytest.raises(TailOverflowError, match=message):
        R.mul({-3: Fraction(1, 2)}, {-2: Fraction(2, 3)})
    with pytest.raises(TailOverflowError, match=message):
        R.mul({-3: Fraction(1, 2)}, {-2: Fraction(2, 3), 0: Fraction(1)})
    with pytest.raises(TailOverflowError, match=message):
        R.mul({-3: Fraction(1, 2), 1: Fraction(1)}, {-2: Fraction(2, 3), 0: Fraction(1)})
    # over Z/9 the offending pair multiplies to zero: still an error
    with pytest.raises(TailOverflowError, match=message):
        LaurentSeries(Z9, "q", 6, 4).mul({-3: 3}, {-2: 3})


# ----------------------------------------------------------- long division


# leading coefficients D_v: the units 1 and -1 of every division point,
# and 2/3 and 3, whose powers the integer recurrence must carry
LEADS = [Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(3), Fraction(-5, 7)]


@pytest.mark.parametrize(
    "R",
    [PowerSeries(QQ, "q", 9), LaurentSeries(QQ, "q", 7, 4)],
    ids=lambda R: R.descriptor(),
)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    lead=st.sampled_from(LEADS),
    rest=st.dictionaries(st.integers(1, 5), st.sampled_from(COPRIME + [Fraction(-1), Fraction(1)]), max_size=4),
    a=st.dictionaries(st.integers(0, 9), st.sampled_from(COPRIME), max_size=6),
    shift=st.integers(-3, 0),
)
def test_rational_long_division_matches_the_fraction_recurrence(R, lead, rest, a, shift):
    if isinstance(R, PowerSeries):
        shift = 0
    d = {shift: lead, **{shift + s: c for s, c in rest.items()}}
    want = s_long_divide(QQ, a, d, R.order)
    got = R.divide(a, d)
    assert got == want
    assert all(type(c) is Fraction for c in got.values())
    if shift == 0:
        assert R.invert(d) == s_long_divide(QQ, {0: Fraction(1)}, d, R.order)


def test_rational_long_division_of_an_exact_product_cancels():
    # (1/2 - 2/3 q^2)(5/7 + 3 q) / (1/2 - 2/3 q^2) leaves two terms: every
    # other coefficient sums to zero
    R = PowerSeries(QQ, "q", 12)
    for lead in LEADS:
        d = {0: lead, 2: Fraction(-2, 3), 3: Fraction(1, 1009)}
        c = {0: Fraction(5, 7), 1: Fraction(3)}
        assert R.divide(R.mul(c, d), d) == c
        assert R.divide({}, d) == {}


def test_laurent_window_divides_by_a_monomial_over_q():
    R = LaurentSeries(QQ, "q", 6, 4)
    a = {0: Fraction(1, 2), 3: Fraction(5, 7)}
    assert R.divide(a, {2: Fraction(2, 3)}) == {-2: Fraction(3, 4), 1: Fraction(15, 14)}
    with pytest.raises(TailOverflowError, match=r"^exponent -5 of q falls below the declared window$"):
        R.divide({0: Fraction(1)}, {5: Fraction(3)})


GENERIC = {
    # (window, divisors whose factors are one, minus one or neither)
    "Z": (PowerSeries(ZZ, "q", 10), [{0: 1, 1: -1}, {0: -1, 2: 1, 3: 2}, {0: 1, 1: 3, 4: -1}]),
    "Z/9": (PowerSeries(Z9, "q", 10), [{0: 8, 1: 1}, {0: 1, 2: 8, 3: 3}, {0: 4, 1: 6, 2: 1}]),
    "laurpoly(Z;L)": (
        LaurentSeries(ZL, "q", 8, 4),
        [{0: {0: 1}, 2: {0: -1}}, {-2: {0: -1}, 0: {0: 1}}, {0: {0: 1}, 1: {1: -1}}, {0: {0: -1}, 1: {-1: 2, 1: 1}}],
    ),
}


@pytest.mark.parametrize("name", list(GENERIC))
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_generic_long_division_matches_the_recurrence(name, data):
    R, divisors = GENERIC[name]
    d = data.draw(st.sampled_from(divisors))
    a = R.normalize(data.draw(st.dictionaries(st.integers(0, 8), COEFFS[R.base.descriptor()], max_size=6)))
    assert R.divide(a, d) == s_long_divide(R.base, a, d, R.order)


def test_non_unit_leads_raise_the_same_errors():
    with pytest.raises(NotAUnitError, match=r"^3 is not a unit mod 9$"):
        PowerSeries(Z9, "q", 4).divide({0: 1}, {0: 3, 1: 1})
    with pytest.raises(NotAUnitError, match=r"^2 is not a unit in Z$"):
        PowerSeries(ZZ, "q", 4).invert({0: 2, 1: 1})
    with pytest.raises(NotAUnitError, match=r"^only monomials are units in laurpoly\(Z;L\)$"):
        LaurentSeries(ZL, "q", 4, 2).divide({0: {0: 1}}, {0: {0: 1, 1: 1}})
    with pytest.raises(NotAUnitError, match=r"^0 is not invertible$"):
        LaurentSeries(QQ, "q", 4, 2).divide({0: Fraction(1)}, {})


# ------------------------------------------ products over series payloads


PAYLOAD_RINGS = [PowerSeries(QQ, "q", 4), LaurentSeries(QQ, "q", 3, 2)]


@pytest.mark.parametrize("R", PAYLOAD_RINGS, ids=lambda R: R.descriptor())
@settings(derandomize=True, max_examples=25, deadline=None)
@given(data=st.data())
def test_multiseries_over_q_series_matches_all_pairs(R, data):
    payload = st.dictionaries(
        st.integers(-getattr(R, "tail", 0), 4), st.sampled_from(COPRIME), min_size=1, max_size=3
    )
    terms = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), payload, max_size=5)
    ta = {k: p for k, p in ((k, R.normalize(p)) for k, p in data.draw(terms).items()) if p}
    tb = {k: p for k, p in ((k, R.normalize(p)) for k, p in data.draw(terms).items()) if p}
    a = MultiSeries(R, ("x", "y"), 4, ta)
    b = MultiSeries(R, ("x", "y"), 4, tb)
    lows = [
        min(pa) + min(pb)
        for ka, pa in a.terms.items()
        for kb, pb in b.terms.items()
        if sum(ka) + sum(kb) <= 4
    ]
    if lows and min(lows) < -2:
        with pytest.raises(TailOverflowError, match=r"of q falls below the declared window$"):
            a * b
        return
    want = m_mul_series_all_pairs(a.terms, b.terms, 4, R.order)
    assert (a * b).terms == want
    # the pairs multiply over Z: both operands go over a common denominator
    ka, kb, *_ = R.product_kernel(a.terms, b.terms)
    assert all(type(n) is int for p in (*ka.values(), *kb.values()) for n in p.values())


def test_series_payload_product_over_q_cancels_to_zero():
    R = PowerSeries(QQ, "q", 4)
    a = MultiSeries(R, ("x",), 3, {(0,): {0: Fraction(1, 2)}, (1,): {1: Fraction(5, 7)}})
    b = MultiSeries(R, ("x",), 3, {(0,): {0: Fraction(2)}, (1,): {1: Fraction(-20, 7)}})
    # (1/2 + 5/7 q x)(2 - 20/7 q x) = 1 - 100/49 q^2 x^2: the x terms cancel
    assert (a * b).terms == {(0,): {0: Fraction(1)}, (2,): {2: Fraction(-100, 49)}}
