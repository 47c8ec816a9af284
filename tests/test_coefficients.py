"""Coefficient ring layer: payload arithmetic, windows, quotients."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcalc.coefficients import (
    GaussianRationals,
    Integers,
    IntegersMod,
    LaurentPolynomials,
    LaurentSeries,
    PowerSeries,
    Rationals,
    Ring,
    parse_ring,
    quotient_ring,
    repeated,
)
from fglcalc.errors import NotAUnitError, TailOverflowError, UnrepresentableError

from oracles import newton_inverse, s_mul_all_pairs

QQ = Rationals()


def test_rationals_basic():
    a = QQ.from_fraction(Fraction(2, 3))
    b = QQ.from_int(4)
    assert QQ.mul(a, b) == Fraction(8, 3)
    assert QQ.invert(a) == Fraction(3, 2)
    assert QQ.parse(QQ.text(a)) == a


def test_integers_localized_inverts_named_primes():
    Z6 = Integers((2, 3))
    assert Z6.invert(Fraction(2)) == Fraction(1, 2)
    with pytest.raises(NotAUnitError):
        Z6.invert(Fraction(5))


def test_integers_mod_units():
    Z9 = IntegersMod(9)
    assert Z9.mul(Z9.from_int(4), Z9.from_int(7)) == 1
    assert Z9.invert(Z9.from_int(4)) == 7
    with pytest.raises(NotAUnitError):
        Z9.invert(Z9.from_int(3))


def test_integers_mod_from_fraction_names_a_non_unit_denominator():
    Z4 = IntegersMod(4)
    assert Z4.from_fraction(Fraction(-1, 3)) == 1
    with pytest.raises(NotAUnitError, match=r"^denominator 2 of 1/2 is not a unit mod 4$"):
        Z4.from_fraction(Fraction(1, 2))
    with pytest.raises(NotAUnitError, match=r"^denominator 6 of 5/6 is not a unit mod 9$"):
        IntegersMod(9).from_fraction(Fraction(5, 6))


def test_repeated_doubling_never_applies_the_op_to_the_identity():
    # the n-series chains rely on this: they never substitute into zero
    identity = object()
    calls = []

    def op(u, v):
        assert u is not identity and v is not identity
        calls.append((u, v))
        return u + v

    for n in range(1, 40):
        calls.clear()
        assert repeated(op, "ab", n, lambda: identity) == "ab" * n
        # one doubling per bit below the top, one join per extra set bit
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1
    assert repeated(op, "ab", 0, lambda: identity) is identity


def test_gaussian_rationals():
    QI = GaussianRationals()
    i = QI.i()
    assert QI.mul(i, i) == QI.from_int(-1)
    # (1+i)(1-i) = 2
    a = QI.add(QI.one(), i)
    b = QI.sub(QI.one(), i)
    assert QI.mul(a, b) == QI.from_int(2)
    assert QI.parse(QI.text(a)) == a


def test_power_series_invert_newton():
    R = PowerSeries(QQ, "q", 8)
    one_minus_q = R.sub(R.one(), R.param_payload(1))
    inv = R.invert(one_minus_q)
    assert inv == {k: Fraction(1) for k in range(9)}
    assert R.mul(one_minus_q, inv) == R.one()


def test_laurent_window_contract():
    R = LaurentSeries(QQ, "q", 4, 2)
    el = R.param_payload(-2)
    # q^{-2} * q^{-1} would leave the window below: hard error
    with pytest.raises(TailOverflowError):
        R.mul(el, R.param_payload(-1))
    # above the order: silent truncation
    top = R.mul(R.param_payload(3), R.param_payload(3))
    assert top == {}


def test_laurent_invert_monomial_lead():
    R = LaurentSeries(QQ, "q", 6, 3)
    # 2q - q^2 = 2q(1 - q/2)
    el = {1: Fraction(2), 2: Fraction(-1)}
    inv = R.invert(el)
    assert inv[-1] == Fraction(1, 2)
    prod = R.mul(el, inv)
    # exact up to the order minus the inversion depth
    assert prod[0] == 1
    assert all(prod.get(k, Fraction(0)) == 0 for k in range(1, 5))


def test_laurent_polynomials_exact():
    LP = LaurentPolynomials(Integers(), "L")
    a = {1: 1, -1: 1}  # L + L^{-1}
    sq = LP.mul(a, a)
    assert sq == {2: 1, 0: 2, -2: 1}


def test_quotient_ring_quadratic_relation():
    # w^2 = 2
    R = quotient_ring(QQ, ["w"], {"w": (2, {(0,): Fraction(2)})})
    w = R.gen_payload("w")
    assert R.mul(w, w) == R.from_int(2)
    # (1 + w)^2 = 3 + 2w
    a = R.add(R.one(), w)
    assert R.mul(a, a) == R.add(R.from_int(3), R.mul(R.from_int(2), w))


def test_quotient_ring_free_generators_and_nilpotency():
    R = quotient_ring(QQ, ["a"], {"a": None})
    a = R.gen_payload("a")
    assert R.nilpotency_order(a, 10) is None
    Rn = quotient_ring(IntegersMod(4), ["e"], {"e": (2, {})})
    e = Rn.gen_payload("e")
    assert Rn.mul(e, e) == Rn.zero()
    assert Rn.nilpotency_order(e, 10) == 2


def test_ring_descriptor_round_trip():
    rings = [
        QQ,
        GaussianRationals(),
        Integers(),
        Integers((2, 5)),
        IntegersMod(7),
        PowerSeries(QQ, "q", 5),
        LaurentSeries(Integers(), "q", 4, 2),
        PowerSeries(LaurentPolynomials(Integers(), "L"), "q", 3),
    ]
    for R in rings:
        assert parse_ring(R.descriptor()) == R


def test_series_payload_text_round_trip():
    R = PowerSeries(LaurentPolynomials(Integers(), "L"), "q", 3)
    payload = {0: {0: 1, 1: -1}, 2: {-1: 3, 2: -3}}
    assert R.parse(R.text(R.normalize(payload))) == R.normalize(payload)


frac = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 5)
)


@settings(derandomize=True, max_examples=60)
@given(frac, frac, frac)
def test_rationals_ring_axioms(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(a, b) == QQ.mul(b, a)
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))


@settings(derandomize=True, max_examples=60)
@given(st.integers(0, 11), st.integers(0, 11), st.integers(0, 11))
def test_integers_mod_ring_axioms(a, b, c):
    Z12 = IntegersMod(12)
    a, b, c = Z12.from_int(a), Z12.from_int(b), Z12.from_int(c)
    assert Z12.add(Z12.add(a, b), c) == Z12.add(a, Z12.add(b, c))
    assert Z12.mul(a, b) == Z12.mul(b, a)
    assert Z12.mul(a, Z12.add(b, c)) == Z12.add(Z12.mul(a, b), Z12.mul(a, c))


@settings(derandomize=True, max_examples=40)
@given(
    st.dictionaries(st.integers(0, 4), frac, max_size=4),
    st.dictionaries(st.integers(0, 4), frac, max_size=4),
)
def test_power_series_commutative_associative(pa, pb):
    R = PowerSeries(QQ, "q", 6)
    pa, pb = R.normalize(pa), R.normalize(pb)
    assert R.mul(pa, pb) == R.mul(pb, pa)
    assert R.mul(R.mul(pa, pb), pa) == R.mul(pa, R.mul(pb, pa))


# ------------------------------------------- series products and quotients


ZL = LaurentPolynomials(Integers(), "L")
QT = PowerSeries(QQ, "t", 2)


def _frac(rng, den=5):
    return Fraction(rng.randint(-9, 9), rng.randint(1, den))


# name: (base ring, random element of it, a unit of it)
SERIES_BASES = {
    "Q": (QQ, _frac, Fraction(3, 2)),
    "Z/9": (IntegersMod(9), lambda rng: rng.randrange(9), 7),
    "Z[1/2]": (
        Integers((2,)),
        lambda rng: Fraction(rng.randint(-9, 9), 2 ** rng.randint(0, 2)),
        Fraction(-1, 4),
    ),
    "laurpoly(Z)": (
        ZL,
        # monomials: wider random coefficients make the dense order-40
        # quotient so wide in L that the Newton reference takes seconds
        lambda rng: ZL.normalize({rng.randint(0, 1): rng.randint(-2, 2)}),
        {1: -1},
    ),
    "powser(Q)": (
        QT,
        lambda rng: QT.normalize({e: _frac(rng, 3) for e in range(rng.randint(0, 3))}),
        {0: Fraction(2), 1: Fraction(1)},
    ),
}


def _series(R, elem, rng, exponents):
    return R.normalize({e: elem(rng) for e in exponents})


@pytest.mark.parametrize("order", [0, 1, 8, 40])
@pytest.mark.parametrize("shape", ["sparse", "dense"])
@pytest.mark.parametrize("name", list(SERIES_BASES))
def test_divide_and_invert_match_newton(name, shape, order):
    base, elem, unit = SERIES_BASES[name]
    rng = random.Random(f"{name}/{shape}/{order}")
    R = PowerSeries(base, "q", order)
    tail = range(1, order + 1) if shape == "dense" else [e for e in (3, 7, 19) if e <= order]
    d = _series(R, elem, rng, tail)
    d[0] = unit
    inv = newton_inverse(base, d, order)
    assert R.invert(d) == inv
    a = _series(R, elem, rng, range(order + 1))
    assert R.divide(a, d) == s_mul_all_pairs(base, a, inv, order)
    assert R.divide({}, d) == {}


def test_power_series_quotient_needs_a_constant_term():
    R = PowerSeries(QQ, "q", 8)
    message = r"^no constant term, not a unit in powser\(Q;q;8\)$"
    with pytest.raises(NotAUnitError, match=message):
        R.invert({1: Fraction(1)})
    with pytest.raises(NotAUnitError, match=message):
        R.invert({})
    with pytest.raises(NotAUnitError, match=message):
        R.divide(R.one(), {2: Fraction(1), 3: Fraction(1)})
    Z9 = PowerSeries(IntegersMod(9), "q", 4)
    with pytest.raises(NotAUnitError, match="not a unit mod 9"):
        Z9.divide(Z9.one(), {0: 3, 1: 1})


LAURENT_DIVISORS = [
    ("Q", {0: Fraction(1), -3: Fraction(-1)}),
    ("Q", {-2: Fraction(3), -1: Fraction(1), 0: Fraction(-2), 4: Fraction(5)}),
    ("Q", {0: Fraction(2), 1: Fraction(1), 6: Fraction(-1)}),
    ("Z/9", {-4: 2, -3: 3, 0: 6, 5: 1}),
    ("laurpoly(Z)", {-1: {0: 1}, 0: {1: -1}, 2: {-2: 4}}),
]


@pytest.mark.parametrize(
    "name,d", LAURENT_DIVISORS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(LAURENT_DIVISORS)]
)
def test_laurent_divide_undoes_mul(name, d):
    # a divisor of valuation v <= 0 inside the window: dividing reads the
    # product only through order + v, so every coefficient of a returns
    base, elem, _ = SERIES_BASES[name]
    R = LaurentSeries(base, "q", 12, 6)
    rng = random.Random(f"{name}/{sorted(d)}")
    for _ in range(3):
        a = _series(R, elem, rng, range(-6 - min(d), 13))
        assert R.divide(R.mul(a, d), d) == a


@pytest.mark.parametrize("name", ["Q", "Z/9", "laurpoly(Z)"])
@pytest.mark.parametrize("v", [1, 2, 5])
def test_laurent_divide_by_monomial_is_a_shift(name, v):
    # [k](qhat) = k qh in the additive windows: a positive-valuation
    # monomial divides as a shift, exactly as multiplying by its inverse
    base, elem, unit = SERIES_BASES[name]
    R = LaurentSeries(base, "q", 12, 6)
    d = {v: unit}
    rng = random.Random(f"{name}/{v}")
    for _ in range(3):
        a = _series(R, elem, rng, range(v - 6, 13))
        assert R.divide(a, d) == R.mul(a, R.invert(d))
        assert R.divide({}, d) == {}
    # a quotient below the window is an error, as for the product
    low = R.normalize({v - 7: unit, 3: unit})
    with pytest.raises(TailOverflowError, match="exponent -7 "):
        R.divide(low, d)
    with pytest.raises(TailOverflowError):
        R.mul(low, R.invert(d))


def test_default_divide_multiplies_by_the_inverse():
    # one division entry point on every ring; rings without a long
    # division divide as a * d^-1
    w2 = quotient_ring(QQ, ["w"], {"w": (2, {(0,): Fraction(2)})})
    w = w2.gen_payload("w")
    cases = [
        (QQ, Fraction(-7, 3), Fraction(5, 4)),
        (IntegersMod(9), 5, 4),
        (w2, w2.add(w2.one(), w), w2.sub(w2.from_int(3), w)),
    ]
    for R, a, d in cases:
        assert R.divide(a, d) == R.mul(a, R.invert(d))
        assert R.mul(R.divide(a, d), d) == a
    with pytest.raises(NotAUnitError):
        IntegersMod(9).divide(1, 3)


def test_param_payload_above_the_order_truncates():
    # a power above the order is zero in the ring, as mul says
    for R in (PowerSeries(QQ, "q", 3), LaurentSeries(QQ, "q", 3, 2)):
        assert R.param_payload(5) == {}
        assert R.param_payload(5) == R.mul(R.param_payload(2), R.param_payload(3))
        assert R.param_payload(3) == {3: Fraction(1)}
    with pytest.raises(TailOverflowError):
        LaurentSeries(QQ, "q", 3, 2).param_payload(-3)
    with pytest.raises(TailOverflowError):
        PowerSeries(QQ, "q", 3).param_payload(-1)


def test_laurent_divide_rejects_positive_valuation_and_zero():
    R = LaurentSeries(QQ, "q", 6, 3)
    with pytest.raises(ValueError, match="valuation 1"):
        R.divide(R.one(), {1: Fraction(1), 2: Fraction(1)})
    with pytest.raises(NotAUnitError):
        R.divide(R.one(), {})


MUL_CASES = [
    # ring, exponent range of the random operands
    (PowerSeries(QQ, "q", 10), range(0, 11)),
    (PowerSeries(ZL, "q", 6), range(0, 7)),
    (LaurentSeries(IntegersMod(8), "q", 6, 4), range(-2, 7)),
    (LaurentSeries(Integers(), "q", 0, 5), range(-2, 1)),
    (LaurentPolynomials(IntegersMod(8), "L"), range(-5, 6)),
    (LaurentPolynomials(Integers((2,)), "L"), range(-3, 4)),
]


@pytest.mark.parametrize("R,exps", MUL_CASES, ids=[R.descriptor() for R, _ in MUL_CASES])
def test_series_mul_and_add_match_all_pairs(R, exps):
    elem = {
        "Q": _frac,
        "Z/8": lambda rng: rng.randrange(8),
        "Z": lambda rng: rng.randint(-4, 4),
        "Z[1/2]": lambda rng: Fraction(rng.randint(-4, 4), 2),
        "laurpoly(Z;L)": SERIES_BASES["laurpoly(Z)"][1],
    }[R.base.descriptor()]
    rng = random.Random(R.descriptor())
    hi = R.order if hasattr(R, "order") else None
    for trial in range(12):
        a = _series(R, elem, rng, rng.sample(list(exps), rng.randint(0, len(exps))))
        b = _series(R, elem, rng, rng.sample(list(exps), rng.randint(0, len(exps))))
        assert R.mul(a, b) == s_mul_all_pairs(R.base, a, b, hi), trial
        total = R.normalize({e: R.base.add(a.get(e, R.base.zero()), b.get(e, R.base.zero())) for e in {*a, *b}})
        assert R.add(a, b) == total, trial


def test_series_mul_below_the_window_still_raises():
    R = LaurentSeries(IntegersMod(8), "q", 6, 4)
    # the offending pair's coefficients multiply to zero: still an error
    with pytest.raises(TailOverflowError, match="exponent -5"):
        R.mul({-2: 4, 3: 1}, {-3: 2, 0: 1})
    assert R.mul({-2: 4, 3: 1}, {-2: 2, 0: 1}) == {-2: 4, 1: 2, 3: 1}


# denominators pairwise coprime, so a wrong common denominator shows
COPRIME = [Fraction(1, 2), Fraction(5, 7), Fraction(1, 1009), Fraction(-5, 7), Fraction(-3), Fraction(-1, 2)]

Q_SERIES = [
    (PowerSeries(QQ, "q", 8), range(0, 11)),
    (LaurentSeries(QQ, "q", 6, 4), range(-2, 9)),
    (LaurentPolynomials(QQ, "L"), range(-5, 6)),
]


@pytest.mark.parametrize("R,exps", Q_SERIES, ids=[R.descriptor() for R, _ in Q_SERIES])
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_q_series_mul_over_one_denominator_matches_all_pairs(R, exps, data):
    # max_size 8 starts at 0, so empty and one-term operands are drawn
    terms = st.dictionaries(st.sampled_from(list(exps)), st.sampled_from(COPRIME), max_size=8)
    a, b = R.normalize(data.draw(terms)), R.normalize(data.draw(terms))
    hi = getattr(R, "order", None)
    prod = R.mul(a, b)
    assert prod == s_mul_all_pairs(QQ, a, b, hi)
    assert all(type(c) is Fraction for c in prod.values())


@pytest.mark.parametrize("R", [R for R, _ in Q_SERIES], ids=[R.descriptor() for R, _ in Q_SERIES])
def test_q_series_mul_drops_coefficients_that_cancel(R):
    # (1 + q/1009)(5/7 - 5/7063 q) = 5/7 - 5/7126489 q^2
    a = {0: Fraction(1), 1: Fraction(1, 1009)}
    b = {0: Fraction(5, 7), 1: Fraction(-5, 7063)}
    assert R.mul(a, b) == {0: Fraction(5, 7), 2: Fraction(-5, 7063 * 1009)}
    assert R.mul(a, {}) == {}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(COPRIME)),
            st.dictionaries(st.integers(0, 5), st.sampled_from(COPRIME), max_size=6),
        ),
        max_size=5,
    )
)
def test_q_linear_combination_matches_fraction_arithmetic(pairs):
    # the integer two-pass kernel against the termwise Fraction sum of
    # the base class; coprime denominators make a lost scale show, and
    # sums such as 1/2 - 1/2 cancel to no term at all
    want = Ring.linear_combination(QQ, pairs)
    got = QQ.linear_combination(pairs)
    assert got == want
    assert all(type(c) is Fraction and c for c in got.values())


# (ring, payload type): plain Z is int, Z[1/n] and Q are Fraction
PAYLOAD_TYPES = [(Integers(), int), (Integers((2,)), Fraction), (QQ, Fraction)]


@pytest.mark.parametrize("R,kind", PAYLOAD_TYPES, ids=[R.descriptor() for R, _ in PAYLOAD_TYPES])
def test_payload_types_are_canonical(R, kind):
    six, minus_one = R.from_int(6), R.from_fraction(Fraction(-1))
    values = [
        R.zero(), R.one(), six, minus_one, R.parse("-7"), R.normalize(5),
        R.normalize(Fraction(4)), R.add(six, minus_one), R.mul(six, minus_one),
        R.neg(six), R.invert(minus_one), R.divide(six, minus_one),
    ]
    if kind is Fraction:
        values += [R.invert(R.from_int(2)), R.divide(six, R.normalize(4)), R.parse("3/2")]
    assert [type(v) for v in values] == [kind] * len(values)
    S = PowerSeries(R, "q", 6)
    a = S.normalize({0: 6, 1: 3, 3: -2})
    d = S.normalize({0: -1, 2: 1})
    products = [*S.mul(a, d).values(), *S.divide(a, d).values(), *S.invert(d).values()]
    assert products and [type(c) for c in products] == [kind] * len(products)


def test_integers_mod_payloads_are_canonical():
    Z5 = IntegersMod(5)
    assert Z5.el(7, raw=True) == Z5.el(2)
    assert Z5.el(-3, raw=True).data == 2
    assert PowerSeries(Z5, "q", 3).normalize({0: 5, 2: 13}) == {2: 3}
    # a quotient ring normalizes its coefficients through the base
    R = quotient_ring(IntegersMod(9), ["e"], {"e": (2, {})})
    assert R.normalize({(0,): 10, (1,): -9, (2,): 4}) == {(0,): 1}
    with pytest.raises(TypeError):
        R.normalize({(1,): True})


def test_raw_payloads_invert_exactly():
    # raw ints are normalized, so inverse() never falls back to float division
    for R, raw, inverse in ((QQ, 5, Fraction(1, 5)), (Integers((2,)), 4, Fraction(1, 4))):
        got = R.el(raw, raw=True).inverse().data
        assert got == inverse and type(got) is Fraction
    assert Integers().el(-1, raw=True).inverse().data == -1
    re_part, im_part = GaussianRationals().el((1, 2), raw=True).inverse().data
    assert (re_part, im_part) == (Fraction(1, 5), Fraction(-2, 5))
    assert type(re_part) is Fraction and type(im_part) is Fraction
    with pytest.raises(UnrepresentableError):
        Integers((2,)).el(Fraction(1, 3), raw=True)


@pytest.mark.parametrize("bad", [0.5, 2.0, True, "3"], ids=repr)
@pytest.mark.parametrize(
    "R", [QQ, Integers(), Integers((2,)), GaussianRationals(), IntegersMod(5)], ids=lambda R: R.descriptor()
)
def test_normalize_rejects_inexact_payloads(R, bad):
    with pytest.raises(TypeError):
        R.normalize((bad, 0) if isinstance(R, GaussianRationals) else bad)
    with pytest.raises(TypeError):
        PowerSeries(R, "q", 2).normalize({0: (bad, 0) if isinstance(R, GaussianRationals) else bad})
