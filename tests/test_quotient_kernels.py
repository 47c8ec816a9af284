"""Quotient-ring products and inverses against exact oracles.

QuotientRing.mul reads the reduced product of each pair of monomials
from a memo on the ring, and QuotientRing.invert stops the geometric
series after n*l products (n the size of the monomial basis, l the
composition length of the base).  Both must agree exactly with the pair
product followed by one rewrite pass, and with the 256-step geometric
series, of tests/oracles.py."""

import gc
import math
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fglcalc.coefficients import IntegersMod, QuotientRing, Rationals, quotient_ring
from fglcalc.errors import NotAUnitError

from oracles import q_invert_geometric, q_mul_then_reduce

QQ = Rationals()


def _mu3():
    # cube roots of unity: z^2 = -1 - z
    return quotient_ring(QQ, ["z"], {"z": (2, {(0,): -1, (1,): -1})})


def _artin(m, cap):
    return quotient_ring(IntegersMod(m), ["e"], {"e": (cap, {})})


RINGS = {
    "Q[z]/(z^2+z+1)": _mu3(),
    "Q[w]/(w^2-2)": quotient_ring(QQ, ["w"], {"w": (2, {(0,): 2})}),
    "Z/4[e]/(e^2)": _artin(4, 2),
    "Z/9[e]/(e^2)": _artin(9, 2),
    "Z/8[e]/(e^3)": _artin(8, 3),
    # w^4 = 4 = 0: nilpotent of index 4 in a basis of 2, so l = 2 counts
    "Z/4[w]/(w^2-2)": quotient_ring(IntegersMod(4), ["w"], {"w": (2, {(0,): 2})}),
    # h is free, so the basis is infinite and the cap of 256 stays; 3h is
    # nilpotent all the same
    "Z/9[h,e]/(e^2)": quotient_ring(IntegersMod(9), ["h", "e"], {"h": None, "e": (2, {})}),
    # u's relation involves v: Q(2^(1/4)), and its Z/4 cousin with a
    # nilpotent v
    "Q[u,v]/(u^2-v,v^2-2)": quotient_ring(
        QQ, ["u", "v"], {"u": (2, {(0, 1): 1}), "v": (2, {(0, 0): 2})}
    ),
    "Z/4[u,v]/(u^2-2v,v^2)": quotient_ring(
        IntegersMod(4), ["u", "v"], {"u": (2, {(0, 1): 2}), "v": (2, {})}
    ),
}

# pairwise coprime denominators, so a lost scale shows
COPRIME = [Fraction(1, 2), Fraction(5, 7), Fraction(-1), Fraction(-3), Fraction(2, 3), Fraction(1)]


def _coeffs(R):
    if isinstance(R.base, Rationals):
        return st.sampled_from(COPRIME)
    return st.integers(0, R.base.modulus - 1)


def _element(R, data, max_size=4):
    """A payload built from normal monomials (a free exponent below 2)."""
    caps = [2 if rel is None else rel[0] for rel in R.relations]
    exps = st.tuples(*[st.integers(0, c - 1) for c in caps])
    raw = data.draw(st.dictionaries(exps, _coeffs(R), max_size=max_size))
    return R.normalize(raw)


def _mul_property(R):
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(data=st.data())
    def prop(data):
        a, b = _element(R, data), _element(R, data)
        assert R.mul(a, b) == q_mul_then_reduce(R, a, b)

    return prop


@pytest.mark.parametrize("R", RINGS.values(), ids=RINGS.keys())
def test_mul_matches_pair_product_then_reduce(R):
    _mul_property(R)()


@pytest.mark.parametrize("R", RINGS.values(), ids=RINGS.keys())
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_invert_matches_256_step_geometric_series(R, data):
    a = _element(R, data)
    try:
        want = q_invert_geometric(R, a)
    except NotAUnitError:
        with pytest.raises(NotAUnitError):
            R.invert(a)
        return
    got = R.invert(a)
    assert got == want
    assert R.mul(a, got) == R.one()


class _KeyedOnFirst(dict):
    """A memo that forgets the second monomial of each pair."""

    def get(self, key, default=None):
        return super().get(key[0], default)

    def __getitem__(self, key):
        return super().__getitem__(key[0])

    def __setitem__(self, key, value):
        super().__setitem__(key[0], value)


def test_memo_keyed_on_first_monomial_fails():
    R = _mu3()
    object.__setattr__(R, "_products", _KeyedOnFirst())
    with pytest.raises(AssertionError):
        _mul_property(R)()


def _count_geometric_products(monkeypatch, R, a):
    """Invert a; return the number of products the geometric series made
    before the linear solve (or before returning, if it never ran)."""
    calls = []
    seen = {}
    mul, solve = QuotientRing.mul, QuotientRing._invert_by_linear_solve

    def counting_mul(self, x, y):
        calls.append(1)
        return mul(self, x, y)

    def recording_solve(self, x):
        seen.setdefault("solve", len(calls))
        return solve(self, x)

    monkeypatch.setattr(QuotientRing, "mul", counting_mul)
    monkeypatch.setattr(QuotientRing, "_invert_by_linear_solve", recording_solve)
    inv = R.invert(a)
    monkeypatch.undo()
    # the first product scales the non-constant part by 1/const
    return inv, seen.get("solve"), len(calls) - 1


def test_cyclic_part_stops_after_basis_size_products(monkeypatch):
    # -1 - z = z^2: its non-constant part -z has (-z)^3 = -1, so the
    # powers cycle and never vanish; with a basis of 2 over a field, two
    # products prove it, where a fixed cap would make 256
    R = _mu3()
    a = R.normalize({(0,): -1, (1,): -1})
    inv, before_solve, _ = _count_geometric_products(monkeypatch, R, a)
    assert before_solve is not None
    assert before_solve - 1 <= 2
    assert inv == q_invert_geometric(R, a) == R.normalize({(1,): 1})
    assert R.mul(a, inv) == R.one()


@pytest.mark.parametrize("m,unit", [(4, 2), (8, 2), (9, 3)], ids=["z4", "z8", "z9"])
@pytest.mark.parametrize("c0,c1", [(1, 1), (3, 5), (5, 7), (2, 1)])
def test_artin_inverses_come_from_the_geometric_series(monkeypatch, m, unit, c0, c1):
    # the Tate groups' rings Z/m[e]/(e^2): a unit constant plus a
    # multiple of e inverts by the series, never by the linear solve
    R = _artin(m, 2)
    a = R.normalize({(0,): c0, (1,): c1 * unit})
    if math.gcd(c0, m) != 1:
        with pytest.raises(NotAUnitError):
            R.invert(a)
        return
    inv, before_solve, products = _count_geometric_products(monkeypatch, R, a)
    assert before_solve is None
    # s, then s^2 = 0, then the scaling back by 1/const
    assert products == 3
    assert inv == q_invert_geometric(R, a)
    assert R.mul(a, inv) == R.one()


def test_composition_length_of_the_base_counts(monkeypatch):
    # over Z/4, w with w^2 = 2 has w^4 = 0 only at 4 = n*l products; a
    # bound of n alone would hand 1 + w to the linear solve
    R = RINGS["Z/4[w]/(w^2-2)"]
    a = R.normalize({(0,): 1, (1,): 1})
    inv, before_solve, products = _count_geometric_products(monkeypatch, R, a)
    assert before_solve is None
    assert products == 5  # s .. s^4, then the scaling back
    assert inv == q_invert_geometric(R, a)
    assert R.mul(a, inv) == R.one()


def test_product_memo_leaves_ring_equality_alone():
    R, S = _mu3(), _mu3()
    z = R.gen_payload("z")
    R.invert(R.add(R.one(), z))
    assert R._products and not S._products
    assert R == S and hash(R) == hash(S)
    assert "_products" not in repr(R)


def test_product_memo_is_freed_with_its_ring():
    # the memo holds only exponent tuples and base payloads: no cycle
    # through the ring, so dropping the ring frees it at once
    gc.collect()
    gc.disable()
    try:
        R = _mu3()
        z = R.gen_payload("z")
        R.invert(R.sub(R.one(), R.mul(z, z)))
        memo = R._products
        assert memo
        ref = weakref.ref(R)
        held = sys.getrefcount(memo)
        del R
        assert ref() is None
        assert sys.getrefcount(memo) == held - 1
        assert gc.collect() == 0
    finally:
        gc.enable()
