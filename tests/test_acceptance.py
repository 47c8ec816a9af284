"""Acceptance gate: one test per contract criterion, exact tolerances.

Run with -s to see the per-criterion PASS lines; each line is printed
only after every assertion in its criterion has held.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from fglcalc.coefficients import (
    GaussianRationals,
    Integers,
    IntegersMod,
    PowerSeries,
    Rationals,
    quotient_ring,
)
from fglcalc.equivariant import (
    additive_context,
    bundle,
    multiplicative_context,
)
from fglcalc.fgl import (
    additive_law,
    check_law_axioms,
    from_log,
    is_homomorphism,
    multiplicative_law,
    n_series_element,
    transport,
)
from fglcalc.genus import (
    ahat_series,
    c1_trivial_block,
    chi_residue,
    cp,
    genus_eval,
    loop_genus_sigma,
    loop_genus_sine,
    loop_vs_quotient_check,
    product_data,
    rr_transform,
    todd_series_of,
)
from fglcalc.polyseries import series
from fglcalc.prospectrum import (
    omega,
    push_class,
    stabilize,
    tower,
    tower_class_eq,
    transition,
    unit_u,
)
from fglcalc.quotient import SubgroupPoints, lubin_isogeny, quotient_law
from fglcalc.tate import (
    TateGroup,
    exact_sequence_check,
    sigma_in_x,
    sigma_series,
    sigma_substitute_L,
    theta_multiplicative_L,
)

from oracles import (
    AHAT_CP1XCP1,
    AHAT_CP2,
    ahat_density,
    genus_cp,
    genus_cp1xcp1,
    series_L_window,
    todd_density,
    witten_block_oracle,
    witten_eisenstein_oracle,
)

QQ = Rationals()


def ok(line):
    print(f"ACCEPT-{line} PASS")


def test_accept_01_law_axioms():
    T = 10
    check_law_axioms(additive_law(QQ, T).law)
    check_law_axioms(multiplicative_law(QQ, T).law)
    c = series(QQ, ("x",), T)
    x = c.var("x")
    check_law_axioms(from_log(x + c.const(Fraction(1, 3)) * x**3).law)
    theta = x + c.const(Fraction(2)) * x**2 + c.const(Fraction(-1)) * x**3
    check_law_axioms(transport(additive_law(QQ, T), theta).target.law)
    # quotient law: mu_3 over Q(zeta)
    R = quotient_ring(
        QQ, ["z"], {"z": (2, {(0,): Fraction(-1), (1,): Fraction(-1)})}
    )
    z = R.gen_payload("z")
    pts = (
        R.wrap(R.zero()),
        R.wrap(R.sub(R.one(), z)),
        R.wrap(R.add(R.from_int(2), z)),
    )
    Q = quotient_law(SubgroupPoints(multiplicative_law(R, T), pts))
    check_law_axioms(Q.law.law)
    ok("01 group-law axioms (additive/multiplicative/from_log/transported/quotient) at trunc 10, exact ...")


def test_accept_02_n_series_closed_forms():
    mc = multiplicative_context(trunc=4, q_order=10, tail=10)
    for k in range(-8, 9):
        got = mc.division_point(k).data
        want = {} if k == 0 else {0: Fraction(1), k: Fraction(-1)}
        assert got == want, k
    ac = additive_context(trunc=4, qhat_order=10, tail=10)
    for k in range(-8, 9):
        got = ac.division_point(k).data
        want = {} if k == 0 else {1: Fraction(k)}
        assert got == want, k
    ok("02 n-series closed forms 1-q^k (|k|<=8) and k*qhat, exact ...")


def test_accept_03_lubin_quotient():
    # mu_3 translates over the integral ring Z[zeta]/(1+zeta+zeta^2)
    T = 10
    R = quotient_ring(
        Integers(), ["z"], {"z": (2, {(0,): Fraction(-1), (1,): Fraction(-1)})}
    )
    Fm = multiplicative_law(R, T)
    z = R.gen_payload("z")
    pts = (
        R.wrap(R.zero()),
        R.wrap(R.sub(R.one(), z)),
        R.wrap(R.add(R.from_int(2), z)),
    )
    H = SubgroupPoints(Fm, pts)
    f = lubin_isogeny(H)
    # f_H(x) = 1 - (1-x)^3 = 3x - 3x^2 + x^3
    assert dict(f.sorted_terms()) == {
        (1,): R.from_int(3),
        (2,): R.from_int(-3),
        (3,): R.one(),
    }
    # homomorphism identity F/H(f(x), f(y)) = f(F(x,y)); here F/H = F
    assert is_homomorphism(f, Fm, Fm)
    # additive case over F_p: f_H = x^p - h^{p-1} x
    for p in (3, 5):
        Rp = quotient_ring(IntegersMod(p), ["h"], {"h": None})
        Fa = additive_law(Rp, 2 * p)
        h = Rp.gen_payload("h")
        Hp = SubgroupPoints(
            Fa, tuple(Rp.wrap(Rp.mul(Rp.from_int(k), h)) for k in range(p))
        )
        fp = lubin_isogeny(Hp)
        hpow = Rp.one()
        for _ in range(p - 1):
            hpow = Rp.mul(hpow, h)
        assert dict(fp.sorted_terms()) == {(p,): Rp.one(), (1,): Rp.neg(hpow)}
    ok("03 Lubin isogeny 1-(1-x)^3 over Z[zeta] + homomorphism at trunc 10; x^p - h^(p-1) x over F_3, F_5 ...")


def test_accept_04_sigma_functional_equation():
    q_order, q_tail = 8, 14
    s = sigma_series(q_order + 8)
    base = sigma_substitute_L(s, 0, q_order, q_tail)
    shifted = sigma_substitute_L(s, 1, q_order, q_tail)
    R = shifted.ring
    # sigma(qL, q) * (-L) = sigma(L, q)
    lhs = R.wrap(R.mul(shifted.data, R.normalize({0: {1: -1}})))
    wl = series_L_window(lhs, -6, 6)
    wr = series_L_window(base, -6, 6)
    for qe in range(q_order + 1):
        assert wl.data.get(qe, {}) == wr.data.get(qe, {}), qe
    ok("04 sigma functional equation sigma(qL,q) = (-L)^-1 sigma(L,q), L-window [-6,6], q-order 8, exact ...")


def test_accept_05_theta_sigma_consistency():
    expansions = {}
    for N in (3, 4, 5, 6):
        _, normalized = theta_multiplicative_L(N, N)
        s = sigma_series(N)
        for qe in range(N + 1):
            assert normalized.data.get(qe, {}) == s.data.get(qe, {}), (N, qe)
        expansions[N] = normalized.data
    # coefficients stabilize in N: lower-order rows never change again
    for N in (4, 5, 6):
        for qe in range(N):
            assert expansions[N].get(qe, {}) == expansions[N - 1].get(qe, {})
    ok("05 normalized cutoff theta agrees with sigma to q-order N, N = 3..6, rows stabilize ...")


def _artin_rings():
    out = []
    for mod, law_name, unit in ((4, "gm", 1), (8, "gm", 3), (9, "ga", 1)):
        R = quotient_ring(IntegersMod(mod), ["e"], {"e": (2, {})})
        qhat = R.wrap(R.mul(R.from_int(unit), R.gen_payload("e")))
        law = (
            multiplicative_law(R, 3) if law_name == "gm" else additive_law(R, 3)
        )
        out.append((TateGroup(law, qhat), R, mod))
    return out


def test_accept_06_tate_group():
    rng = random.Random(20260816)
    total = 0
    denoms = (1, 2, 3, 4, 6, 8, 12)
    for G, R, mod in _artin_rings():
        base_nil = mod // 2 if mod % 2 == 0 else mod // 3
        e = R.gen_payload("e")
        samples = []
        for _ in range(36):
            g = R.add(
                R.from_int(base_nil * rng.randrange(0, 2)),
                R.mul(R.from_int(rng.randrange(mod)), e),
            )
            a = Fraction(rng.randrange(0, 24), rng.choice(denoms))
            samples.append((R.wrap(g), a))
        pts = [G.reduce_pair(g, a) for g, a in samples]
        # group axioms on the samples
        for i in range(len(pts)):
            p, q, r = pts[i], pts[(i + 1) % len(pts)], pts[(i + 2) % len(pts)]
            assert G.eq(G.mul(p, q), G.mul(q, p))
            assert G.eq(G.mul(G.mul(p, q), r), G.mul(p, G.mul(q, r)))
            assert G.eq(G.mul(p, G.inv(p)), G.identity())
            assert G.eq(G.mul(p, G.identity()), p)
        # kernel elements ([n](qhat), n) die
        for n in range(-4, 5):
            img = G.reduce_pair(
                n_series_element(G.law, n, G.qhat), Fraction(n)
            )
            assert G.eq(img, G.identity())
        report = exact_sequence_check(G, samples, integer_range=4)
        assert report.ok, report.failures
        total += len(samples)
    assert total >= 100
    # both carry branches of the product law, explicitly
    G, R, _ = _artin_rings()[0]
    carry = G.mul(
        G.point(R.wrap(R.zero()), Fraction(2, 3)),
        G.point(R.wrap(R.zero()), Fraction(2, 3)),
    )
    assert carry.a == Fraction(1, 3)
    assert carry.g.data == {(1,): 3}  # 0 -_F qhat = -e = 3e mod 4
    plain = G.mul(
        G.point(R.wrap(R.zero()), Fraction(1, 4)),
        G.point(R.wrap(R.zero()), Fraction(1, 4)),
    )
    assert plain.a == Fraction(1, 2)
    assert plain.g.is_zero()
    ok("06 Tate group axioms on 108 samples over 3 Artin rings, kernel dies, both carry branches ...")


def test_accept_07_classical_genera():
    td = todd_series_of(multiplicative_law(QQ, 7))
    dens = [td.coefficient([k]) for k in range(7)]
    assert dens == todd_density(7)[:7]
    for n in range(1, 7):
        assert genus_eval(cp(n), td.with_trunc(n)).data == Fraction(1)
        assert genus_cp(n, dens) == Fraction(1)
    A = ahat_series(2)
    assert genus_eval(cp(2), A).data == Fraction(-1, 8) == AHAT_CP2
    x2 = product_data(cp(1, "h1"), cp(1, "h2"))
    assert genus_eval(x2, A).data == Fraction(0) == AHAT_CP1XCP1
    adens = ahat_density(3)
    assert genus_cp(2, adens) == Fraction(-1, 8)
    assert genus_cp1xcp1(adens) == Fraction(0)
    ok("07 Todd(CP^n) = 1 for n <= 6, Ahat(CP^2) = -1/8, Ahat(CP^1 x CP^1) = 0, vs independent oracles ...")


def test_accept_08_riemann_roch_symbolic():
    T = 6
    R = quotient_ring(QQ, ["a", "b"], {"a": None, "b": None})
    c = series(R, ("x",), T)
    x = c.var("x")
    th = (
        x
        + c.const(R.wrap(R.gen_payload("a"))) * x**2
        + c.const(R.wrap(R.gen_payload("b"))) * x**3
    )
    manifolds = (cp(1), cp(2), product_data(cp(1, "h1"), cp(1, "h2")))
    for F in (additive_law(R, T), multiplicative_law(R, T)):
        for X in manifolds:
            lhs, rhs = rr_transform(X, F, th)
            assert lhs.data == rhs.data, (F.name, X.name)
    ok("08 Riemann-Roch lhs = rhs for symbolic theta = x + a x^2 + b x^3 over Q[a,b] on 3 manifolds, exact ...")


def test_accept_09_loop_vs_quotient():
    ga = additive_context(trunc=6, qhat_order=2, tail=12, unit_bound=3)
    assert loop_vs_quotient_check(cp(1), ga, 3)
    assert loop_vs_quotient_check(cp(2), ga, 3)
    gm = multiplicative_context(trunc=4, q_order=40, tail=24, unit_bound=3)
    assert loop_vs_quotient_check(cp(2), gm, 3)
    ok("09 loop-space genus equals quotient-law genus for (CP1,Ga), (CP2,Ga), (CP2,Gm) at N = 3, whole q-window [-24, 40] ...")


def test_accept_10_ahat_normalization():
    QI = GaussianRationals()
    for X in (cp(1), cp(2), product_data(cp(1, "h1"), cp(1, "h2"))):
        d = X.dimension
        got = loop_genus_sine(X, 4)
        ahat = genus_eval(X, ahat_series(2).with_trunc(d)).data
        two_i = QI.mul(QI.from_int(2), QI.i())
        scalar = QI.mul(QI.pow(two_i, d), QI.from_fraction(ahat))
        expect = {} if QI.is_zero(scalar) else {d: scalar}
        assert got.data == expect, X.name
    ok("10 closed-form additive loop genus equals (2it)^d Ahat(X) with i adjoined, exact ...")


def test_accept_11_chi_residue():
    assert chi_residue(cp(1), Fraction(1, 2)).data == {1: Fraction(2)}
    assert chi_residue(cp(2), Fraction(1, 2)).data == {2: Fraction(3)}
    ok("11 chi residue: chi_residue(CP1, 1/2) = 2t, chi_residue(CP2, 1/2) = 3t^2, exact ...")


TOWER_SHAPES = ([(None, 0, 1)], [(None, 0, 2)], [("h", 0, 1)], [("h", 0, 1), (None, 0, 1)])


def test_accept_12_thom_tower():
    for law_name in ("ga", "gm"):
        for shape in TOWER_SHAPES:
            if law_name == "ga":
                ctx = additive_context(trunc=3, qhat_order=60, tail=60, unit_bound=6)
            else:
                ctx = multiplicative_context(trunc=3, q_order=90, tail=90, unit_bound=6)
            T = tower(ctx, bundle(ctx, shape))
            s = unit_u(T, 0).one()
            prev = omega(T, 0, s)
            for n in range(1, 7):
                cur = omega(T, n, s)
                # j_n(omega_{n-1}) = omega_n
                assert push_class(T, prev, n).value == cur.value, (law_name, n)
                # u_n = u_{n-1} * transition(n)
                assert unit_u(T, n) == unit_u(T, n - 1) * transition(T, n)
                prev = cur
            assert tower_class_eq(T, omega(T, 2, s), omega(T, 6, s))
    ok("12 Thom tower identity j_n(omega_(n-1)) = omega_n and u_n recursion, n <= 6, rank <= 2, both laws ...")


def test_accept_13_stabilization():
    for q_order in (3, 4, 5, 6):
        ctx = multiplicative_context(trunc=4, q_order=10, tail=10, unit_bound=3)
        T = tower(ctx, bundle(ctx, [("x", 0, 1)]))
        n_stable, val = stabilize(T, q_order)
        assert n_stable <= q_order + 1
        # stable series equals the sigma closed form in the x coordinate
        qring = PowerSeries(QQ, "q", q_order)
        sx = sigma_in_x(val.trunc + 2, qring)
        for k in range(val.trunc + 1):
            assert val.coefficient([k]) == sx.coefficient([k + 1]), (q_order, k)
    ok("13 stabilize: N_stable <= q_order + 1 for Gm rank-1 at q-orders 3..6, matches sigma closed form ...")


def test_accept_14_witten_expansion():
    X = c1_trivial_block(4)
    assert X.first_chern_vanishes()
    got = loop_genus_sigma(X, 6)
    assert got.data == witten_block_oracle(6)
    # an oracle that never forms sigma: exp of Eisenstein series
    for dim in (4, 8):
        got = loop_genus_sigma(c1_trivial_block(dim), 8)
        assert got.data == witten_eisenstein_oracle(dim, 8), dim
    ok("14 sigma-normalized loop genus of a c1 = 0 block matches the product-expansion oracle (dim 4, q-order 6) and the Eisenstein oracle (dims 4, 8, q-order 8) ...")


CLI_CASES = [
    ["--format", "json", "sigma", "--qorder", "3"],
    ["--format", "json", "fgl", "nseries", "--law", "gm", "--k", "2", "--trunc", "4"],
    ["--format", "json", "genus", "ahat", "--manifold", "cp2"],
    ["genus", "loop", "--manifold", "cp2", "--law", "ga", "--N", "3"],
    ["theta", "--law", "gm", "--N", "3", "--qorder", "4"],
    ["tate", "exact-seq", "--artin", "z9", "--law", "gm", "--samples", "20", "--seed", "0"],
    ["tower", "stabilize", "--law", "gm", "--blocks", "x:0:1", "--qorder", "4"],
    ["quotient", "--case", "mu3", "--trunc", "6"],
]


def _cli(args):
    return subprocess.run(
        [sys.executable, "-m", "fglcalc.cli", *args],
        capture_output=True,
        timeout=300,
    )


def test_accept_15_cli_determinism_and_exit_codes():
    for args in CLI_CASES:
        a, b = _cli(args), _cli(args)
        assert a.returncode == 0, (args, a.stderr.decode())
        assert a.stdout == b.stdout and a.stdout, args
    # seeded failure case: a fixed document that breaks commutativity
    bad = {
        "vars": ["x", "y"], "trunc": 4, "coeff_ring": "Q",
        "terms": [
            {"exponents": [0, 1], "coeff": "1"},
            {"exponents": [1, 0], "coeff": "1"},
            {"exponents": [1, 2], "coeff": "1"},
        ],
    }
    r1 = _cli(["fgl", "validate", "--terms", json.dumps(bad)])
    assert r1.returncode == 1
    assert b"ok = False" in r1.stdout
    r2 = _cli(["fgl", "validate", "--terms", "not json"])
    assert r2.returncode == 2
    assert r2.stderr.startswith(b"InputError:")
    r3 = _cli(["genus", "chi", "--manifold", "cp1", "--r", "1"])
    assert r3.returncode == 2
    assert r3.stderr.startswith(b"Pole:")
    ok("15 CLI byte-identical across runs for documented invocations; exit codes 1/2 on seeded failures ...")
