"""Independent oracles: dense list/dict arithmetic over Fraction, no
imports from the package under test.  Everything here is deliberately
dumb and direct so that agreement with the engine is evidence.

The exception is the last section: earlier composite code paths (the
Tate group's carry branches, the two-step quotient law), kept as
references for the single maps that replaced them.  They compose the
package's law primitives in the earlier way, so agreement checks the
composition, not the primitives."""

import math
from fractions import Fraction

from fglcalc.fgl import X, inverse_element, law_apply, n_series_element, transport
from fglcalc.polyseries import series
from fglcalc.quotient import lubin_coordinate

F0 = Fraction(0)
F1 = Fraction(1)


# univariate dense polynomials: p[i] = coeff of x^i


def p_trim(a, n):
    return (a + [F0] * n)[: n + 1]


def p_mul(a, b, n):
    out = [F0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            out[i + j] += ai * bj
    return out


def p_inv(a, n):
    # 1/a for a[0] != 0
    out = [F0] * (n + 1)
    out[0] = 1 / a[0]
    for k in range(1, n + 1):
        s = F0
        for j in range(1, k + 1):
            if j < len(a):
                s += a[j] * out[k - j]
        out[k] = -s / a[0]
    return out


def p_pow(a, m, n):
    out = [F1] + [F0] * n
    for _ in range(m):
        out = p_mul(out, a, n)
    return out


def lagrange_reversion(f, n):
    """The compositional inverse g of f = f[1] x + f[2] x^2 + ...,
    f[0] = 0 and f[1] != 0, through x^n by Lagrange inversion:
    [x^k] g = (1/k) [x^(k-1)] (x / f)^k."""
    x_over_f = p_inv(f[1:], n)
    return [F0] + [p_pow(x_over_f, k, n)[k - 1] / k for k in range(1, n + 1)]


def exp_series(n, scale=F1):
    return [Fraction(scale ** k, math.factorial(k)) for k in range(n + 1)]


def todd_density(n):
    # x / (1 - e^{-x})
    em = exp_series(n + 1, Fraction(-1))
    body = [-c for c in em]
    body[0] += 1  # 1 - e^{-x}, valuation 1
    shifted = body[1:]  # divide by x
    return p_inv(p_trim(shifted, n), n)


def ahat_density(n):
    # (x/2) / sinh(x/2)
    sinh = [F0] * (n + 2)
    for m in range(0, n + 2, 2):
        if m + 1 <= n + 1:
            sinh[m + 1] = Fraction(1, math.factorial(m + 1) * 2 ** (m + 1))
    shifted = sinh[1:]
    half = p_inv(p_trim(shifted, n), n)
    return [c / 2 for c in half]


def genus_cp(n, Q):
    """coeff of h^n in Q(h)^{n+1}"""
    return p_pow(p_trim(Q, n), n + 1, n)[n]


def genus_cp1xcp1(Q):
    """coeff of h1 h2 in Q(h1)^2 Q(h2)^2"""
    c = p_pow(p_trim(Q, 1), 2, 1)[1]
    return c * c


# classical sanity values, from Chern/Pontryagin numbers directly:
# CP^2 has c1^2 = 9, c2 = 3, p1 = c1^2 - 2 c2 = 3, Ahat = -p1/24 = -1/8.
AHAT_CP2 = Fraction(-3, 24)
# CP^1 x CP^1: c1^2 = 8, c2 = 4, p1 = 0, Ahat = 0.
AHAT_CP1XCP1 = Fraction(0)


# multivariate truncated series as dict[exponent tuple] -> coefficient


def m_mul_all_pairs(a, b, trunc, modulus=None):
    """Product of two exponent-tuple dicts, every pair of terms visited,
    total degree > trunc dropped afterwards; coefficients mod modulus
    when one is given (ints), else exact (Fractions)."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    if modulus is not None:
        out = {k: v % modulus for k, v in out.items()}
    return {k: v for k, v in out.items() if v != 0 and sum(k) <= trunc}


def m_newton_inverse(a, trunc, modulus=None):
    """1/a through total degree trunc for a with a unit constant term, by
    Newton's iteration b <- b (2 - a b) on all-pairs products; each step
    doubles the number of correct degrees.  Coefficients mod modulus when
    one is given (ints), else exact (Fractions)."""
    const = (0,) * len(next(iter(a)))
    c0 = a[const]
    b = {const: Fraction(1) / c0 if modulus is None else pow(c0, -1, modulus)}
    prec = 1
    while prec <= trunc:
        prec *= 2
        correction = {k: -v for k, v in m_mul_all_pairs(a, b, trunc, modulus).items()}
        correction[const] = correction.get(const, 0) + 2
        b = m_mul_all_pairs(b, correction, trunc, modulus)
    return b


# one-parameter series as dict[exponent] -> payload over a base ring
# object, touching only its base operations (mul, add, neg, invert,
# from_int, is_zero): the reference for the engine's series products and
# quotients


def s_mul_all_pairs(base, a, b, hi=None):
    """Every pair of terms visited, exponents above hi dropped afterwards."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            p = base.mul(ca, cb)
            out[e] = base.add(out[e], p) if e in out else p
    return {
        e: c for e, c in out.items() if not base.is_zero(c) and (hi is None or e <= hi)
    }


def s_long_divide(base, a, d, top):
    """a / d by the schoolbook recurrence, through exponent top:
    c_e = (a_{e+v} - sum_{j != v} d_j c_{e+v-j}) / d_v, with v the
    valuation of d, in the base ring's own arithmetic (Fractions over Q)."""
    v = min(d)
    inv = base.invert(d[v])
    out = {}
    if not a:
        return out
    start = min(a) - v
    for e in range(start, top + 1):
        acc = a.get(e + v, base.zero())
        for j, c in d.items():
            if j != v and e + v - j in out:
                acc = base.add(acc, base.neg(base.mul(c, out[e + v - j])))
        q = base.mul(acc, inv)
        if not base.is_zero(q):
            out[e] = q
    return out


def m_mul_series_all_pairs(a, b, trunc, hi=None):
    """Product of two multivariate series whose coefficients are
    rational one-parameter series {e: Fraction}: every pair of outer
    terms of total degree <= trunc, every pair of inner terms, inner
    exponents above hi dropped afterwards."""
    out = {}
    for ea, pa in a.items():
        for eb, pb in b.items():
            key = tuple(i + j for i, j in zip(ea, eb))
            if sum(key) > trunc:
                continue
            acc = out.setdefault(key, {})
            for sa, ca in pa.items():
                for sb, cb in pb.items():
                    acc[sa + sb] = acc.get(sa + sb, 0) + ca * cb
    out = {
        k: {e: c for e, c in p.items() if c != 0 and (hi is None or e <= hi)}
        for k, p in out.items()
    }
    return {k: p for k, p in out.items() if p}


def newton_inverse(base, a, order):
    """1/a through q^order for a with a unit constant term, by Newton's
    iteration b <- b (2 - a b), which doubles the correct prefix."""
    b = {0: base.invert(a[0])}
    prec = 1
    while prec <= order:
        prec = min(2 * prec, order + 1)
        correction = {
            e: base.neg(c) for e, c in s_mul_all_pairs(base, a, b, order).items()
        }
        c0 = base.add(correction.pop(0, base.zero()), base.from_int(2))
        if not base.is_zero(c0):
            correction[0] = c0
        b = s_mul_all_pairs(base, b, correction, order)
    return b


# composition of truncated multivariate series, term by term: the
# reference for MultiSeries.substitute, whose grouped evaluation must
# give the same terms.  It touches only the series' own const, var,
# product and sum, which the all-pairs oracles above check.


def substitute_oracle(f, bindings):
    """f at the series bindings, one outer term at a time: const(c),
    one product per variable power, one series sum per term.  Unbound
    variables stay themselves, as variables of the target; the mode
    checks are the engine's and are not repeated here."""
    target = next(iter(bindings.values()))
    full = {v: bindings[v] if v in bindings else target.var(v) for v in f.vars}
    pows = {v: [target.one()] for v in f.vars}
    acc = target.zero()
    for exps, c in sorted(f.terms.items()):
        term = target.const(c)
        for v, e in zip(f.vars, exps):
            cache = pows[v]
            while len(cache) <= e:
                cache.append(cache[-1] * full[v])
            if e:
                term = term * cache[e]
        acc = acc + term
    return acc


# sigma(L, q) as dict[(q_exp, L_exp)] -> Fraction, truncated at q_order


def d_mul(a, b, q_order):
    out = {}
    for (qa, la), ca in a.items():
        for (qb, lb), cb in b.items():
            if qa + qb > q_order:
                continue
            key = (qa + qb, la + lb)
            out[key] = out.get(key, F0) + ca * cb
    return {k: v for k, v in out.items() if v != 0}


def d_geom_inv_one_minus(qk, q_order):
    """1 / (1 - q^qk) as a q-dict."""
    out = {}
    e = 0
    while e <= q_order:
        out[(e, 0)] = F1
        e += qk
    return out


def theta_cutoff_oracle(cutoff, q_order):
    """(raw, normalized) multiplicative cutoff products as q-dicts:
    normalized = (1 - L) prod_{k<=cutoff} (1 - q^k L)(1 - q^k L^{-1})
    / (1 - q^k)^2 and raw = L^cutoff normalized."""
    acc = {(0, 0): F1, (0, 1): Fraction(-1)}  # 1 - L
    for k in range(1, cutoff + 1):
        a = {(0, 0): F1, (k, 1): Fraction(-1)}
        b = {(0, 0): F1, (k, -1): Fraction(-1)}
        inv = d_geom_inv_one_minus(k, q_order)
        acc = d_mul(acc, d_mul(a, d_mul(b, d_mul(inv, inv, q_order), q_order), q_order), q_order)
    raw = {(qe, le + cutoff): c for (qe, le), c in acc.items()}
    return raw, acc


def stabilize_scan_oracle(mults, x_trunc, q_order):
    """The sigma stabilization scan over variables x_0, x_1, ... with
    multiplicities mults: the partial products
    P_n = prod_{k <= n} prod_i pair_k(x_i)^{mults[i]} with
    pair_k(x) = (1 - q^k L)(1 - q^k / L) / (1 - q^k)^2 and L = 1 - x,
    expanded densely as dict[(q_exp, x_exps)] -> Fraction.  Returns
    (n_stable, P_{q_order}) with n_stable the least n from which every
    partial product equals the last one."""
    nv = len(mults)
    zero = (0,) * nv

    def mul(a, b):
        out = {}
        for (qa, xa), ca in a.items():
            for (qb, xb), cb in b.items():
                xs = tuple(i + j for i, j in zip(xa, xb))
                if qa + qb <= q_order and sum(xs) <= x_trunc:
                    key = (qa + qb, xs)
                    out[key] = out.get(key, F0) + ca * cb
        return {k: v for k, v in out.items() if v != 0}

    def x_pow(i, j):
        return tuple(j if v == i else 0 for v in range(nv))

    partials = [{(0, zero): F1}]
    for k in range(1, q_order + 1):
        inv = {(qe, zero): c for (qe, _), c in d_geom_inv_one_minus(k, q_order).items()}
        step = partials[-1]
        for i, m in enumerate(mults):
            a = {(0, zero): F1, (k, zero): -F1, (k, x_pow(i, 1)): F1}
            b = {(0, zero): F1}
            b.update({(k, x_pow(i, j)): -F1 for j in range(x_trunc + 1)})
            pair = mul(a, mul(b, mul(inv, inv)))
            for _ in range(m):
                step = mul(step, pair)
        partials.append(step)
    n_stable = q_order
    while n_stable > 0 and partials[n_stable - 1] == partials[-1]:
        n_stable -= 1
    return n_stable, partials[-1]


def series_L_window(s, l_min, l_max):
    """A series over Laurent polynomials in L with every L-exponent
    outside [l_min, l_max] dropped, as an element of the same ring."""
    out = {}
    for qe, lpayload in s.data.items():
        kept = {le: c for le, c in lpayload.items() if l_min <= le <= l_max}
        if kept:
            out[qe] = kept
    return s.ring.wrap(out)


def sigma_oracle(q_order):
    return theta_cutoff_oracle(q_order, q_order)[1]


def sigma_in_x_oracle(x_trunc, q_order):
    """sigma(1 - x, q) as dict[(q_exp, x_exp)] -> Fraction: the product
    x prod_k (1 - q^k (1-x))(1 - q^k/(1-x)) / (1-q^k)^2 expanded densely,
    with 1/(1-x) the geometric series."""

    def mul(a, b):
        out = {}
        for (qa, xa), ca in a.items():
            for (qb, xb), cb in b.items():
                if qa + qb <= q_order and xa + xb <= x_trunc:
                    key = (qa + qb, xa + xb)
                    out[key] = out.get(key, F0) + ca * cb
        return {k: v for k, v in out.items() if v != 0}

    acc = {(0, 1): F1}  # x = 1 - L
    for k in range(1, q_order + 1):
        a = {(0, 0): F1, (k, 0): -F1, (k, 1): F1}
        b = {(0, 0): F1}
        b.update({(k, j): -F1 for j in range(x_trunc + 1)})
        inv = d_geom_inv_one_minus(k, q_order)
        acc = mul(acc, mul(a, mul(b, mul(inv, inv))))
    return acc


# the dimension-4 c1=0 block: coeff of h^4 in f(h) f(-h) where
# f(h) = h/(1-e^{-h}) * prod_n (1-q^n)^2 / ((1-q^n e^{-h})(1-q^n e^h)),
# computed with dense bivariate arrays b[i][j] = coeff of h^i q^j


def _bv_zero(H, Q):
    return [[F0] * (Q + 1) for _ in range(H + 1)]


def _bv_mul(a, b, H, Q):
    out = _bv_zero(H, Q)
    for i in range(H + 1):
        for j in range(Q + 1):
            if a[i][j] == 0:
                continue
            for k in range(H + 1 - i):
                for l in range(Q + 1 - j):
                    if b[k][l] != 0:
                        out[i + k][j + l] += a[i][j] * b[k][l]
    return out


def _bv_inv(a, H, Q):
    # 1/(1+u) = sum (-u)^n for a = 1 + u with u nilpotent-ish in trunc
    am1 = [[a[i][j] for j in range(Q + 1)] for i in range(H + 1)]
    assert am1[0][0] == 1
    am1[0][0] = F0
    res = _bv_zero(H, Q)
    res[0][0] = F1
    pw = _bv_zero(H, Q)
    pw[0][0] = F1
    for n in range(1, (H + 1) * (Q + 1) + 1):
        pw = _bv_mul(pw, am1, H, Q)
        if all(c == 0 for row in pw for c in row):
            break
        s = Fraction((-1) ** n)
        for i in range(H + 1):
            for j in range(Q + 1):
                res[i][j] += s * pw[i][j]
    return res


def witten_block_oracle(q_order, h_order=4):
    H, Q = h_order + 2, q_order
    em = _bv_zero(H, Q)
    ep = _bv_zero(H, Q)
    for i in range(H + 1):
        em[i][0] = Fraction((-1) ** i, math.factorial(i))
        ep[i][0] = Fraction(1, math.factorial(i))
    one_minus_em = [[-c for c in row] for row in em]
    one_minus_em[0][0] += 1
    todd = _bv_inv(
        [one_minus_em[i + 1] for i in range(H)] + [[F0] * (Q + 1)], H, Q
    )
    f = todd
    for n in range(1, Q + 1):
        qn = _bv_zero(H, Q)
        qn[0][n] = F1
        one = _bv_zero(H, Q)
        one[0][0] = F1
        num = [[one[i][j] - qn[i][j] for j in range(Q + 1)] for i in range(H + 1)]
        num = _bv_mul(num, num, H, Q)
        d1 = _bv_mul(qn, em, H, Q)
        d1 = [[one[i][j] - d1[i][j] for j in range(Q + 1)] for i in range(H + 1)]
        d2 = _bv_mul(qn, ep, H, Q)
        d2 = [[one[i][j] - d2[i][j] for j in range(Q + 1)] for i in range(H + 1)]
        f = _bv_mul(f, _bv_mul(num, _bv_mul(_bv_inv(d1, H, Q), _bv_inv(d2, H, Q), H, Q), H, Q), H, Q)
    fm = [[f[i][j] * (-1) ** i for j in range(Q + 1)] for i in range(H + 1)]
    g = _bv_mul(f, fm, H, Q)
    return {j: g[h_order][j] for j in range(Q + 1) if g[h_order][j] != 0}


# the c1=0 block of dimension 2k without any sigma product: the genus is
# the coefficient of h^{2k} in exp(sum_j 4 G_{2j}(q) h^{2j} / (2j)!) with
# G_{2j} = -B_{2j}/(4j) + sum_n sigma_{2j-1}(n) q^n


def bernoulli(n):
    """B_0, ..., B_n (B_1 = -1/2) from sum_{k<=m} C(m+1, k) B_k = 0."""
    B = [F1]
    for m in range(1, n + 1):
        B.append(-sum(math.comb(m + 1, k) * B[k] for k in range(m)) / (m + 1))
    return B


def divisor_power_sum(n, p):
    return sum(d ** p for d in range(1, n + 1) if n % d == 0)


def witten_eisenstein_oracle(dim, q_order):
    H, Q = dim, q_order
    B = bernoulli(H)
    S = _bv_zero(H, Q)
    for j in range(1, H // 2 + 1):
        scale = Fraction(4, math.factorial(2 * j))
        S[2 * j][0] = scale * (-B[2 * j] / (4 * j))
        for n in range(1, Q + 1):
            S[2 * j][n] = scale * divisor_power_sum(n, 2 * j - 1)
    # S has h-valuation 2, so exp(S) stops at S^{H/2}
    total = _bv_zero(H, Q)
    total[0][0] = F1
    power = _bv_zero(H, Q)
    power[0][0] = F1
    for m in range(1, H // 2 + 1):
        power = _bv_mul(power, S, H, Q)
        for i in range(H + 1):
            for j in range(Q + 1):
                total[i][j] += power[i][j] / math.factorial(m)
    return {j: total[H][j] for j in range(Q + 1) if total[H][j] != 0}


# polynomial quotient rings: payloads {exponent tuple: base payload} of a
# ring with a base and relations[i] = None (free) or (cap, replacement),
# read only through those attributes and the base's own operations: the
# reference for QuotientRing.mul and QuotientRing.invert


def q_reduce(ring, data):
    """Rewrite every monomial with g_i^cap_i -> replacement_i until no
    exponent reaches its cap, one work list for the whole payload."""
    base = ring.base
    out = {}
    work = list(data.items())
    while work:
        exps, coeff = work.pop()
        if base.is_zero(coeff):
            continue
        for i, rel in enumerate(ring.relations):
            if rel is not None and exps[i] >= rel[0]:
                cap, repl = rel
                rest = list(exps)
                rest[i] -= cap
                for r_exps, r_coeff in repl:
                    new_exps = tuple(x + y for x, y in zip(rest, r_exps))
                    work.append((new_exps, base.mul(coeff, r_coeff)))
                break
        else:
            s = base.add(out[exps], coeff) if exps in out else coeff
            if base.is_zero(s):
                out.pop(exps, None)
            else:
                out[exps] = s
    return out


def q_mul_then_reduce(ring, a, b):
    """The product as every pair of terms, then one reduction of the sum."""
    base = ring.base
    raw = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            p = base.mul(ca, cb)
            raw[e] = base.add(raw[e], p) if e in raw else p
    return q_reduce(ring, raw)


def q_invert_geometric(ring, a, steps=256):
    """1/a by the geometric series on the non-constant part, tried for
    a fixed number of products, then the ring's own linear solve in its
    monomial basis; products by q_mul_then_reduce."""
    base = ring.base
    zero_exps = (0,) * len(ring.gens)
    const = a.get(zero_exps, base.zero())
    rest = {e: c for e, c in a.items() if e != zero_exps}
    if not rest:
        return {zero_exps: base.invert(const)}
    if not base.is_zero(const) and base.is_unit(const):
        inv_const = {zero_exps: base.invert(const)}
        s = {e: base.neg(c) for e, c in q_mul_then_reduce(ring, inv_const, rest).items()}
        one = {zero_exps: base.one()}
        acc, power = one, one
        for _ in range(steps):
            power = q_mul_then_reduce(ring, power, s)
            if not power:
                return q_mul_then_reduce(ring, inv_const, acc)
            acc = dict(acc)
            for e, c in power.items():
                t = base.add(acc[e], c) if e in acc else c
                if base.is_zero(t):
                    acc.pop(e, None)
                else:
                    acc[e] = t
    return ring._invert_by_linear_solve(a)


# earlier composite paths: the Tate carry written per operation, and
# the quotient law transported in two steps


def tate_mul_by_carry_branch(group, p, q):
    """(g, a)(h, b) = (g +_F h, a + b) if a + b < 1, else
    ((g +_F h) -_F qhat, a + b - 1), as a (g, a) pair."""
    s = p.a + q.a
    g = law_apply(group.law, p.g, q.g)
    if s < 1:
        return g, s
    return law_apply(group.law, g, inverse_element(group.law, group.qhat)), s - 1


def tate_inv_by_carry_branch(group, p):
    """(g, 0)^-1 = ([-1](g), 0) and (g, a)^-1 = ([-1](g) +_F qhat, 1 - a)."""
    ig = inverse_element(group.law, p.g)
    if p.a == 0:
        return ig, Fraction(0)
    return law_apply(group.law, ig, group.qhat), 1 - p.a


def tate_reduce_by_inverted_shift(group, x, a):
    """(x, a) -> (x -_F [m](qhat), a - m) for m = floor a, subtracting
    the inverted shift even when m = 0."""
    a = Fraction(a)
    m = math.floor(a)
    shift = n_series_element(group.law, m, group.qhat)
    return law_apply(group.law, x, inverse_element(group.law, shift)), a - m


def quotient_law_two_step(H):
    """F/H: transport F along g_H = f_H / f_H'(0), then along the linear
    map t(x) = f_H'(0) x."""
    g, lead = lubin_coordinate(H)
    mid = transport(H.law, g).target
    t = series(H.law.ring, (X,), g.trunc).var(X) * lead
    return transport(mid, t).target
