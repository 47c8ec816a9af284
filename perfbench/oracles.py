"""Independent reference values for the benchmark's output checks.

Nothing here imports fglcalc.  Every routine is a direct dense
computation over Python ints and Fractions, built from a different
identity than the engine uses where one is known:

* transported laws from the closed form G(x, y) = theta(F(u(x), u(y)))
  with u the Lagrange inverse of theta, instead of the engine's
  substitution and Newton reversion;
* sigma(L, q) from the Jacobi triple product divided by Jacobi's
  identity for (q; q)^3, instead of the Weierstrass product;
* the c1-zero Witten genus from Eisenstein series, instead of sigma;
* cutoff theta products and loop-genus densities from shift-and-subtract
  and geometric-series closed forms.

Univariate series are lists ``a[i]`` (coefficient of x^i), bivariate
series are dicts ``{(i, j): c}``, q-series over Laurent polynomials in
L are dicts ``{q_exp: {L_exp: c}}``; zero coefficients are never
stored in dicts.
"""

from __future__ import annotations

import math
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)


# ----------------------------------------------------------------------
# univariate dense series, truncated at degree n (inclusive)


def u_trim(a, n):
    return (list(a) + [0] * (n + 1))[: n + 1]


def u_mul(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j, bj in enumerate(b[: n + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def u_inv(a, n):
    """1/a for a[0] a unit (+-1 over Z, nonzero over Q)."""
    out = [0] * (n + 1)
    inv0 = 1 / Fraction(a[0]) if abs(a[0]) != 1 else a[0]
    out[0] = inv0
    for k in range(1, n + 1):
        s = 0
        for j in range(1, min(k, len(a) - 1) + 1):
            if a[j]:
                s += a[j] * out[k - j]
        out[k] = -s * inv0
    return out


def u_compose(f, g, n):
    """f(g(x)) for g(0) = 0, by Horner."""
    f = u_trim(f, n)
    top = max((i for i, c in enumerate(f) if c), default=0)
    acc = [0] * (n + 1)
    acc[0] = f[top]
    for k in range(top - 1, -1, -1):
        acc = u_mul(acc, g, n)
        acc[0] += f[k]
    return acc


def u_revert(f, n):
    """Compositional inverse of f with f(0) = 0, f'(0) = 1, by Lagrange
    inversion: [x^k] f^{-1} = (1/k) [t^{k-1}] (t / f(t))^k."""
    if f[0] != 0 or f[1] != 1:
        raise ValueError("need a strict coordinate")
    h = u_inv(u_trim(f[1:], n), n)  # t / f(t)
    out = [0] * (n + 1)
    power = [1] + [0] * n
    for k in range(1, n + 1):
        power = u_mul(power, h, n)
        c = Fraction(power[k - 1], k)
        out[k] = int(c) if c.denominator == 1 else c
    return out


def u_pow_one_minus_x(k, n):
    """(1 - x)^k for any integer k, by the binomial series."""
    out = [0] * (n + 1)
    c = 1
    for i in range(n + 1):
        out[i] = c
        c = c * (k - i) // (i + 1) * -1 if k >= 0 else c * (-k + i) // (i + 1)
    if k >= 0:
        return [out[i] if i <= k else 0 for i in range(n + 1)]
    return out


def log_gm(n):
    """-log(1 - x) = sum x^k / k."""
    return [0] + [Fraction(1, k) for k in range(1, n + 1)]


def exp_gm(n):
    """1 - e^{-x}."""
    return [0] + [Fraction((-1) ** (k + 1), math.factorial(k)) for k in range(1, n + 1)]


def law_log(law, n):
    return [0, 1] + [0] * (n - 1) if law == "ga" else log_gm(n)


def law_exp(law, n):
    return [0, 1] + [0] * (n - 1) if law == "ga" else exp_gm(n)


def law_n_series(law, k, n):
    """[k](x): k x for the additive law, 1 - (1 - x)^k for the
    multiplicative one."""
    if law == "ga":
        return [0, k] + [0] * (n - 1)
    p = u_pow_one_minus_x(k, n)
    return [1 - p[0]] + [-c for c in p[1:]]


# ----------------------------------------------------------------------
# bivariate dense series truncated by total degree n


def b_from_x(a, n):
    return {(i, 0): c for i, c in enumerate(a[: n + 1]) if c}


def b_from_y(a, n):
    return {(0, j): c for j, c in enumerate(a[: n + 1]) if c}


def b_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def b_scale(a, c):
    return {e: v * c for e, v in a.items()} if c else {}


def b_mul(a, b, n):
    out = {}
    for (i1, j1), c1 in a.items():
        d1 = i1 + j1
        for (i2, j2), c2 in b.items():
            if d1 + i2 + j2 > n:
                continue
            e = (i1 + i2, j1 + j2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def b_compose(f, s, n):
    """f(s(x, y)) for univariate f and s(0, 0) = 0, by Horner."""
    f = u_trim(f, n)
    top = max((i for i, c in enumerate(f) if c), default=0)
    acc = {(0, 0): f[top]} if f[top] else {}
    for k in range(top - 1, -1, -1):
        acc = b_mul(acc, s, n)
        if f[k]:
            acc = b_add(acc, {(0, 0): f[k]})
    return acc


def law_apply_dense(law, a, b, n):
    """F(a, b) for bivariate a, b: a + b, or a + b - a b."""
    s = b_add(a, b)
    if law == "gm":
        s = b_add(s, b_scale(b_mul(a, b, n), -1))
    return s


def transported_law(law, theta, n):
    """G(x, y) = theta(F(u(x), u(y))) with u = theta^{-1}."""
    u = u_revert(theta, n)
    inner = law_apply_dense(law, b_from_x(u, n), b_from_y(u, n), n)
    return b_compose(theta, inner, n)


def uni_dict(a):
    """Dense univariate list as the engine's {(i,): c} term dict."""
    return {(i,): c for i, c in enumerate(a) if c}


def mod_dict(terms, m):
    out = {}
    for e, c in terms.items():
        c = Fraction(c)
        r = c.numerator * pow(c.denominator, -1, m) % m
        if r:
            out[e] = r
    return out


# ----------------------------------------------------------------------
# q-series over Laurent polynomials in L: {q_exp: {L_exp: c}}


def _lq_add_term(out, qe, le, c):
    row = out.setdefault(qe, {})
    s = row.get(le, 0) + c
    if s:
        row[le] = s
    else:
        row.pop(le, None)
        if not row:
            del out[qe]


def lq_times_one_minus(a, dq, dl, q_order):
    """a * (1 - q^dq L^dl), truncated at q_order."""
    out = {qe: dict(row) for qe, row in a.items()}
    for qe, row in a.items():
        if qe + dq > q_order:
            continue
        for le, c in row.items():
            _lq_add_term(out, qe + dq, le + dl, -c)
    return out


def lq_div_one_minus_q(a, k, q_order):
    """a / (1 - q^k): running sums along q-strides of k."""
    out = {qe: dict(row) for qe, row in a.items()}
    for qe in range(k, q_order + 1):
        prev = out.get(qe - k)
        if not prev:
            continue
        for le, c in prev.items():
            _lq_add_term(out, qe, le, c)
    return out


def lq_shift_L(a, dl, sign=1):
    return {qe: {le + dl: sign * c for le, c in row.items()} for qe, row in a.items()}


def sigma_jacobi(q_order):
    """sigma(L, q) = sum_n (-1)^n q^{n(n-1)/2} L^n
                     / sum_m (-1)^m (2m+1) q^{m(m+1)/2}."""
    denom = [0] * (q_order + 1)
    m = 0
    while m * (m + 1) // 2 <= q_order:
        denom[m * (m + 1) // 2] += (-1) ** m * (2 * m + 1)
        m += 1
    inv = u_inv(denom, q_order)  # over Z: denom[0] = 1
    numer = [(0, 0, 1)]
    n = 1
    while n * (n - 1) // 2 <= q_order:
        for nn in (n, -n):
            e = nn * (nn - 1) // 2
            if e <= q_order:
                numer.append((e, nn, (-1) ** nn))
        n += 1
    out = {}
    for e, ln, sign in numer:
        for j in range(q_order - e + 1):
            if inv[j]:
                _lq_add_term(out, e + j, ln, sign * inv[j])
    return out


def sigma_modified_oracle(r, q_order):
    """q^{-T} (-L)^m sigma(L, q) with m = floor(r), T = m(m+1)/2."""
    m = math.floor(Fraction(r))
    T = m * (m + 1) // 2
    sig = sigma_jacobi(q_order + T)
    shifted = lq_shift_L(sig, m, (-1) ** m)
    return {qe - T: row for qe, row in shifted.items() if qe - T <= q_order}


def theta_cutoff_oracle(cutoff, q_order):
    """(raw, normalized): raw = (1 - L) L^N prod_{k<=N} (1 - q^k L)
    (1 - q^k L^{-1}) / (1 - q^k)^2 and normalized = raw L^{-N}."""
    acc = {0: {0: 1, 1: -1}}
    for k in range(1, cutoff + 1):
        acc = lq_times_one_minus(acc, k, 1, q_order)
        acc = lq_times_one_minus(acc, k, -1, q_order)
        acc = lq_div_one_minus_q(acc, k, q_order)
        acc = lq_div_one_minus_q(acc, k, q_order)
    return lq_shift_L(acc, cutoff), acc


# ----------------------------------------------------------------------
# genera over Q[[q]]: a series in h with q-series coefficients is a
# list over h-degree of lists over q-degree


def _hq_zero(H, Q):
    return [[F0] * (Q + 1) for _ in range(H + 1)]


def hq_mul(a, b, H, Q):
    out = _hq_zero(H, Q)
    for i in range(H + 1):
        for j in range(Q + 1):
            c = a[i][j]
            if not c:
                continue
            for k in range(H + 1 - i):
                row = b[k]
                orow = out[i + k]
                for l in range(Q + 1 - j):
                    if row[l]:
                        orow[j + l] += c * row[l]
    return out


def hq_pow(a, m, H, Q):
    out = _hq_zero(H, Q)
    out[0][0] = F1
    for _ in range(m):
        out = hq_mul(out, a, H, Q)
    return out


def _todd_gm(H):
    """h / (1 - e^{-h}) to h-degree H."""
    body = [Fraction((-1) ** (k + 2), math.factorial(k + 1)) for k in range(H + 1)]
    return u_inv(body, H)


def loop_density_gm(cutoff, H, Q):
    """h / Theta(1 - e^{-h}) for the cutoff-N multiplicative theta:
    h/(1-e^{-h}) * e^{N h} * prod_{k<=N} (1-q^k)^2
        / ((1 - q^k e^{-h}) (1 - q^k e^{h}))."""
    d = _hq_zero(H, Q)
    todd = _todd_gm(H)
    for i in range(H + 1):
        for a in range(i + 1):
            d[i][0] += todd[a] * Fraction(cutoff ** (i - a), math.factorial(i - a))
    for k in range(1, cutoff + 1):
        if k > Q:
            break
        factor = _hq_zero(H, Q)
        # sum_{j,l} q^{(j+l)k} e^{(l-j)h}, geometric series in both
        for j in range(Q // k + 1):
            for l in range(Q // k + 1 - j):
                s = l - j
                for i in range(H + 1):
                    factor[i][(j + l) * k] += Fraction(s ** i, math.factorial(i))
        one_minus = [F0] * (Q + 1)
        one_minus[0] = F1
        if k <= Q:
            one_minus[k] = -F1
        sq = u_mul(one_minus, one_minus, Q)
        for i in range(H + 1):
            factor[i] = u_mul(factor[i], sq, Q)
        d = hq_mul(d, factor, H, Q)
    return d


def genus_blocks(blocks, density, Q):
    """Product over blocks (top, ((scale, mult), ...)) of the coefficient
    of h^top in prod density(scale h)^mult; blocks use separate
    variables, so the genus factorizes."""
    total = [F1] + [F0] * Q
    for top, roots in blocks:
        H = top
        acc = _hq_zero(H, Q)
        acc[0][0] = F1
        for scale, mult in roots:
            scaled = [[c * scale ** i for c in density[i]] for i in range(H + 1)]
            acc = hq_mul(acc, hq_pow(scaled, mult, H, Q), H, Q)
        total = u_mul(total, acc[top], Q)
    return total


def bernoulli(n):
    """B_0..B_n with B_1 = -1/2."""
    B = [F0] * (n + 1)
    for m in range(n + 1):
        B[m] = F1 if m == 0 else -sum(
            math.comb(m + 1, k) * B[k] for k in range(m)
        ) / (m + 1)
    return B


def witten_c1zero_oracle(top, Q):
    """Genus of the c1-zero block of dimension top: the coefficient of
    h^top in exp(sum_j 4 G_{2j}(q) h^{2j} / (2j)!), with
    G_{2j} = -B_{2j}/(4j) + sum_n sigma_{2j-1}(n) q^n."""
    if top % 2:
        return [F0] * (Q + 1)
    B = bernoulli(top)
    P = [[F0] * (Q + 1) for _ in range(top + 1)]
    for j in range(1, top // 2 + 1):
        G = [F0] * (Q + 1)
        G[0] = -B[2 * j] / (4 * j)
        for n in range(1, Q + 1):
            G[n] = Fraction(sum(dv ** (2 * j - 1) for dv in range(1, n + 1) if n % dv == 0))
        scale = Fraction(4, math.factorial(2 * j))
        P[2 * j] = [g * scale for g in G]
    # E = exp(P): n e_n = sum_{i=1}^n i p_i e_{n-i}
    E = [[F0] * (Q + 1) for _ in range(top + 1)]
    E[0][0] = F1
    for n in range(1, top + 1):
        acc = [F0] * (Q + 1)
        for i in range(1, n + 1):
            if any(P[i]):
                prod = u_mul(P[i], E[n - i], Q)
                for t in range(Q + 1):
                    acc[t] += i * prod[t]
        E[n] = [c / n for c in acc]
    return E[top]


def sigma_in_x_ratio(trunc, Q):
    """sigma(1 - x, q) / x as a list over x-degree (0..trunc) of
    q-series, from the Jacobi form of sigma."""
    sig = sigma_jacobi(Q)
    n = trunc + 1
    out = [[F0] * (Q + 1) for _ in range(n + 1)]
    for qe, row in sig.items():
        for le, c in row.items():
            p = u_pow_one_minus_x(le, n)
            for i, pc in enumerate(p):
                if pc:
                    out[i][qe] += c * pc
    if any(out[0]):
        raise ArithmeticError("sigma(1, q) should vanish")
    return out[1:]


def stabilize_oracle(roots, trunc, Q):
    """prod over roots (name, mult) of (sigma(1 - x, q) / x)^mult as
    {exponent tuple: {q_exp: c}} over the sorted root variables,
    truncated at total degree trunc."""
    ratio = sigma_in_x_ratio(trunc, Q)
    names = sorted({r for r, _ in roots})
    acc = {tuple([0] * len(names)): [F1] + [F0] * Q}
    for r, m in roots:
        pos = names.index(r)
        per = hq_pow(ratio, m, trunc, Q)
        nxt = {}
        for e, c in acc.items():
            for i in range(trunc + 1 - sum(e)):
                prod = u_mul(c, per[i], Q)
                if any(prod):
                    e2 = list(e)
                    e2[pos] += i
                    e2 = tuple(e2)
                    cur = nxt.get(e2)
                    nxt[e2] = prod if cur is None else [a + b for a, b in zip(cur, prod)]
        acc = nxt
    out = {}
    for e, c in acc.items():
        row = {qe: v for qe, v in enumerate(c) if v}
        if row:
            out[e] = row
    return out
