"""Truncated multivariate power series over an exact coefficient ring.

A MultiSeries is a sparse polynomial representative of a series modulo
total degree > trunc.  The context (ring, vars, trunc) is part of the
type: binary operations insist on identical contexts, and explicit
conversions (lift_to, with_trunc, rename_vars) move between them.
Because truncation by total degree is a ring quotient, arithmetic here
is exact on the quotient with no window caveats.

Products and inverses have no loop of their own.  With each term packed
into one integer key (_pack), truncation by total degree is the order
of a one-variable series: a product is the coefficient layer's
PowerSeries.mul, and series_inverse is one long division, its invert,
over the homogeneous parts when there are several variables.

Substitution f(P_1, ..., P_n) groups the outer terms by the exponent
of the first variable and recurses: each group with exponent k > 0
costs one product with the cached power P_1^k, and at the last
variable the group is one linear combination sum c_e P_n^e of cached
powers, the coefficient ring's linear_combination (over Q one common
denominator and integer numerators).  No series is built per outer
term.  The order of evaluation cannot change a coefficient: truncation
by total degree is a ring quotient, so the grouped sum is the same
element as the term-by-term one.

Substitution is also the one place the truncation contract can be
violated silently, so it is guarded: substituted series must have zero
constant term unless the caller asserts that the polynomial is exact
(mode "exact") or takes responsibility for nilpotent constant parts
(mode "nilpotent", used by the group law machinery after sizing
truncations).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Optional

from .coefficients import (
    LaurentPolynomials,
    Payload,
    PowerSeries,
    Ring,
    RingElement,
    add_terms,
    repeated,
)
from .errors import (
    ConstantTermError,
    NotAUnitError,
    RingMismatchError,
    TruncationError,
)

Exps = tuple[int, ...]


def _compositions(total: int, parts: int):
    """All tuples of nonnegative ints of given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


class MultiSeries:
    __slots__ = ("ring", "vars", "trunc", "terms")

    def __init__(
        self,
        ring: Ring,
        vars: tuple[str, ...],
        trunc: int,
        terms: Optional[Mapping[Exps, Payload]] = None,
        *,
        _canonical: bool = False,
    ):
        if trunc < 0:
            raise ValueError("trunc must be nonnegative")
        if len(set(vars)) != len(vars):
            raise ValueError("variable names must be distinct")
        self.ring = ring
        self.vars = tuple(vars)
        self.trunc = trunc
        if terms is None:
            self.terms = {}
        elif _canonical:
            self.terms = dict(terms)
        else:
            cleaned: dict[Exps, Payload] = {}
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != len(self.vars):
                    raise ValueError(f"exponent tuple {exps} has wrong arity")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if sum(exps) > trunc:
                    continue
                c = ring.normalize(_to_payload(ring, c))
                if not ring.is_zero(c):
                    cleaned[exps] = c
            self.terms = cleaned

    # ------------------------------------------------------------------
    # context helpers

    def _same_context(self, other: "MultiSeries") -> None:
        if (
            self.ring != other.ring
            or self.vars != other.vars
            or self.trunc != other.trunc
        ):
            raise RingMismatchError(
                f"series contexts differ: ({self.ring.descriptor()}, {self.vars}, "
                f"{self.trunc}) vs ({other.ring.descriptor()}, {other.vars}, "
                f"{other.trunc})"
            )

    def _make(self, terms: dict) -> "MultiSeries":
        return MultiSeries(self.ring, self.vars, self.trunc, terms, _canonical=True)

    def zero(self) -> "MultiSeries":
        return self._make({})

    def one(self) -> "MultiSeries":
        return self.const(self.ring.one())

    def const(self, c) -> "MultiSeries":
        c = _to_payload(self.ring, c)
        if self.ring.is_zero(c):
            return self._make({})
        return self._make({(0,) * len(self.vars): c})

    def var(self, name: str) -> "MultiSeries":
        i = self.vars.index(name)
        exps = [0] * len(self.vars)
        exps[i] = 1
        if self.trunc < 1:
            return self._make({})
        return self._make({tuple(exps): self.ring.one()})

    # ------------------------------------------------------------------
    # inspection

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: Iterable[int]) -> RingElement:
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError("exponent tuple has wrong arity")
        if sum(exps) > self.trunc:
            raise TruncationError(
                f"coefficient at {exps} lies beyond truncation {self.trunc}"
            )
        return self.ring.wrap(self.terms.get(exps, self.ring.zero()))

    def constant_term(self) -> RingElement:
        return self.ring.wrap(
            self.terms.get((0,) * len(self.vars), self.ring.zero())
        )

    def sorted_terms(self) -> list[tuple[Exps, Payload]]:
        return sorted(self.terms.items())

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._same_context(other)
        return self._make(add_terms(self.ring, self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        ring = self.ring
        return self._make({e: ring.neg(c) for e, c in self.terms.items()})

    def _coerce(self, other):
        if isinstance(other, MultiSeries):
            return other
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"coefficient ring {other.ring.descriptor()} does not match "
                    f"{self.ring.descriptor()}"
                )
            return self.const(other.data)
        if isinstance(other, bool):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            return self.const(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, RingElement) or isinstance(other, (int, Fraction)):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not isinstance(other, MultiSeries):
            return NotImplemented
        self._same_context(other)
        # packed keys make the cut at total degree trunc the order of one
        # power series (_pack), so the one-variable product runs the pairs
        n, trunc = len(self.vars), self.trunc
        kernel = PowerSeries(self.ring, "t", (trunc + 1) ** max(n, 1) - 1)
        prod = kernel.mul(_pack(self.terms, trunc), _pack(other.terms, trunc))
        return self._make(_unpack(prod, trunc, n))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiSeries":
        if n < 0:
            return self.series_inverse() ** (-n)
        return repeated(operator.mul, self, n, self.one)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.vars == other.vars
            and self.trunc == other.trunc
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("series are not hashable")

    # ------------------------------------------------------------------
    # substitution and evaluation

    def substitute(
        self,
        bindings: Mapping[str, "MultiSeries"],
        mode: str = "strict",
    ) -> "MultiSeries":
        """Evaluate at series arguments.

        mode "strict": every substituted series must kill its constant
        term.  mode "exact": the caller asserts this polynomial is the
        whole series, making constant terms safe.  mode "nilpotent":
        constant terms must be nilpotent and the caller has sized the
        truncations so that dropped-tail contributions vanish in the
        coefficient ring.  Variables without a binding stay themselves,
        as variables of the target.

        The terms are grouped by the exponent of the first variable,
        then of the next (``_compose``): one product per group with a
        cached power, one linear combination of cached powers at the
        last variable.  The quotient by total degree > trunc is a ring,
        so this order gives the same coefficients as any other.
        """
        if mode not in ("strict", "exact", "nilpotent"):
            raise ValueError(f"unknown substitution mode {mode!r}")
        for name in bindings:
            if name not in self.vars:
                raise ValueError(f"unknown variable {name!r}")
        if not bindings:
            raise ValueError("no bindings given")
        target = next(iter(bindings.values()))
        full: dict[str, MultiSeries] = {}
        for v in self.vars:
            if v in bindings:
                s = bindings[v]
                target._same_context(s)
                full[v] = s
            else:
                if v not in target.vars:
                    raise RingMismatchError(
                        f"variable {v!r} is unbound and absent from the target"
                    )
                full[v] = target.var(v)
        if target.ring != self.ring:
            raise RingMismatchError(
                f"substitution across coefficient rings "
                f"({self.ring.descriptor()} vs {target.ring.descriptor()})"
            )
        if mode != "exact":
            for v, s in full.items():
                c = s.constant_term()
                if c.is_zero():
                    continue
                if mode == "strict":
                    raise ConstantTermError(
                        f"substituted series for {v!r} has constant term {c}"
                    )
                if self.ring.nilpotency_order(c.data, self.trunc + 1) is None:
                    raise ConstantTermError(
                        f"constant term {c} of binding for {v!r} is not "
                        f"nilpotent within the truncation"
                    )

        binds = [full[v] for v in self.vars]
        # powers of each binding, grown on demand; [binding] is P^1
        pows: list[list[MultiSeries]] = [[s] for s in binds]
        return target._make(_compose(list(self.terms.items()), 0, binds, pows))

    def eval_elements(
        self,
        values: Mapping[str, RingElement],
        mode: str = "strict",
    ) -> RingElement:
        """Evaluate at ring elements.

        In mode "strict" the joint nilpotency of the values must kill
        every monomial beyond the truncation; mode "exact" skips the
        check because the polynomial is the whole series.
        """
        if mode not in ("strict", "exact"):
            raise ValueError(f"unknown evaluation mode {mode!r}")
        ring = self.ring
        vals: list[Payload] = []
        for v in self.vars:
            if v not in values:
                raise ValueError(f"no value for variable {v!r}")
            elem = values[v]
            if isinstance(elem, RingElement):
                if elem.ring != ring:
                    raise RingMismatchError(
                        f"value for {v!r} lives in {elem.ring.descriptor()}"
                    )
                vals.append(elem.data)
            else:
                vals.append(ring.normalize(elem))

        pows: list[list[Payload]] = [[ring.one()] for _ in vals]

        def power(i: int, e: int) -> Payload:
            cache = pows[i]
            while len(cache) <= e:
                cache.append(ring.mul(cache[-1], vals[i]))
            return cache[e]

        if mode == "strict":
            k = self.trunc + 1
            count = 0
            for comp in _compositions(k, len(vals)):
                count += 1
                if count > 5000:
                    raise ConstantTermError(
                        "too many variables for the joint nilpotency check; "
                        "use an exact law or bind series instead"
                    )
                prod = ring.one()
                for i, e in enumerate(comp):
                    prod = ring.mul(prod, power(i, e))
                if not ring.is_zero(prod):
                    raise ConstantTermError(
                        "values are not jointly nilpotent within the "
                        "truncation; evaluation would be unsound"
                    )

        total = ring.zero()
        for exps, c in sorted(self.terms.items()):
            term = c
            for i, e in enumerate(exps):
                if e:
                    term = ring.mul(term, power(i, e))
            total = ring.add(total, term)
        return ring.wrap(total)

    # ------------------------------------------------------------------
    # calculus

    def derivative(self, var: str) -> "MultiSeries":
        i = self.vars.index(var)
        ring = self.ring
        out: dict[Exps, Payload] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                new = ring.mul(c, ring.from_int(e))
                # each output exponent has one preimage: nothing to sum
                if not ring.is_zero(new):
                    out[exps[:i] + (e - 1,) + exps[i + 1 :]] = new
        return self._make(out)

    def integrate(self, var: str) -> "MultiSeries":
        """Termwise antiderivative with zero constant; needs Q-scalars."""
        i = self.vars.index(var)
        ring = self.ring
        out: dict[Exps, Payload] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if sum(exps) + 1 > self.trunc:
                continue
            try:
                inv = ring.invert(ring.from_int(e + 1))
            except NotAUnitError as exc:
                raise NotAUnitError(
                    f"integration needs 1/{e + 1} in {ring.descriptor()}"
                ) from exc
            new = ring.mul(c, inv)
            if not ring.is_zero(new):
                out[exps[:i] + (e + 1,) + exps[i + 1 :]] = new
        return self._make(out)

    # ------------------------------------------------------------------
    # inversion and reversion

    def series_inverse(self) -> "MultiSeries":
        """Multiplicative inverse; the constant term must be a unit.

        One long division through degree trunc, on packed keys
        (_pack).  With at most one variable the key is the total
        degree; with more the coefficient of t^d is the homogeneous
        part of degree d, keyed by the digits below the degree digit."""
        n, trunc = len(self.vars), self.trunc
        ring, payload = self.ring, _pack(self.terms, trunc)
        if n > 1:
            # homogeneous products of degree <= trunc cannot carry
            low = (trunc + 1) ** (n - 1)
            ring, graded = LaurentPolynomials(ring, "z"), {}
            for key, c in payload.items():
                graded.setdefault(key // low, {})[key % low] = c
            payload = graded
        try:
            inv = PowerSeries(ring, "t", trunc).invert(payload)
        except NotAUnitError as exc:
            raise NotAUnitError(
                "series has non-unit constant term, cannot invert"
            ) from exc
        if n > 1:
            inv = {d * low + r: c for d, part in inv.items() for r, c in part.items()}
        return self._make(_unpack(inv, trunc, n))

    def reversion(self) -> "MultiSeries":
        """Compositional inverse of a univariate series with unit slope.

        Newton's iteration with one composition per step: from
        f(g) = x + err, the chain rule gives f'(g) g' = 1 + err', so
        the step g <- g - err / f'(g) is g <- g - err g' (1 + err')^-1.
        The top coefficients of the derivatives are lost to the
        truncation, but err has valuation >= 2, so the correction is
        exact through the truncation.  Modulo degree 1 every series
        without constant term is 0, and so is its inverse."""
        if len(self.vars) != 1:
            raise ValueError("reversion needs a univariate series")
        v = self.vars[0]
        if not self.constant_term().is_zero():
            raise ConstantTermError("reversion needs zero constant term")
        if self.trunc == 0:
            return self.zero()
        a1 = self.terms.get((1,), self.ring.zero())
        try:
            inv_a1 = self.ring.invert(a1)
        except NotAUnitError as exc:
            raise NotAUnitError("slope is not a unit, cannot revert") from exc
        x = self.var(v)
        g = x * self.ring.wrap(inv_a1)
        one = self.one()
        for _ in range(max(1, self.trunc).bit_length() + 2):
            err = self.substitute({v: g}) - x
            if err.is_zero():
                return g
            slope = one + err.derivative(v)
            g = g - err * g.derivative(v) * slope.series_inverse()
        if not (self.substitute({v: g}) - x).is_zero():
            raise RuntimeError("reversion failed to converge")
        return g

    # ------------------------------------------------------------------
    # context conversions

    def with_trunc(self, trunc: int) -> "MultiSeries":
        """Change the truncation order.

        Lowering drops terms and is always sound.  Raising keeps the
        stored terms and asserts, on the caller's authority, that the
        series really has no terms in between.
        """
        if trunc == self.trunc:
            return self
        terms = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        return MultiSeries(self.ring, self.vars, trunc, terms, _canonical=True)

    def rename_vars(self, mapping: Mapping[str, str]) -> "MultiSeries":
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        return MultiSeries(self.ring, new_vars, self.trunc, self.terms, _canonical=True)

    def lift_to(self, new_vars: tuple[str, ...]) -> "MultiSeries":
        """Reinterpret over a superset of variables."""
        positions = []
        for v in self.vars:
            if v not in new_vars:
                raise ValueError(f"variable {v!r} missing from target")
            positions.append(new_vars.index(v))
        n = len(new_vars)
        out = {}
        for exps, c in self.terms.items():
            new_exps = [0] * n
            for pos, e in zip(positions, exps):
                new_exps[pos] = e
            out[tuple(new_exps)] = c
        return MultiSeries(self.ring, tuple(new_vars), self.trunc, out, _canonical=True)

    def project_vars(self, keep: tuple[str, ...]) -> "MultiSeries":
        """Drop variables that never occur; error if one is in use."""
        drop_idx = [i for i, v in enumerate(self.vars) if v not in keep]
        for exps in self.terms:
            for i in drop_idx:
                if exps[i]:
                    raise ValueError(
                        f"variable {self.vars[i]!r} occurs, cannot project away"
                    )
        keep_idx = [self.vars.index(v) for v in keep]
        out = {}
        for exps, c in self.terms.items():
            out[tuple(exps[i] for i in keep_idx)] = c
        return MultiSeries(self.ring, tuple(keep), self.trunc, out, _canonical=True)

    def coefficient_in(self, var: str, k: int) -> "MultiSeries":
        """Coefficient of var^k as a series with var's slot zeroed."""
        i = self.vars.index(var)
        out = {}
        for exps, c in self.terms.items():
            if exps[i] == k:
                out[exps[:i] + (0,) + exps[i + 1 :]] = c
        return self._make(out)

    def map_coefficients(self, func: Callable[[Payload], Payload], ring: Ring) -> "MultiSeries":
        out = {}
        for exps, c in self.terms.items():
            new = func(c)
            if not ring.is_zero(new):
                out[exps] = new
        return MultiSeries(ring, self.vars, self.trunc, out, _canonical=True)

    # ------------------------------------------------------------------
    # printing

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            ctext = self.ring.text(c)
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps)
                if e
            )
            if not mono:
                piece = ctext
            elif ctext == "1":
                piece = mono
            elif ctext == "-1":
                piece = f"-{mono}"
            else:
                piece = f"{ctext}*{mono}"
            parts.append(piece)
        text = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                text += " - " + piece[1:]
            else:
                text += " + " + piece
        return text

    def __repr__(self):
        return (
            f"<series {self.vars} trunc {self.trunc} over "
            f"{self.ring.descriptor()}: {self}>"
        )


def _to_payload(ring: Ring, c) -> Payload:
    if isinstance(c, RingElement):
        if c.ring != ring:
            raise RingMismatchError(
                f"coefficient lives in {c.ring.descriptor()}, "
                f"not {ring.descriptor()}"
            )
        return c.data
    if isinstance(c, bool):
        raise TypeError("bool is not a coefficient")
    if isinstance(c, int):
        return ring.from_int(c)
    if isinstance(c, Fraction):
        return ring.from_fraction(c)
    return c


def _pack(terms: Mapping[Exps, Payload], trunc: int) -> dict[int, Payload]:
    """Each term keyed by the digits, in base B = trunc + 1, of its total
    degree and then of every exponent but the last.  A product of degree
    <= trunc adds keys without carry; one above it sums to >= B ** n."""
    b = trunc + 1
    out = {}
    for exps, c in terms.items():
        key = sum(exps)
        for e in exps[:-1]:
            key = key * b + e
        out[key] = c
    return out


def _unpack(packed: Mapping[int, Payload], trunc: int, n: int) -> dict[Exps, Payload]:
    """The terms of n variables that _pack keyed as packed."""
    if n == 0:
        return {(): c for c in packed.values()}
    b = trunc + 1
    out = {}
    for key, c in packed.items():
        exps = []
        for _ in range(n - 1):
            key, e = divmod(key, b)
            exps.insert(0, e)
        exps.append(key - sum(exps))  # key is now the total degree
        out[tuple(exps)] = c
    return out


def _power(binds: list[MultiSeries], pows: list[list[MultiSeries]], i: int, e: int) -> MultiSeries:
    """binds[i] ** e for e >= 1, from the cache pows[i] of P^1, P^2, ..."""
    cache = pows[i]
    while len(cache) < e:
        cache.append(cache[-1] * binds[i])
    return cache[e - 1]


def _compose(
    terms: list[tuple[Exps, Payload]],
    i: int,
    binds: list[MultiSeries],
    pows: list[list[MultiSeries]],
) -> dict[Exps, Payload]:
    """The terms of sum c * prod_{j >= i} binds[j] ** e_j over the outer
    terms (e, c), in the context of the bindings.

    The terms are grouped by e_i, and each group with e_i = k > 0 costs
    one product with the cached power binds[i] ** k.  At the last
    variable the sum is one linear combination of cached powers, so no
    series is built per outer term.  The state goes down as arguments,
    not through a self-referencing closure, which would hold every
    cached power in a garbage cycle."""
    target = binds[i]
    ring = target.ring
    if i == len(binds) - 1:
        const = (0,) * len(target.vars)
        return ring.linear_combination(
            [
                (c, _power(binds, pows, i, e[i]).terms) if e[i] else (None, {const: c})
                for e, c in terms
            ]
        )
    groups: dict[int, list[tuple[Exps, Payload]]] = {}
    for term in terms:
        groups.setdefault(term[0][i], []).append(term)
    parts = []
    for k, group in groups.items():
        inner = _compose(group, i + 1, binds, pows)
        if k and inner:
            inner = (_power(binds, pows, i, k) * target._make(inner)).terms
        parts.append((None, inner))
    if len(parts) == 1:
        return parts[0][1]
    return ring.linear_combination(parts)


def divide_by_var(f: MultiSeries) -> MultiSeries:
    """f / x for a univariate f with no constant term, truncated one
    degree lower."""
    if len(f.vars) != 1:
        raise ValueError("need a univariate series")
    shifted = {}
    for exps, c in f.terms.items():
        if exps[0] == 0:
            raise ValueError("series must vanish at 0")
        shifted[(exps[0] - 1,)] = c
    return MultiSeries(f.ring, f.vars, f.trunc - 1, shifted, _canonical=True)


def series(ring: Ring, vars: Iterable[str], trunc: int, terms=None) -> MultiSeries:
    """Public constructor normalizing arbitrary coefficient inputs."""
    return MultiSeries(ring, tuple(vars), trunc, terms or {})
