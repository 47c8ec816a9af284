"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces fglcalc's public functions and the series
and ring methods named in TIMED_METHODS with wrappers, at the class attribute
and in every module namespace that holds the function (``genus`` and
``quotient`` keep their own ``transport`` binding, for example).
Nothing under src/ changes.

Timed wrappers record a span (name, start, end, parent span, job id)
and aggregate per name: calls, inclusive time (outermost activation
only, so recursion is not counted twice) and self time (duration minus
the time covered by traced child spans).  The tracer's own bookkeeping
after a call, such as the pair-yield counts, is subtracted from every
enclosing span.  Base-ring operations are counted but not timed: a
timer per Fraction operation would cost more than the operation, so
the self time of a caller includes its base-ring arithmetic and the
counting wrappers' cost.

Layers the tracer cannot see from outside: the Fraction operations that
``Rationals.add``/``mul`` call (inlined, so counted through the ring
methods only), and ``_SeriesLike._check_exponent`` per pair (measured
as ``pair_yield`` instead of a call count, which would cost a wrapper
call per pair).
"""

from __future__ import annotations

import bisect
import gzip
import json
import sys
import time
from array import array
from types import FunctionType

# (layer metric prefix, module, attribute path) of every timed method;
# module-level public functions of the modules in APP_MODULES are timed too
TIMED_METHODS = (
    ("coefficients.series.mul", "fglcalc.coefficients", "_SeriesLike.mul"),
    ("coefficients.series.invert", "fglcalc.coefficients", "PowerSeries.invert"),
    ("coefficients.series.invert", "fglcalc.coefficients", "LaurentSeries.invert"),
    ("coefficients.series.invert", "fglcalc.coefficients", "LaurentPolynomials.invert"),
    ("coefficients.polyquot.mul", "fglcalc.coefficients", "QuotientRing.mul"),
    ("coefficients.polyquot.invert", "fglcalc.coefficients", "QuotientRing.invert"),
    ("polyseries.mul", "fglcalc.polyseries", "MultiSeries.__mul__"),
    ("polyseries.mul", "fglcalc.polyseries", "MultiSeries.__rmul__"),
    ("polyseries.substitute", "fglcalc.polyseries", "MultiSeries.substitute"),
    ("polyseries.series_inverse", "fglcalc.polyseries", "MultiSeries.series_inverse"),
    ("polyseries.reversion", "fglcalc.polyseries", "MultiSeries.reversion"),
    ("polyseries.eval_elements", "fglcalc.polyseries", "MultiSeries.eval_elements"),
    ("cli.run", "fglcalc.cli", "run"),
    ("cli.render", "fglcalc.cli", "emit"),
)
BASE_RINGS = ("Rationals", "Integers", "IntegersMod", "GaussianRationals")
BASE_OPS = ("add", "mul", "is_zero", "invert")
APP_MODULES = ("fgl", "tate", "genus", "prospectrum", "quotient", "equivariant")

MAX_SPANS = 200_000
_INHERITED = object()


class _Agg:
    __slots__ = ("calls", "incl", "self_s", "active")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.aggs: list[_Agg] = []
        self.counts: dict[str, list[int]] = {}
        self.stack: list[list] = []  # [span id, child seconds]
        self.ovh = 0.0  # bookkeeping seconds, excluded from every span
        self.job = -1
        self.next_id = 0
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_job = array("i")
        self.span_t = array("d")  # start, end pairs
        self.dropped = 0
        self.pairs = {"coefficients.series.mul": [0, 0], "polyseries.mul": [0, 0]}
        self.peak_terms = 0
        self._saved: list[tuple] = []

    # ------------------------------------------------------------------
    # wrappers

    def _name(self, name):
        if name in self.names:
            return self.names.index(name)
        self.names.append(name)
        self.aggs.append(_Agg())
        return len(self.names) - 1

    def timed(self, name, fn, post=None):
        idx = self._name(name)
        agg = self.aggs[idx]
        tracer = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = clock()
            stack = tracer.stack
            span = tracer.next_id
            tracer.next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            agg.active += 1
            t0 = clock()
            tracer.ovh += t0 - t_in
            ovh0 = tracer.ovh
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                d = t1 - t0 - (tracer.ovh - ovh0)
                stack.pop()
                agg.active -= 1
                agg.calls += 1
                agg.self_s += d - frame[1]
                if not agg.active:
                    agg.incl += d
                if stack:
                    stack[-1][1] += d
                if len(tracer.span_name) < MAX_SPANS:
                    tracer.span_id.append(span)
                    tracer.span_name.append(idx)
                    tracer.span_parent.append(parent)
                    tracer.span_job.append(tracer.job)
                    tracer.span_t.append(t0)
                    tracer.span_t.append(t1)
                else:
                    tracer.dropped += 1
                if ok and post is not None:
                    post(args, result)
                tracer.ovh += clock() - t1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # work counters computed after the call

    def _series_pairs(self, args, result):
        ring, a, b = args[0], args[1], args[2]
        hi = ring._hi()
        visited = len(a) * len(b)
        if hi is None:
            inside = visited
        else:
            eb = sorted(b)
            inside = sum(bisect.bisect_right(eb, hi - e) for e in a)
        cell = self.pairs["coefficients.series.mul"]
        cell[0] += inside
        cell[1] += visited

    def _multi_pairs(self, args, result):
        a, b = args[0], args[1]
        if type(b) is not type(a):
            hist_b = {0: 1}
        else:
            hist_b = {}
            for e in b.terms:
                d = sum(e)
                hist_b[d] = hist_b.get(d, 0) + 1
        hist_a = {}
        for e in a.terms:
            d = sum(e)
            hist_a[d] = hist_a.get(d, 0) + 1
        inside = sum(
            ca * cb for da, ca in hist_a.items() for db, cb in hist_b.items() if da + db <= a.trunc
        )
        cell = self.pairs["polyseries.mul"]
        cell[0] += inside
        cell[1] += len(a.terms) * sum(hist_b.values())
        self._peak(args, result)

    def _peak(self, args, result):
        terms = getattr(result, "terms", None)
        if terms is not None and len(terms) > self.peak_terms:
            self.peak_terms = len(terms)

    # ------------------------------------------------------------------
    # installation

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _INHERITED)))
        setattr(owner, attr, value)

    def install(self):
        import fglcalc  # noqa: F401  (loads every submodule)

        mods = {n: m for n, m in sys.modules.items() if n == "fglcalc" or n.startswith("fglcalc.")}
        replace = {}  # id(original function) -> wrapper

        coeff = mods["fglcalc.coefficients"]
        for cls_name in BASE_RINGS:
            cls = getattr(coeff, cls_name)
            for op in BASE_OPS:
                self._set(cls, op, self.counted(f"coefficients.base.{op}", getattr(cls, op)))

        posts = {
            "coefficients.series.mul": self._series_pairs,
            "polyseries.mul": self._multi_pairs,
        }
        for name, mod_name, path in TIMED_METHODS:
            owner = mods[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            post = posts.get(name, self._peak if name.startswith("polyseries.") else None)
            wrapper = replace.get(id(fn)) or self.timed(name, fn, post)
            if isinstance(owner, type):
                self._set(owner, attr, wrapper)
            else:
                replace[id(fn)] = wrapper

        for layer in APP_MODULES:
            mod = mods[f"fglcalc.{layer}"]
            for attr, obj in vars(mod).items():
                if isinstance(obj, FunctionType) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self.timed(f"{layer}.{attr}", obj)
        cli = mods["fglcalc.cli"]
        for attr, obj in vars(cli).items():
            if attr.startswith("_cmd_") and isinstance(obj, FunctionType):
                replace[id(obj)] = self.timed("cli.compute", obj)

        # rebind every namespace holding an original
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and isinstance(obj, FunctionType):
                    self._set(mod, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # results

    def _agg(self, name):
        return self.aggs[self.names.index(name)] if name in self.names else _Agg()

    def layer_self(self, prefix):
        return sum(a.self_s for n, a in zip(self.names, self.aggs) if n.split(".")[0] == prefix)

    def metrics(self) -> dict:
        def calls(name):
            return self._agg(name).calls

        def incl(name):
            return self._agg(name).incl

        def self_s(name):
            return self._agg(name).self_s

        def yield_(name):
            inside, visited = self.pairs[name]
            return inside / visited if visited else 0.0

        m = {}
        for op in BASE_OPS:
            m[f"coefficients.base.{op}.calls"] = (self.counts.get(f"coefficients.base.{op}", [0])[0], "count")
        m["coefficients.series.mul.calls"] = (calls("coefficients.series.mul"), "count")
        m["coefficients.series.mul.self_s"] = (self_s("coefficients.series.mul"), "s")
        m["coefficients.series.invert.calls"] = (calls("coefficients.series.invert"), "count")
        m["coefficients.series.mul.pair_yield"] = (yield_("coefficients.series.mul"), "ratio")
        m["coefficients.polyquot.mul.calls"] = (calls("coefficients.polyquot.mul"), "count")
        m["coefficients.polyquot.mul.self_s"] = (self_s("coefficients.polyquot.mul"), "s")
        m["coefficients.polyquot.invert.calls"] = (calls("coefficients.polyquot.invert"), "count")
        m["polyseries.mul.calls"] = (calls("polyseries.mul"), "count")
        m["polyseries.mul.self_s"] = (self_s("polyseries.mul"), "s")
        m["polyseries.mul.pair_yield"] = (yield_("polyseries.mul"), "ratio")
        m["polyseries.substitute.calls"] = (calls("polyseries.substitute"), "count")
        m["polyseries.substitute.self_s"] = (self_s("polyseries.substitute"), "s")
        m["polyseries.series_inverse.calls"] = (calls("polyseries.series_inverse"), "count")
        m["polyseries.reversion.s"] = (incl("polyseries.reversion"), "s")
        m["polyseries.peak_terms"] = (self.peak_terms, "count")
        m["polyseries.self_s"] = (self.layer_self("polyseries"), "s")
        m["fgl.check_law_axioms.calls"] = (calls("fgl.check_law_axioms"), "count")
        for fn in ("check_law_axioms", "transport", "n_series", "fgl_exp", "from_log"):
            m[f"fgl.{fn}.s"] = (incl(f"fgl.{fn}"), "s")
        m["fgl.self_s"] = (self.layer_self("fgl"), "s")
        for fn in ("sigma_series", "theta_multiplicative_L", "theta_series", "exact_sequence_check"):
            m[f"tate.{fn}.s"] = (incl(f"tate.{fn}"), "s")
        m["tate.self_s"] = (self.layer_self("tate"), "s")
        for fn in ("genus_eval", "loop_genus", "loop_genus_sigma"):
            m[f"genus.{fn}.s"] = (incl(f"genus.{fn}"), "s")
        m["genus.self_s"] = (self.layer_self("genus"), "s")
        m["prospectrum.stabilize.s"] = (incl("prospectrum.stabilize"), "s")
        m["prospectrum.self_s"] = (self.layer_self("prospectrum"), "s")
        m["quotient.quotient_law.s"] = (incl("quotient.quotient_law"), "s")
        m["quotient.self_s"] = (self.layer_self("quotient"), "s")
        m["equivariant.euler_class.s"] = (incl("equivariant.euler_class"), "s")
        m["equivariant.self_s"] = (self.layer_self("equivariant"), "s")
        m["cli.calls"] = (calls("cli.run"), "count")
        m["cli.parse_s"] = (self_s("cli.run"), "s")
        m["cli.compute_s"] = (incl("cli.compute"), "s")
        m["cli.render_s"] = (incl("cli.render"), "s")
        return m

    def dump(self, path):
        """Write the kept spans as gzipped JSON lines: a header with the
        span names, then [span, name, start, end, parent span, job]."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"names": self.names, "dropped_spans": self.dropped}) + "\n")
            t = self.span_t
            for i in range(len(self.span_name)):
                fh.write(
                    f'[{self.span_id[i]},{self.span_name[i]},{t[2 * i]:.7f},{t[2 * i + 1]:.7f},'
                    f"{self.span_parent[i]},{self.span_job[i]}]\n"
                )
