"""Seeded workload generator.

A workload is an endless stream of *decks*.  A deck is a fixed list of
slots, each a job kind with a narrow size band; the seed picks every
input inside its band (theta coefficients, k, q-orders, manifolds,
CLI arguments) and shuffles the deck.  Every deck therefore holds the
same mix of job kinds and sizes, which keeps the job-time quantiles of
a run steady from seed to seed, while no two seeds give the same
inputs.  Jobs are independent: no job reads state left by another.

Run ``python3 perfbench/workloads.py --seed 0`` to print, per workload,
why it exists, the deck's job count, the size ranges and the share of
repeated inputs over a number of decks.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from fractions import Fraction

WHY = {
    "law_calculus": (
        "dense bivariate and trivariate law series over Q (some Z, Z/p^k): "
        "loads polyseries mul/substitute/reversion, fgl check_law_axioms "
        "and Fraction arithmetic; bypasses the series payloads"
    ),
    "q_expansion": (
        "few-term q-series with heavy coefficients: loads series payloads "
        "(laurpoly(Z), powser(Q), laurent), tate, genus and prospectrum; "
        "bypasses polyseries and fgl"
    ),
    "small_queries": (
        "README-scale CLI argv run in-process: loads cli parsing and "
        "rendering, polyquot and Z/n rings, and per-call fixed costs"
    ),
}


@dataclass(frozen=True)
class Job:
    """One unit of work.  ``params`` is hashable and fully determines
    the inputs; ``size`` is the job's size parameter for the ranges."""

    kind: str
    size: int
    params: tuple


# ----------------------------------------------------------------------
# law_calculus

# no integer coefficients over Q: pairs such as (-1, 1/3) or (-2, 1)
# make a transported law nearly additive and the job several times
# cheaper than its slot
_Q_COEFFS = tuple(Fraction(c) for c in ("1/2", "-1/2", "1/3", "-1/3", "2/3", "-2/3", "3/2", "-3/2"))
_Z_COEFFS = (1, -1, 2, -2, 3, -3)
_MODULI = (8, 9, 16, 25, 27, 49)


def _theta(rng, count, pool=_Q_COEFFS):
    """Coefficients c_2..c_{count+1} of x + c_2 x^2 + ..., all nonzero."""
    return tuple(rng.choice(pool) for _ in range(count))


# A law_calculus deck has 20 slots in three cost tiers: six heavy slots, with the four
# heaviest of about equal cost (the tail quantile, 10 jobs from the top,
# falls among them for runs of 3 to 9 decks); eight middle slots of about
# equal cost (the median lies between the 10th and 11th slot of 20, the
# middle of this tier, for any number of decks; the more middle slots,
# the less the median moves with the seed's inputs); and six light
# slots.  A q_expansion deck follows the same plan with five middle
# slots (17 in all; its median is the 9th).  The tiers keep job_tail_s
# and job_p50_s on the same jobs from seed to seed.


def deck_law_calculus(rng):
    def th(count):
        return _theta(rng, count)

    def k(*choices):
        return rng.choice(choices)

    slots = [
        # heavy: trunc 14-16 laws, each validated by check_law_axioms
        Job("transport", 16, ("Q", "ga", 16, th(2))),
        Job("transport", 16, ("Q", "gm", 16, th(2))),
        Job("fgl_exp", 15, ("Q", "gm", 15, th(2))),
        Job("from_log", 16, ("Q", "ga", 16, th(2))),
        Job("n_series", 14, ("Q", "ga", 14, k(-5, -6, -7), th(2))),
        Job("fgl_exp", 14, ("Q", "ga", 14, th(3))),
        # middle
        Job("fgl_log", 14, ("Q", "ga", 14, th(3))),
        Job("is_homomorphism", 14, ("Q", "gm", 14, th(2), None)),
        Job("transport", 14, ("Q", "gm", 14, th(3))),
        Job("n_series", 14, ("Q", "gm", 14, k(5, 6), th(2))),
        Job("n_series", 12, ("Q", "ga", 12, k(-7, -9), th(3))),
        Job("fgl_log", 14, ("Q", "ga", 14, th(3))),
        Job("is_homomorphism", 14, ("Q", "gm", 14, th(2), None)),
        Job("transport", 14, ("Q", "gm", 14, th(3))),
        # light: trunc 10-12 laws, and n-series of the raw law over Z/p^k
        Job("is_homomorphism", 12, ("Q", "ga", 12, th(3), (rng.randint(2, 12), rng.choice(_Q_COEFFS)))),
        Job("from_log", 12, ("Q", "gm", 12, th(3))),
        Job("transport", 12, ("Q", "gm", 12, th(4))),
        Job("transport", 12, ("Z", "gm", 12, _theta(rng, 2, _Z_COEFFS))),
        Job("transport", 10, (f"Z/{rng.choice(_MODULI)}", "ga", 10, _theta(rng, 2, _Z_COEFFS))),
        Job("n_series", 22, (f"Z/{rng.choice(_MODULI)}", "gm", 22, k(*range(2, 10), *range(-9, -1)), ())),
    ]
    rng.shuffle(slots)
    return slots


# ----------------------------------------------------------------------
# q_expansion

_MANIFOLDS = ("cp1", "cp2", "cp1xcp1")
_R_FRACS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4))


def deck_q_expansion(rng):
    def loop():
        return Job("loop_genus", 4, (rng.choice(_MANIFOLDS), rng.randint(2, 4), rng.randint(6, 10)))

    def stab():
        blocks = rng.choice(((("x", 1),), (("x", 2),), (("x", 1), ("y", 1))))
        return Job("stabilize", 6, (blocks, rng.randint(4, 8), rng.randint(2, 4)))

    slots = [
        # heavy: sigma near q-order 36 and the widest cutoff products
        Job("sigma_series", 36, (rng.randint(35, 37),)),
        Job("sigma_modified", 36, (1 + rng.choice(_R_FRACS), rng.randint(34, 36))),
        Job("sigma_modified", 36, (2 + rng.choice(_R_FRACS), rng.randint(32, 34))),
        Job("theta_multiplicative_L", 52, (8, rng.randint(51, 53))),
        Job("sigma_series", 28, (rng.randint(27, 29),)),
        Job("theta_multiplicative_L", 40, (6, rng.randint(39, 41))),
        # middle
        Job("sigma_series", 16, (rng.randint(15, 17),)),
        Job("sigma_modified", 13, (2 + rng.choice(_R_FRACS), rng.randint(12, 14))),
        Job("theta_multiplicative_L", 25, (4, rng.randint(24, 26))),
        Job("loop_genus_sigma", 10, (10, rng.choice((8, 9)))),
        Job("loop_genus_sigma", 6, (6, rng.randint(13, 15))),
        # light: loop genera on small manifolds and stabilization
        loop(), loop(), loop(), loop(),
        stab(), stab(),
    ]
    rng.shuffle(slots)
    return slots


# ----------------------------------------------------------------------
# small_queries: a finite pool of argv, so every expected output can be
# frozen once (see freeze_cli.py)


def _grid(template, **axes):
    out = [template]
    for key, values in axes.items():
        out = [t.replace("{" + key + "}", str(v)) for t in out for v in values]
    return [tuple(t.split()) for t in out]


POOL = {
    "fgl_construct": _grid(
        "fgl construct --law {law} --ring {ring} --trunc {t}",
        law=("ga", "gm"), ring=("Q", "Z", "Z/9", "Z/8", "powser(Q;q;4)"), t=(4, 6, 8),
    ),
    "fgl_validate": _grid(
        "fgl validate --law {law} --ring {ring} --trunc {t}",
        law=("ga", "gm"), ring=("Q", "Z/9"), t=(4, 6, 8),
    ),
    "fgl_logexp": _grid("fgl {a} --law {law} --trunc {t}", a=("log", "exp"), law=("ga", "gm"), t=(6, 8, 10)),
    "fgl_nseries": _grid(
        "fgl nseries --law {law} --k {k} --trunc {t} --ring {ring}",
        law=("ga", "gm"), k=(-5, -3, -2, 2, 3, 6), t=(4, 8), ring=("Q", "Z", "Z/27"),
    ),
    "fgl_transport": _grid(
        "fgl transport --law {law} --theta {th} --trunc {t}",
        law=("ga", "gm"), th=("1/2", "1,-1", "1/3,1/4"), t=(5, 6, 7),
    ),
    "quotient_mu3": _grid("quotient --case mu3 --trunc {t}", t=(4, 5, 6)),
    "quotient_additive": _grid("quotient --case additive --p {p} --trunc {t}", p=(2, 3, 5), t=(4, 6, 8)),
    "theta_gm": _grid("theta --law gm --N {n} --qorder {q}", n=(2, 3), q=(4, 6)),
    "theta_ga": _grid("theta --law ga --N {n} --trunc {t}", n=(2, 3), t=(3, 4, 5)),
    "sigma": _grid("sigma --qorder {q}", q=(3, 4, 6, 8, 10)),
    "sigma_modified": _grid("sigma --modified {r} --qorder {q}", r=("1/2", "3/2", "5/2"), q=(3, 5)),
    "tate_point": _grid("tate mul --artin {a} --law {law} --x 1,1/2 --y 2,2/3", a=("z4", "z8", "z9"), law=("ga", "gm"))
    + _grid("tate inv --artin {a} --law {law} --x 3,1/4", a=("z4", "z8", "z9"), law=("ga", "gm"))
    + _grid("tate order --artin {a} --law {law} --x {x}", a=("z4", "z8", "z9"), law=("ga", "gm"), x=("1,1/3", "2,1/2")),
    "tate_exact_seq": _grid(
        "tate exact-seq --artin {a} --law {law} --samples {s} --seed {seed}",
        a=("z4", "z8", "z9"), law=("ga", "gm"), s=(10, 20), seed=(0, 1),
    ),
    "euler": _grid(
        "euler --law {law} --blocks {b} --qorder {q}",
        law=("ga", "gm"), b=("none:1:1,none:-1:1", "x:1:1", "x:0:1,y:1:2", "x:1:1,none:2:1"), q=(4, 6),
    ),
    "genus_classical": _grid("genus {a} --manifold {m}", a=("todd", "ahat"), m=("cp1", "cp2", "cp3", "cp1xcp1"))
    + _grid("genus eval --manifold {m} --coeffs 1,1/2,1/12", m=("cp1", "cp2", "cp1xcp1")),
    "genus_chi": _grid("genus chi --manifold {m} --r {r}", m=("cp1", "cp2"), r=("1/2", "1/3", "1/4", "1/6")),
    "genus_loop": _grid(
        "genus loop --manifold {m} --law {law} --N {n}", m=("cp1", "cp2", "cp1xcp1"), law=("ga", "gm"), n=(2, 3)
    ),
    "genus_rr": _grid(
        "genus rr-check --manifold {m} --law {law} --theta {th}", m=("cp1", "cp2"), law=("ga", "gm"), th=("1/2", "1,1/3")
    ),
    "tower": _grid("tower {a} --law {law} --blocks x:0:1 --n {n}", a=("transition", "u"), law=("ga", "gm"), n=(1, 2))
    + _grid("tower stabilize --law gm --blocks {b} --qorder {q}", b=("x:0:1", "x:0:2"), q=(3, 4))
    + _grid("tower omega-check --law ga --blocks x:0:1 --n {n}", n=(2, 3))
    + _grid("tower relative --law ga --blocks x:0:1 --N {n}", n=(1, 2)),
    # malformed argv: the CLI contract is exit 2 with one named reason
    "malformed_known_defect": _grid("sigma --modified {r} --qorder {q}", r=("1/0", "3/0"), q=(3, 4))
    + _grid("fgl transport --law {law} --theta {th}", law=("ga", "gm"), th=("1/0", "1/2,1/0")),
    "malformed": [
        tuple(s.split())
        for s in (
            "fgl nseries --law gx",
            "fgl construct --ring Z/1",
            "genus chi --r 1",
            "genus todd --manifold cp2y",
            "tate mul --x 1,3/2",
            "euler --blocks x:1",
            "sigma --qorder six",
        )
    ],
}

# argv whose contracted exit-2 outcome currently ends in a traceback
# (an uncaught ZeroDivisionError from Fraction("1/0")); they stay in the
# mix so that failed_frac shows the defect until it is fixed
KNOWN_DEFECT_GROUP = "malformed_known_defect"
MALFORMED_GROUPS = ("malformed", KNOWN_DEFECT_GROUP)

_SMALL_DECK = {
    "fgl_construct": 2, "fgl_validate": 1, "fgl_logexp": 2, "fgl_nseries": 4,
    "fgl_transport": 2, "quotient_mu3": 2, "quotient_additive": 1, "theta_gm": 1,
    "theta_ga": 1, "sigma": 2, "sigma_modified": 1, "tate_point": 3,
    "tate_exact_seq": 2, "euler": 3, "genus_classical": 3, "genus_chi": 1,
    "genus_loop": 3, "genus_rr": 1, "tower": 3,
    "malformed": 1, KNOWN_DEFECT_GROUP: 1,
}


def deck_small_queries(rng):
    slots = []
    for group, count in _SMALL_DECK.items():
        for _ in range(count):
            argv = rng.choice(POOL[group])
            slots.append(Job("cli", 0, (group, ("--format", "json") + argv)))
    rng.shuffle(slots)
    return slots


def pool_argv():
    """Every argv the small_queries workload can draw, with its group."""
    return [(g, ("--format", "json") + a) for g, argvs in POOL.items() for a in argvs]


DECKS = {
    "law_calculus": deck_law_calculus,
    "q_expansion": deck_q_expansion,
    "small_queries": deck_small_queries,
}

# decks run by the traced pass (and by its untraced twin): a fixed
# number, so per-layer counts repeat exactly for a given seed
TRACE_DECKS = {"law_calculus": 1, "q_expansion": 1, "small_queries": 4}


def job_stream(workload: str, seed: int):
    """Endless iterator over decks; the same seed gives the same decks."""
    if workload not in DECKS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    make = DECKS[workload]
    while True:
        yield make(rng)


def repeat_share(jobs) -> float:
    """Share of jobs whose inputs already occurred earlier in the list."""
    if not jobs:
        return 0.0
    distinct = len({(j.kind, j.params) for j in jobs})
    return 1 - distinct / len(jobs)


def describe(workload: str, seed: int, decks: int) -> dict:
    stream = job_stream(workload, seed)
    jobs = [j for _ in range(decks) for j in next(stream)]
    sizes: dict[str, list[int]] = {}
    for j in jobs:
        if j.kind != "cli":
            sizes.setdefault(j.kind, []).append(j.size)
    return {
        "workload": workload,
        "why": WHY[workload],
        "jobs_per_deck": len(jobs) // decks,
        "decks": decks,
        "size_ranges": {k: [min(v), max(v)] for k, v in sorted(sizes.items())},
        "repeat_share": round(repeat_share(jobs), 4),
        "cli_pool_argv": len(pool_argv()) if workload == "small_queries" else 0,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--decks", type=int, default=10)
    a = ap.parse_args()
    for name in DECKS:
        print(json.dumps(describe(name, a.seed, a.decks), sort_keys=True))


if __name__ == "__main__":
    main()
