"""fglcalc benchmark: seeded workloads, exact output checks, per-layer trace.

    python3 perfbench/run.py --workload law_calculus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout (src/fglcalc must exist).  Each
workload runs in its own fresh process as a closed loop: one client,
no threads, one job at a time.  With ``--trace 0`` the end-to-end
metrics are printed by name and unit with their sample counts; with
``--trace 1`` a separate traced run prints the per-layer metrics and
``trace.overhead_frac``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when any job fails other than the small_queries
argv listed as a known defect (see workloads.KNOWN_DEFECT_GROUP);
``failed`` counts every failed job, known defects included.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("law_calculus", "q_expansion", "small_queries")
SETUP_PROBES = 9
WORKER_TIMEOUT = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _spawn(args, deadline):
    """Start a worker; return (process, seconds from spawn to ready)."""
    with open(os.path.join(OUT, "worker.stderr"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=err,
        )
    try:
        remaining = deadline - time.perf_counter()
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"worker did not start (see {OUT}/worker.stderr)")
    except BaseException:
        _stop(proc)
        raise
    return proc, setup


def _finish(proc, deadline):
    try:
        proc.wait(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        _stop(proc)
        raise BenchError("worker ran past its time limit")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode} (see {OUT}/worker.stderr)")


def run_workload(name, seed, seconds, trace):
    deadline = time.perf_counter() + WORKER_TIMEOUT
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups, start_probes = [], []
    if not trace:
        for _ in range(SETUP_PROBES - 1):
            start_probes += [calibrate.start_probe() for _ in range(2)]
            start = time.perf_counter()
            proc, s = _spawn(base + ["--probe"], deadline)
            _finish(proc, deadline)
            setups.append((start, s))
        start_probes += [calibrate.start_probe() for _ in range(2)]
    report_path = os.path.join(OUT, f"report-{name}-{seed}-{trace}.json")
    spans_path = os.path.join(OUT, f"spans-{name}-{seed}.jsonl.gz")
    extra = ["--report", report_path] + (["--spans", spans_path] if trace else [])
    start = time.perf_counter()
    proc, s = _spawn(base + extra, deadline)
    setups.append((start, s))
    _finish(proc, deadline)
    with open(report_path) as fh:
        report = json.load(fh)
    report["setups"] = setups
    report["start_probes"] = start_probes
    return report


def _deck_rates(deck_sizes, times):
    """Jobs per second of job time in each deck: every deck holds the
    same job mix, so the median over decks shrugs off a burst of
    machine contention that the run-wide ratio would absorb."""
    rates, i = [], 0
    for size in deck_sizes:
        rates.append(size / sum(times[i : i + size]))
        i += size
    return rates


def e2e_metrics(report):
    """End-to-end metrics, every time scaled to the reference machine
    speed (see calibrate.py)."""
    probes = report["probes"]
    scaled = calibrate.scale(zip(probes["starts"], report["times"]), probes["probes"])
    times = sorted(scaled)
    n = len(times)
    k = max(n - TAIL_BEYOND - 1, 0)
    rates = _deck_rates(report["deck_sizes"], scaled)
    setups = calibrate.scale(report["setups"], report["start_probes"], calibrate.START_REFERENCE_S)
    return {
        "jobs_per_s": (statistics.median(rates), "1/s", len(rates)),
        "job_p50_s": (statistics.median(times), "s", n),
        "job_tail_s": (times[k], "s", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (report["peak_rss_mb"], "MB", 1),
    }, 100.0 * (k + 1) / n


def _print_report(name, seed, report, trace):
    n = len(report["times"])
    failed = report["failed"]
    print(
        f"{name} seed {seed}: {n} jobs, {sum(report['times']):.2f} s of job time, "
        f"{n - failed} checked ok, {failed} failed "
        f"({report['known_defect_jobs']} known-defect argv in the mix), "
        f"repeated inputs {report['repeat_share']:.3f}"
    )
    for line in report["unexpected"]:
        print(f"  unexpected failure: {line}")
    if trace:
        for key, (value, unit) in report["layers"].items():
            shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
            print(f"  {key:40s} {shown} {unit}")
        return {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
    metrics, pct = e2e_metrics(report)
    speed = statistics.median(s for _, s in report["probes"]["probes"])
    start = statistics.median(s for _, s in report["start_probes"])
    print(f"  machine speed: probe median {speed * 1e3:.3f} ms (reference {calibrate.REFERENCE_S * 1e3:.3f}), "
          f"bare interpreter start {start * 1e3:.1f} ms (reference {calibrate.START_REFERENCE_S * 1e3:.1f}); "
          f"times below are scaled to the references")
    for key, (value, unit, count) in metrics.items():
        note = f"  p{pct:.1f}" if key == "job_tail_s" else ""
        print(f"  {key:14s} {value:12.6f} {unit:4s} (n={count}){note}")
    print(f"  {'failed_frac':14s} {failed / n:12.6f} {'':4s} (n={n})")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def main():
    ap = argparse.ArgumentParser(description="fglcalc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fglcalc", "__init__.py")):
        print(f"no fglcalc sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    # the build: byte-compile once so no timed set-up pays for compiling
    for path in (os.path.join(SRC, "fglcalc"), HERE):
        if not compileall.compile_dir(path, quiet=1):
            print(f"byte-compiling {path} failed", file=sys.stderr)
            return 2

    names = WORKLOADS if a.workload == "all" else (a.workload,)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for name in names:
            report = run_workload(name, a.seed, a.seconds, a.trace)
            shown = _print_report(name, a.seed, report, a.trace)
            prefix = f"{name}." if a.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in shown.items()})
            attempted += len(report["times"])
            failed += report["failed"]
            correct = correct and report["unexpected_count"] == 0
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
