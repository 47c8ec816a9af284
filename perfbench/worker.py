"""One workload process: a closed loop with one client and no threads.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--probe]

Started by run.py, which times it from spawn to the ``ready`` line (set
up: interpreter start, ``import fglcalc``, input generation).  A probe
exits right after that line.  Otherwise the worker runs whole decks of
jobs, one at a time, up to the deck boundary nearest to ``--seconds``
of timed job time (untraced), or runs a fixed number of decks
untraced and then the same decks traced (``--trace 1``).  Each job's
output is checked outside its timed span.  Between jobs, outside the
timed spans, the worker records machine-speed probes (calibrate.py) to
scale the job times with.  The JSON report for run.py goes to
``--report``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402

PROBE_EVERY = 0.08


def _run_decks(decks, jobs_mod, probes, tracer=None):
    """Run decks job by job; return (job seconds, failed count, failures
    other than known defects).  Append each job's start to
    ``probes["starts"]`` and, outside the timed spans, a machine-speed
    probe to ``probes["probes"]`` after every PROBE_EVERY seconds of
    job time."""
    times, unexpected = [], []
    failed = n = 0
    since_probe = 0.0
    for deck in decks:
        for job in deck:
            prepare, run, check = jobs_mod.handlers(job.kind)
            inputs = prepare(job)
            if tracer is not None:
                tracer.job = n
            t0 = time.perf_counter()
            try:
                result = run(job, inputs)
                error = None
            except Exception as e:  # a raising job is a failed job
                error = f"{type(e).__name__}: {e}"
            times.append(time.perf_counter() - t0)
            since_probe += times[-1]
            if error is None:
                try:
                    check(job, result)
                except Exception as e:  # a malformed result fails its check
                    error = f"check: {type(e).__name__}: {e}"
            if error is not None:
                failed += 1
                if not jobs_mod.is_known_defect(job):
                    unexpected.append(f"{job.kind} {job.params}: {error}")
            n += 1
            probes["starts"].append(t0)
            if since_probe >= PROBE_EVERY:
                probes["probes"].append(calibrate.probe())
                since_probe = 0.0
    return times, failed, unexpected


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--report", default="", help="file for the JSON report")
    ap.add_argument("--spans", default="", help="file for the traced spans")
    a = ap.parse_args()

    import jobs as jobs_mod
    import workloads

    stream = workloads.job_stream(a.workload, a.seed)
    first = next(stream)
    print("ready", flush=True)
    if a.probe:
        return

    # the first probes warm the probe up and give the first jobs a speed
    probes = {"starts": [], "probes": [calibrate.probe() for _ in range(calibrate.NEAREST)]}
    report = {}
    if a.trace:
        decks = [first] + [next(stream) for _ in range(workloads.TRACE_DECKS[a.workload] - 1)]
        plain, _, _ = _run_decks(decks, jobs_mod, probes)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        times, failed, unexpected = _run_decks(decks, jobs_mod, probes, tracer)
        tracer.uninstall()
        layers = tracer.metrics()
        # the machine may change speed between the two passes
        scaled = calibrate.scale(zip(probes["starts"], plain + times), probes["probes"])
        layers["trace.overhead_frac"] = (sum(scaled[len(plain) :]) / sum(scaled[: len(plain)]) - 1, "ratio")
        report["layers"] = layers
        if a.spans:
            tracer.dump(a.spans)
        jobs_run = [j for d in decks for j in d]
        deck_sizes = [len(d) for d in decks]
    else:
        jobs_run, times, unexpected, deck_sizes = [], [], [], []
        failed = 0
        deck = first
        report["probes"] = probes
        while True:
            t, f, u = _run_decks([deck], jobs_mod, probes)
            failed += f
            times += t
            unexpected += u
            jobs_run += deck
            deck_sizes.append(len(deck))
            # stop at the deck boundary nearest to --seconds
            if sum(times) + sum(t) / 2 >= a.seconds:
                break
            deck = next(stream)

    report.update(
        times=times,
        deck_sizes=deck_sizes,
        failed=failed,
        known_defect_jobs=sum(1 for j in jobs_run if jobs_mod.is_known_defect(j)),
        unexpected=unexpected[:20],
        unexpected_count=len(unexpected),
        repeat_share=workloads.repeat_share(jobs_run),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    with open(a.report, "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
