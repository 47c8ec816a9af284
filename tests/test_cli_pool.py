"""Every argv of the benchmark's small_queries pool, run in-process and
checked against the frozen documents in perfbench/cli_expected.json.

The benchmark's own runner and check (perfbench/jobs.py) are imported
read-only, so a change that moves any pool output fails the test suite,
not only the benchmark."""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _perfbench_modules():
    """perfbench's jobs and workloads.  perfbench has an oracles module
    of its own, so the tests' one is set aside while they import."""
    saved_path, saved_oracles = list(sys.path), sys.modules.pop("oracles", None)
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("jobs"), importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.modules.pop("oracles", None)
        if saved_oracles is not None:
            sys.modules["oracles"] = saved_oracles


def test_small_queries_pool_matches_frozen_documents():
    jobs, workloads = _perfbench_modules()
    failures = []
    pool = workloads.pool_argv()
    for group, argv in pool:
        job = workloads.Job("cli", 0, (group, argv))
        try:
            jobs.check_cli(job, jobs.run_cli(job, None))
        except jobs.CheckFailed as e:
            failures.append(f"{' '.join(argv)}: {e}")
    assert len(pool) == 311
    assert failures == []
