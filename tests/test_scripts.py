"""The demo scripts run end to end as their users start them."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, timeout=180, env=env, cwd=ROOT,
    )


@pytest.mark.parametrize(
    "name,flag,value,reason",
    [
        ("witten_expansion.py", "--qorder", "-3", "must be nonnegative, got -3"),
        ("witten_expansion.py", "--top", "-2", "must be nonnegative, got -2"),
        ("theta_sigma_table.py", "--N", "-2", "must be nonnegative, got -2"),
        ("loop_compare.py", "--N", "-1", "must be nonnegative, got -1"),
        ("loop_compare.py", "--qorder", "-1", "must be nonnegative, got -1"),
        ("loop_compare.py", "--manifold", "cp2y", "cp2y: unknown manifold 'cp2y'"),
    ],
)
def test_bad_argv_is_a_usage_error(name, flag, value, reason):
    r = run_script(name, flag, value)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stderr.splitlines()[-1].endswith(f"error: {flag} {reason}")


def test_theta_sigma_table():
    r = run_script("theta_sigma_table.py", "--N", "6")
    assert r.returncode == 0, r.stderr
    assert "DIVERGES" not in r.stdout
    assert r.stdout.count("matches sigma") == 6


def test_witten_expansion():
    r = run_script("witten_expansion.py", "--qorder", "8", "--top", "4")
    assert r.returncode == 0, r.stderr
    # header, column titles, and one row per power of q
    assert len(r.stdout.splitlines()) == 2 + 9


def test_loop_compare_matches_the_cli(capsys):
    from fglcalc.cli import run

    for law in ("ga", "gm"):
        argv = ["--manifold", "cp2", "--law", law, "--N", "3"]
        r = run_script("loop_compare.py", *argv)
        assert r.returncode == 0, r.stderr
        assert run(["genus", "loop", *argv]) == 0
        assert r.stdout.splitlines()[1].strip() == capsys.readouterr().out.strip()
