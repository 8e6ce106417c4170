"""Smoke runs of the standalone scripts on the smallest inputs.

The scripts live outside the package, so each is run as a subprocess
and checked on its exit code and its final summary or error line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TINY = ("--p", "2", "--e", "1", "--sigma", "0,1", "--dims", "1,2")


def run_script(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, argv, last_line", [
    pytest.param("component_census.py", TINY, "global:    1 component(s)",
                 id="component_census"),
    pytest.param("survey_class.py", TINY + ("--full-group",),
                 "index               1108800", id="survey_class"),
    pytest.param("hunt_rank_only.py", ("--seeds", "1"),
                 "1/1 seeds produced a verified pair", id="hunt_rank_only"),
])
def test_script_runs_to_its_summary(script, argv, last_line):
    proc = run_script(script, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == last_line


def test_script_reports_a_bad_class_in_one_line():
    proc = run_script("survey_class.py", "--dims", "1,x")
    assert proc.returncode == 1
    assert proc.stderr == "error: dims must be an integer, got 'x'\n"
