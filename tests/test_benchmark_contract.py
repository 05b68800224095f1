"""The benchmark's contract with the CLI: every workload's default-seed
command runs, passes `checks.check_run` against the committed references,
and its set-up probe builds the workload.

The benchmark files are imported read-only; a CLI change that breaks
`--workers 1`, `resolve_config(..., workers=1)`, an output file or one of
verify's four printed checks fails here.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "benchmarks")
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def _run(args, stdout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]
    out_dir = str(tmp_path / "out")
    stdout_path = str(tmp_path / "stdout.txt")
    with open(stdout_path, "w") as fh:
        proc = _run(["-m", "odebc.cli", *workload.argv(DEFAULT_SEED, out_dir)], fh)
    assert proc.returncode == 0, proc.stderr
    problems = checks.check_run(workload, DEFAULT_SEED, out_dir, stdout_path,
                                os.path.join(BENCH, "reference"))
    assert problems == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_setup_probe_builds_the_workload(name):
    proc = _run([os.path.join(BENCH, "probe_setup.py"),
                 *WORKLOADS[name].config_args(DEFAULT_SEED)], subprocess.PIPE)
    assert proc.returncode == 0, proc.stderr
    _, origin = proc.stdout.split()
    assert origin.startswith(SRC + os.sep)
