"""The benchmark's contract with the CLI: every workload's default-seed
command runs, passes `checks.check_run` against the committed references,
and its set-up probe builds the workload.

The benchmark files are imported read-only; a CLI change that breaks
`--workers 1`, `resolve_config(..., workers=1)`, an output file or one of
verify's four printed checks fails here. So does a change to what the
traced run counts: the state rows of every `sampler.run_solver` call must
add up to the workload's `rows`, in the workload's number of solves.
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

from helpers import trace_solves  # noqa: E402
from odebc import cli  # noqa: E402


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


@pytest.mark.parametrize("name,solves", [("search-8x8", 3),
                                         ("independence-32x32", 1),
                                         ("verify", 10)])
def test_traced_rows_and_invariants_at_another_seed(name, solves, tmp_path,
                                                    monkeypatch, capsys):
    # In process, with `run_solver` wrapped wherever odebc holds it, as the
    # benchmark's tracer does: a padded or re-routed solve fails here, and
    # so does a near-tie argmin that the checker's sums would break
    # differently. verify has fixed seeds; it runs as at any seed.
    workload = WORKLOADS[name]
    traced = trace_solves(monkeypatch)
    monkeypatch.chdir(ROOT)
    out_dir = str(tmp_path / "out")
    assert cli.run(workload.argv(7, out_dir)) == 0
    rows = [shape[0] if len(shape) == 2 else 1 for _, shape in traced]
    assert sum(rows) == workload.rows
    assert len(rows) == solves
    stdout_path = tmp_path / "stdout.txt"
    stdout_path.write_text(capsys.readouterr().out)
    assert checks.check_run(workload, 7, out_dir, str(stdout_path), None) == []
