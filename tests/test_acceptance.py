"""Acceptance gate: the nine product checks, one test each.

Every test prints a `criterion N: PASS/FAIL (...)` line with the measured
numbers (run pytest -s to see the lines on passing runs). Checks 1-4 run
`odebc verify`'s own checks (`cli._check_*` and `cli._convergence_errors`),
at larger sizes where a check takes a size. Checks 5-9 drive the installed
CLI end to end on the default 8x8 world; those runs are shared through a
module fixture and executed at two worker counts so the determinism check
can byte-compare the outputs.
"""

import csv
import glob
import json
import os
import time

import numpy as np
import pytest

from odebc import cli
from odebc.sampler import SolverKind


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_score_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    times = [float(rng.uniform(0.02, 0.98)) for _ in range(100)]
    ok, detail = cli._check_score_fd(times)
    secs = time.perf_counter() - t0
    _report(1, ok and secs < 10.0,
            f"100 times, prior and posterior, {detail}, {secs:.1f}s")


def test_criterion_2_telescoping_with_zero_denoiser():
    ok, detail = cli._check_telescoping()
    _report(2, ok, f"plans 2/50/1000 points, {detail}")


def test_criterion_3_solver_convergence_order():
    t0 = time.perf_counter()
    *ddim, dpm2_20, ddim_20 = cli._convergence_errors(
        [(SolverKind.DDIM, n) for n in (10, 25, 50, 100)]
        + [(SolverKind.DPM_SOLVER_2, 20), (SolverKind.DDIM, 20)])
    secs = time.perf_counter() - t0
    ok = (all(a > b for a, b in zip(ddim, ddim[1:])) and ddim[-1] < 1e-2
          and dpm2_20 < ddim_20 and secs < 60.0)
    _report(3, ok,
            "ddim-10/25/50/100 errs " + "/".join(f"{e:.1e}" for e in ddim)
            + f" (monotone, last < 1e-02); dpm2-20 {dpm2_20:.1e} < ddim-20 "
            f"{ddim_20:.1e}; {secs:.1f}s")


def test_criterion_4_sampler_marginals_match_world():
    t0 = time.perf_counter()
    ok, detail = cli._check_marginals(n=10_000)
    secs = time.perf_counter() - t0
    _report(4, ok and secs < 120.0,
            f"1e4 samples, ddpm-1000 / ddim-1000 {detail}, {secs:.0f}s")


# The CLI studies below all run on the default world (8x8, block 2, two
# modes split by a checker offset the degradation pools away).
_SEARCH_BASE = ("search",
                "--set", "search.candidate_seed=9",
                "--set", "search.references=64",
                "--set", "search.reference_seed=21")


def _study_commands() -> dict[str, list[str]]:
    cmds = {"search": [*_SEARCH_BASE,
                       "--set", "search.candidates=256",
                       "--set", "run.holdout=64",
                       "--set", "run.holdout_seed=22",
                       "--set", "search.n_random=64",
                       "--set", "run.random_seed=77"]}
    for k in (16, 32, 64, 128):
        cmds[f"search_k{k}"] = [*_SEARCH_BASE,
                                "--set", f"search.candidates={k}",
                                "--set", "run.holdout=0"]
    cmds["ablate_r"] = ["ablate-r",
                        "--set", "run.pairs=24",
                        "--set", "run.seed=101",
                        "--set", "run.holdout=12",
                        "--set", "run.holdout_seed=102",
                        "--set", "run.sizes=[1,2,4,8,16]",
                        "--set", "run.repeats=8",
                        "--set", "run.k_fixed=200",
                        "--set", "search.candidate_seed=111"]
    cmds["ablate_k"] = ["ablate-k",
                        "--set", "search.references=20",
                        "--set", "search.reference_seed=103",
                        "--set", "run.holdout=12",
                        "--set", "run.holdout_seed=102",
                        "--set", "run.sizes=[10,20,40,80,160]",
                        "--set", "run.repeats=8",
                        "--set", "search.candidate_seed=112"]
    cmds["independence"] = ["independence",
                            "--set", "run.conditions=10",
                            "--set", "run.condition_seed=2",
                            "--set", "search.candidates=100",
                            "--set", "search.candidate_seed=3"]
    return cmds


@pytest.fixture(scope="module")
def studies(tmp_path_factory):
    base = tmp_path_factory.mktemp("studies")
    out = {}
    for name, args in _study_commands().items():
        for workers in (8, 1):
            dest = str(base / f"{name}_w{workers}")
            t0 = time.perf_counter()
            assert cli.run([*args, "--workers", str(workers),
                            "--out", dest]) == 0
            if workers == 8:
                out[name] = dest
                out[f"{name}_secs"] = time.perf_counter() - t0
            else:
                out[f"{name}_w1"] = dest
    return out


def _gain_row(search_dir: str) -> dict:
    with open(os.path.join(search_dir, "gain.csv"), newline="") as fh:
        return next(csv.DictReader(fh))


def test_criterion_5_searched_bc_transfers_to_holdout(studies):
    row = _gain_row(studies["search"])
    gain = float(row["gain_sigmas"])
    secs = studies["search_secs"]
    _report(5, gain >= 1.0 and secs < 300.0,
            f"K=256 R=64, held-out l2 {float(row['searched_mean']):.4f} vs "
            f"random {float(row['random_mean']):.4f}+-"
            f"{float(row['random_std']):.4f} (n=64), gain {gain:.2f} sigma "
            f"(need >= 1), {secs:.0f}s")


def test_criterion_6_prefix_candidate_sets_monotone(studies):
    best = []
    for k in (16, 32, 64, 128, 256):
        name = "search" if k == 256 else f"search_k{k}"
        with open(os.path.join(studies[name], "summary.json")) as fh:
            best.append(json.load(fh)["best_objective"])
    ok = all(a >= b for a, b in zip(best, best[1:]))
    _report(6, ok, "best objective at K=16/32/64/128/256: "
            + " >= ".join(f"{b:.4f}" for b in best))


def _curve(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return (np.array([float(r["mean"]) for r in rows]),
            np.array([float(r["std"]) for r in rows]))


def test_criterion_7_ablation_curves(studies):
    parts, ok = [], True
    for name, label in (("ablate_r", "R"), ("ablate_k", "K")):
        means, stds = _curve(os.path.join(studies[name], f"{name}.csv"))
        pooled = float(np.sqrt(np.mean(stds ** 2)))
        trend = bool(np.all(np.diff(means) <= pooled))
        tighter = bool(stds[-1] <= stds[0])
        ok = ok and trend and tighter
        parts.append(f"{label} means {np.round(means, 3).tolist()} within "
                     f"pooled std {pooled:.3f}, repeat-std "
                     f"{stds[0]:.3f}->{stds[-1]:.3f}")
    secs = studies["ablate_r_secs"] + studies["ablate_k_secs"]
    _report(7, ok and secs < 900.0, "; ".join(parts) + f"; {secs:.0f}s")


def test_criterion_8_rankings_agree_across_conditions(studies):
    path = os.path.join(studies["independence"], "independence.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    mat = np.array([[float(v) for v in line.split(",")]
                    for line in lines[1:]])
    off = mat[~np.eye(len(mat), dtype=bool)]
    med = float(np.median(off))
    secs = studies["independence_secs"]
    ok = (mat.shape == (10, 10) and np.array_equal(mat, mat.T)
          and np.array_equal(np.diag(mat), np.ones(10))
          and med > 0.5 and secs < 300.0)
    _report(8, ok,
            f"10 conditions x 100 candidates: symmetric, unit diagonal, "
            f"median off-diagonal pearson {med:.3f} (need > 0.5), {secs:.0f}s")


def test_criterion_9_worker_count_determinism(studies):
    differing, n = [], 0
    for name in _study_commands():
        for path in sorted(glob.glob(os.path.join(studies[name], "*.csv"))):
            twin = os.path.join(studies[f"{name}_w1"],
                                os.path.basename(path))
            n += 1
            with open(path, "rb") as a, open(twin, "rb") as b:
                if a.read() != b.read():
                    differing.append(f"{name}/{os.path.basename(path)}")
    _report(9, not differing,
            f"{n} csv files byte-identical between --workers 1 and "
            f"--workers 8" if not differing else f"differs: {differing}")
