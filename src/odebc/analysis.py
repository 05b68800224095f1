"""Desk-scale studies: solver benchmark, R/K ablations, independence matrix.

The ablations never re-solve the ODE for a subset: the full candidate-by-
reference distance table is computed once and subsets reduce to sums over
its rows and columns, exactly consistent with the search's own sums.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .bcsearch import (
    CandidateSet,
    ReferenceSet,
    distance_table,
    objective_table,
    row_sums,
)
from .errors import ShapeMismatchError, ValidationError
from .metrics import Metric, pearson_corr
from .model import AnalyticDenoiser, GmmWorld
from .rng import gauss, generator
from .sampler import SolverConfig, SolverKind, project, run_solver


@dataclass(frozen=True)
class BenchmarkRow:
    solver: str
    uses_bc: bool
    metric: str
    mean: float
    std: float
    n: int


def benchmark_samplers(world: GmmWorld, test_pairs, solver_list, bc,
                       metric: Metric, seed: int) -> list[BenchmarkRow]:
    """Per-solver mean distance over the test pairs, one row per solver.

    Without a bc each pair gets its own x_T from (seed, pair index); with a
    bc every pair starts from the same tensor (the searched-BC protocol).
    Deterministic solvers project each pair (`project`); DDPM rows solve in
    d and draw their noise from a per-pair offset of the config seed.
    """
    if not test_pairs:
        raise ValidationError("benchmark needs at least one test pair")
    rows = []
    for cfg in solver_list:
        model = AnalyticDenoiser(world, cfg.schedule)
        values = []
        for i, (z, y) in enumerate(test_pairs):
            x_t = bc if bc is not None else gauss(seed, i, z.shape)
            if cfg.kind is SolverKind.DDPM_ANCESTRAL:
                out = run_solver(
                    model, replace(cfg, noise_seed=cfg.noise_seed + 7919 * i),
                    x_t, y)
            else:
                out = project(model, cfg, x_t, y)
            values.append(metric.dist(out, z))
        vals = np.asarray(values)
        rows.append(BenchmarkRow(
            solver=cfg.label(),
            uses_bc=bc is not None,
            metric=metric.name,
            mean=float(vals.mean()),
            std=float(vals.std(ddof=1)) if vals.size > 1 else 0.0,
            n=int(vals.size),
        ))
    return rows


@dataclass(frozen=True)
class AblationCurve:
    sizes: tuple
    means: np.ndarray  # mean held-out distance per size
    stds: np.ndarray  # repeat std per size
    per_repeat: np.ndarray  # n_sizes x repeats


def _curve_from_repeats(sizes, per_repeat: np.ndarray) -> AblationCurve:
    repeats = per_repeat.shape[1]
    if repeats > 1:
        stds = per_repeat.std(axis=1, ddof=1)
        # identical repeats (e.g., subset == full pool) get an exact zero,
        # not summation dust
        stds[np.ptp(per_repeat, axis=1) == 0.0] = 0.0
    else:
        stds = np.zeros(len(sizes))
    return AblationCurve(
        sizes=tuple(int(s) for s in sizes),
        means=per_repeat.mean(axis=1),
        stds=stds,
        per_repeat=per_repeat,
    )


def ablate_reference_size(world: GmmWorld, pool_pairs, sizes, repeats: int,
                          k_fixed: int, solver: SolverConfig, metric: Metric,
                          seed: int, holdout_pairs,
                          workers: int = 1) -> AblationCurve:
    """Search quality versus reference-set size, one fixed candidate set.

    Every repeat draws a fresh subset of the pool (ascending index order);
    the K x pool and K x holdout tables are computed once and every
    (size, repeat) cell is a pure reduction over them.
    """
    if max(sizes) > len(pool_pairs):
        raise ValidationError("requested size exceeds the reference pool")
    model = AnalyticDenoiser(world, solver.schedule)
    cands = CandidateSet(seed=seed, size=k_fixed, dim=world.dim)
    pool_refs = ReferenceSet(tuple(pool_pairs))
    hold_refs = ReferenceSet(tuple(holdout_pairs))
    pool_table = objective_table(cands, pool_refs, solver, model, metric, workers)
    hold_table = objective_table(cands, hold_refs, solver, model, metric, workers)
    per_repeat = np.empty((len(sizes), repeats))
    for si, size in enumerate(sizes):
        for r in range(repeats):
            rng = generator(seed, 1_000_003 * si + r + 1)
            chosen = np.sort(rng.choice(len(pool_pairs), size=int(size),
                                        replace=False))
            best = int(np.argmin(row_sums(pool_table[:, chosen])))
            per_repeat[si, r] = hold_table[best].mean()
    return _curve_from_repeats(sizes, per_repeat)


def ablate_candidate_size(world: GmmWorld, refs_fixed, sizes, repeats: int,
                          solver: SolverConfig, metric: Metric, seed: int,
                          holdout_pairs, workers: int = 1) -> AblationCurve:
    """Search quality versus candidate-set size, fresh seeds per repeat.

    Candidate sets are prefix-stable, so one K_max x R table per repeat
    serves every size as a row prefix; the distinct winners of a repeat
    share one held-out table.
    """
    model = AnalyticDenoiser(world, solver.schedule)
    refs = ReferenceSet(tuple(refs_fixed))
    hold_refs = ReferenceSet(tuple(holdout_pairs))
    k_max = int(max(sizes))
    per_repeat = np.empty((len(sizes), repeats))
    for r in range(repeats):
        cands = CandidateSet(seed=seed + 7_919 * (r + 1), size=k_max,
                             dim=world.dim)
        table = objective_table(cands, refs, solver, model, metric, workers)
        bests = [int(np.argmin(row_sums(table[:int(size)]))) for size in sizes]
        distinct = list(dict.fromkeys(bests))
        hold = distance_table(np.stack([cands.candidate(k) for k in distinct]),
                              hold_refs, solver, model, metric, workers)
        hold_means = dict(zip(distinct, hold.mean(axis=1)))
        per_repeat[:, r] = [hold_means[best] for best in bests]
    return _curve_from_repeats(sizes, per_repeat)


def independence_matrix(world: GmmWorld, conditions, candidates: CandidateSet,
                        solver: SolverConfig, metric: Metric,
                        workers: int = 1) -> np.ndarray:
    """Pearson matrix of the per-condition distance sequences over one
    shared candidate set; entry (j, l) compares conditions j and l."""
    if len(conditions) < 2:
        raise ValidationError("independence needs at least 2 conditions, "
                              f"got {len(conditions)}")
    if candidates.size < 2:
        raise ValidationError("independence needs at least 2 candidates, "
                              f"got {candidates.size}")
    refs = ReferenceSet(tuple(conditions))
    model = AnalyticDenoiser(world, solver.schedule)
    table = objective_table(candidates, refs, solver, model, metric, workers)
    n = len(conditions)
    out = np.eye(n)
    for j in range(n):
        for l in range(j + 1, n):
            rho = pearson_corr(table[:, j], table[:, l])
            out[j, l] = out[l, j] = rho
    return out


def render_pgm(path, values: np.ndarray, shape: tuple[int, int],
               lo: float, hi: float) -> None:
    """8-bit binary PGM of a flat tensor, affine [lo, hi] -> [0, 255]."""
    if hi <= lo:
        raise ValidationError("need hi > lo for the PGM value mapping")
    img = np.asarray(values, dtype=np.float64)
    if img.size != shape[0] * shape[1]:
        raise ShapeMismatchError(f"cannot render a tensor of shape {img.shape} "
                                 f"as a {shape[0]}x{shape[1]} image")
    img = img.reshape(shape)
    scaled = np.clip((img - lo) / (hi - lo) * 255.0, 0.0, 255.0)
    data = np.round(scaled).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{shape[1]} {shape[0]}\n255\n".encode())
        fh.write(data.tobytes())


def world_value_range(world: GmmWorld) -> tuple[float, float]:
    """A fixed display range: component means plus/minus three stds."""
    lo = float((world.means - 3 * world.stds[:, None]).min())
    hi = float((world.means + 3 * world.stds[:, None]).max())
    return lo, hi
