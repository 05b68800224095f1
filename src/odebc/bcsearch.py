"""Monte Carlo search for a reusable boundary condition.

A candidate x_T is scored by projecting it through the deterministic solver
against every reference pair and summing the distances; the best candidate
is the argmin. Candidates are a pure function of (seed, index), so prefix
subsets of a larger candidate set are exactly the smaller set, and the K x R
distance table can be subset instead of re-solved for the ablations.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .metrics import Metric
from .model import AnalyticDenoiser, reduce_conditions
from .rng import gauss
from .sampler import SolverConfig, project_reduced


@dataclass(frozen=True)
class CandidateSet:
    """K standard-normal boundary conditions, materialized lazily."""

    seed: int
    size: int
    dim: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("candidate set needs K >= 1")

    def candidate(self, index: int) -> np.ndarray:
        if not 0 <= index < self.size:
            raise ValidationError(f"candidate index {index} outside [0, {self.size})")
        return gauss(self.seed, index, (self.dim,))


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """R paired (z, y) tensors of one shape each."""

    pairs: tuple

    def __post_init__(self):
        if len(self.pairs) < 1:
            raise ValidationError("reference set needs R >= 1 pairs")
        z_shape = self.pairs[0][0].shape
        y_shape = self.pairs[0][1].shape
        for z, y in self.pairs:
            if z.shape != z_shape or y.shape != y_shape:
                raise ShapeMismatchError("reference pairs must share shapes")

    def __len__(self):
        return len(self.pairs)


@dataclass(frozen=True, eq=False)
class SearchResult:
    best_index: int
    best_bc: np.ndarray
    objective_table: np.ndarray  # K x R distances
    per_candidate_sums: np.ndarray


# Rows per candidate chunk. A constant, never derived from the worker count
# or from K, so a row's chunk and hence its bits never depend on either.
CHUNK = 64


def distance_table(stack, refs: ReferenceSet, solver: SolverConfig,
                   model: AnalyticDenoiser, metric: Metric,
                   workers: int = 1) -> np.ndarray:
    """n x R table of metric(project(stack[k], y_i), z_i).

    The R observations are reduced once (`reduce_conditions`). Each task
    takes one chunk of up to CHUNK rows: one `project_reduced` solve of its
    (R rows, m) reduced state, then, one reference at a time, the lifted
    (rows, d) block and one row-wise metric call.
    Tasks write their cells by index and run under the caller's
    floating-point error settings; the chunks depend only on n, so the
    table is bit-identical for any `workers`.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 2 or stack.shape[1:] != refs.pairs[0][0].shape:
        raise ShapeMismatchError(
            f"stack shape {stack.shape} is not (n,) + reference HR shape "
            f"{refs.pairs[0][0].shape}")
    table = np.empty((stack.shape[0], len(refs)))
    reduction = reduce_conditions(model.world, np.stack([y for _, y in refs.pairs]))
    errors = np.geterr()

    def task(start):
        with np.errstate(**errors):
            rows = stack[start:start + CHUNK]
            lift = project_reduced(model, solver, rows, reduction)
            for i, (z, _) in enumerate(refs.pairs):
                table[start:start + len(rows), i] = metric.rows(lift(i), z)

    starts = range(0, stack.shape[0], CHUNK)
    if workers <= 1:
        for start in starts:
            task(start)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, starts))
    return table


def objective_table(cands: CandidateSet, refs: ReferenceSet,
                    solver: SolverConfig, model, metric: Metric,
                    workers: int = 1) -> np.ndarray:
    """K x R distance table of the candidate set; see distance_table."""
    stack = np.stack([cands.candidate(k) for k in range(cands.size)])
    return distance_table(stack, refs, solver, model, metric, workers)


def row_sums(table: np.ndarray) -> np.ndarray:
    """Each row's sum, added one column at a time in ascending order: a
    candidate's summed distance, in the one order every caller uses."""
    sums = np.zeros(table.shape[0])
    for column in table.T:
        sums = sums + column
    return sums


def search_optimal_bc(cands: CandidateSet, refs: ReferenceSet,
                      solver: SolverConfig, model, metric: Metric,
                      workers: int = 1) -> SearchResult:
    table = objective_table(cands, refs, solver, model, metric, workers)
    sums = row_sums(table)
    best = int(np.argmin(sums))  # argmin takes the lowest index on ties
    return SearchResult(
        best_index=best,
        best_bc=cands.candidate(best),
        objective_table=table,
        per_candidate_sums=sums,
    )


@dataclass(frozen=True, eq=False)
class GainReport:
    searched_mean: float
    random_means: np.ndarray
    random_mean: float
    random_std: float
    gain_sigmas: float  # (random_mean - searched_mean) / random_std


def held_out_gain(bc, holdout: ReferenceSet, solver: SolverConfig, model,
                  metric: Metric, n_random: int, seed: int,
                  workers: int = 1) -> GainReport:
    """Mean held-out distance of bc versus n_random fresh random BCs."""
    if n_random < 2:
        raise ValidationError("need n_random >= 2 for a std estimate")
    bc = np.asarray(bc, dtype=np.float64)
    rand_cands = CandidateSet(seed=seed, size=n_random, dim=bc.size)
    table = objective_table(rand_cands, holdout, solver, model, metric, workers)
    random_means = table.mean(axis=1)
    own = distance_table(bc[None], holdout, solver, model, metric)
    searched = float(row_sums(own)[0]) / len(holdout)
    rand_mean = float(random_means.mean())
    rand_std = float(random_means.std(ddof=1))
    return GainReport(
        searched_mean=searched,
        random_means=random_means,
        random_mean=rand_mean,
        random_std=rand_std,
        gain_sigmas=(rand_mean - searched) / rand_std,
    )
