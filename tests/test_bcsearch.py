"""Objective evaluation, Monte Carlo argmin, and the transfer report."""

import math
import sys

import numpy as np
import pytest
from scipy.stats import spearmanr

from helpers import count_draws, flat_world, image_world, trace_solves
from odebc.bcsearch import (
    CHUNK,
    CandidateSet,
    ReferenceSet,
    distance_table,
    held_out_gain,
    objective_table,
    row_sums,
    search_optimal_bc,
)
from odebc.errors import ShapeMismatchError, ValidationError
from odebc.metrics import get_metric
from odebc.model import (
    AnalyticDenoiser,
    conditional_posterior,
    mixture_log_density,
)
from odebc.rng import generator
from odebc.sampler import SolverConfig, SolverKind, project, run_solver
from odebc.schedule import make_linear_vp_schedule, resample_timesteps
from odebc.worldgen import sample_pairs

SCHED = make_linear_vp_schedule(1000, 1e-4, 0.02)
L2 = get_metric("l2")


def ddim_cfg(n):
    return SolverConfig(SolverKind.DDIM, SCHED, resample_timesteps(SCHED, n))


def objective(bc, refs, cfg, model, metric):
    """(sum, per-reference distances) of one candidate, through the search's
    own path: a one-row distance table and its row sum."""
    bc = np.asarray(bc, dtype=np.float64)
    table = distance_table(bc[None], refs, cfg, model, metric)
    return float(row_sums(table)[0]), table[0].tolist()


def dpm2_cfg(n):
    return SolverConfig(SolverKind.DPM_SOLVER_2, SCHED,
                        resample_timesteps(SCHED, n))


def small_setup(n_pairs=8, seed=70):
    world = image_world(4, 4, 1, 2, 3, tau=0.05, seed=11)
    den = AnalyticDenoiser(world, SCHED)
    pairs = sample_pairs(world, n_pairs, seed=seed)
    return world, den, ReferenceSet(tuple(pairs))


def test_candidate_set_is_prefix_stable():
    small = CandidateSet(seed=4, size=8, dim=6)
    large = CandidateSet(seed=4, size=512, dim=6)
    for i in range(8):
        np.testing.assert_array_equal(small.candidate(i), large.candidate(i))
    with pytest.raises(ValidationError):
        small.candidate(8)
    with pytest.raises(ValidationError):
        CandidateSet(seed=4, size=0, dim=6)


def test_reference_set_validation():
    with pytest.raises(ValidationError):
        ReferenceSet(pairs=())
    z, y = np.zeros(4), np.zeros(2)
    with pytest.raises(ShapeMismatchError):
        ReferenceSet(pairs=((z, y), (np.zeros(5), y)))


def test_objective_zero_on_exact_target():
    # The target is the table's own projection of the one row under the one
    # observation: `project` runs the same reduce, solve and lift.
    world, den, refs = small_setup(n_pairs=1)
    cfg = ddim_cfg(10)
    bc = generator(1, 0).standard_normal(world.dim)
    y = refs.pairs[0][1]
    target = project(den, cfg, bc, y)
    refs = ReferenceSet(pairs=((target, y),))
    total, per_ref = objective(bc, refs, cfg, den, L2)
    assert total == 0.0 and per_ref == [0.0]


def test_objective_additivity_on_duplicated_pair():
    world, den, refs = small_setup(n_pairs=1)
    cfg = ddim_cfg(10)
    bc = generator(2, 0).standard_normal(world.dim)
    single, _ = objective(bc, refs, cfg, den, L2)
    doubled, per_ref = objective(
        bc, ReferenceSet(pairs=(refs.pairs[0], refs.pairs[0])), cfg, den, L2)
    assert doubled == 2.0 * single
    assert per_ref == [single, single]


def test_objective_matches_naive_loop():
    world = flat_world(dim=8, n_comp=3, tau=0.2, seed=7)
    den = AnalyticDenoiser(world, SCHED)
    refs = ReferenceSet(tuple(sample_pairs(world, 4, seed=44)))
    cfg = ddim_cfg(51)
    bc = generator(3, 0).standard_normal(8)
    total, per_ref = objective(bc, refs, cfg, den, L2)
    naive = 0.0
    for z, y in refs.pairs:
        out = project(den, cfg, bc, y)
        naive += float(np.mean((out - z) ** 2))
    assert total == pytest.approx(naive, rel=1e-12)
    assert len(per_ref) == 4


def test_objective_split_merge_additivity():
    world, den, refs = small_setup(n_pairs=6)
    cfg = ddim_cfg(10)
    bc = generator(4, 0).standard_normal(world.dim)
    whole, _ = objective(bc, refs, cfg, den, L2)
    front, _ = objective(bc, ReferenceSet(refs.pairs[:3]), cfg, den, L2)
    back, _ = objective(bc, ReferenceSet(refs.pairs[3:]), cfg, den, L2)
    assert whole == pytest.approx(front + back, rel=1e-12)


def test_search_single_candidate_and_tie_break():
    world, den, refs = small_setup(n_pairs=2)
    cfg = ddim_cfg(10)
    res = search_optimal_bc(CandidateSet(seed=5, size=1, dim=world.dim),
                            refs, cfg, den, L2)
    assert res.best_index == 0

    class Duplicates:
        size, dim = 2, world.dim

        def candidate(self, index):
            return generator(9, 0).standard_normal(world.dim)

    res = search_optimal_bc(Duplicates(), refs, cfg, den, L2)
    assert res.best_index == 0
    assert res.per_candidate_sums[0] == res.per_candidate_sums[1]


def test_search_matches_recomputed_minimum():
    world, den, refs = small_setup(n_pairs=16)
    cfg = ddim_cfg(21)
    cands = CandidateSet(seed=6, size=64, dim=world.dim)
    res = search_optimal_bc(cands, refs, cfg, den, L2, workers=4)
    recomputed = [objective(cands.candidate(k), refs, cfg, den, L2)[0]
                  for k in range(64)]
    assert res.per_candidate_sums == pytest.approx(recomputed, rel=1e-14)
    assert res.per_candidate_sums[res.best_index] == min(recomputed)
    np.testing.assert_array_equal(res.best_bc, cands.candidate(res.best_index))
    assert res.objective_table.shape == (64, 16)


def test_superset_monotonicity_is_exact():
    world, den, refs = small_setup(n_pairs=4)
    cfg = ddim_cfg(10)
    best = []
    tables = {}
    for k in [4, 8, 16, 32]:
        res = search_optimal_bc(CandidateSet(seed=7, size=k, dim=world.dim),
                                refs, cfg, den, L2)
        best.append(res.per_candidate_sums[res.best_index])
        tables[k] = res.objective_table
    assert all(a >= b for a, b in zip(best, best[1:]))
    for k_small, k_big in [(4, 8), (8, 16), (16, 32)]:
        np.testing.assert_array_equal(tables[k_big][:k_small], tables[k_small])


def test_search_bit_identical_across_workers():
    world, den, refs = small_setup(n_pairs=5)
    cfg = ddim_cfg(15)
    cands = CandidateSet(seed=8, size=12, dim=world.dim)
    res1 = search_optimal_bc(cands, refs, cfg, den, L2, workers=1)
    res8 = search_optimal_bc(cands, refs, cfg, den, L2, workers=8)
    np.testing.assert_array_equal(res1.objective_table, res8.objective_table)
    np.testing.assert_array_equal(res1.per_candidate_sums,
                                  res8.per_candidate_sums)
    assert res1.best_index == res8.best_index


@pytest.mark.parametrize("world_kind", ["flat", "image"])
@pytest.mark.parametrize("solver", ["ddim", "dpm2"])
@pytest.mark.parametrize("name", ["l2", "psnr", "gradperc"])
def test_batched_table_matches_per_row_oracle(world_kind, solver, name):
    # K = CHUNK + 3 leaves a partial last chunk of 3 rows.
    if world_kind == "flat":
        world = flat_world(dim=8, n_comp=3, tau=0.2, seed=7)
    else:
        world = image_world(4, 4, 1, 2, 3, tau=0.05, seed=11)
    den = AnalyticDenoiser(world, SCHED)
    refs = ReferenceSet(tuple(sample_pairs(world, 2, seed=45)))
    cfg = ddim_cfg(10) if solver == "ddim" else dpm2_cfg(6)
    metric = get_metric(name, shape=world.shape)
    cands = CandidateSet(seed=12, size=CHUNK + 3, dim=world.dim)
    table = objective_table(cands, refs, cfg, den, metric)
    oracle = np.array([
        [metric.dist(run_solver(den, cfg, cands.candidate(k), y), z)
         for z, y in refs.pairs]
        for k in range(cands.size)])
    # The table projects in reduced coordinates, the oracle in d: values
    # agree near 1e-14 relative, psnr's more loosely where it nears 0 dB.
    np.testing.assert_allclose(table, oracle, rtol=1e-12, atol=0.0)


def test_table_makes_one_solve_per_chunk(monkeypatch):
    # Every reference of a chunk shares its solve, on reduced states of at
    # most 2J + 3 numbers per row: 2 chunks of CHUNK and 3 rows, 5
    # references, J = 3. Each candidate is drawn once, through bcsearch's
    # own import of gauss.
    traced = trace_solves(monkeypatch)
    draws = count_draws(monkeypatch)
    world, den, refs = small_setup(n_pairs=5)
    cands = CandidateSet(seed=13, size=CHUNK + 3, dim=world.dim)
    objective_table(cands, refs, ddim_cfg(10), den, L2)
    assert [rows for _, (rows, _) in traced] == [CHUNK * 5, 3 * 5]
    assert all(width <= 2 * world.n_components + 3 for _, (_, width) in traced)
    assert draws == [(13, k) for k in range(CHUNK + 3)]


def test_shared_denoiser_under_thread_stress():
    # 8 threads share one denoiser, each solve with its own reduction and
    # time table, switching as often as the interpreter allows.
    # The bits must not change.
    world, den, refs = small_setup(n_pairs=5)
    cands = CandidateSet(seed=15, size=3 * CHUNK, dim=world.dim)
    serial = objective_table(cands, refs, ddim_cfg(10),
                             AnalyticDenoiser(world, SCHED), L2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = objective_table(cands, refs, ddim_cfg(10), den, L2, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.tobytes() == serial.tobytes()


def test_objective_ranking_tracks_posterior_density():
    # One-component world: the posterior is log-concave and isotropic, so
    # mean-squared distance to its mode must rank like the log-density.
    world = flat_world(dim=8, n_comp=1, tau=0.2, seed=19)
    den = AnalyticDenoiser(world, SCHED)
    _, y = sample_pairs(world, 1, seed=33)[0]
    post = conditional_posterior(world, y)
    cfg = ddim_cfg(31)
    refs = ReferenceSet(pairs=((post.means[0], y),))
    cands = CandidateSet(seed=5, size=64, dim=8)
    objs, dens = [], []
    for k in range(cands.size):
        out = project(den, cfg, cands.candidate(k), y)
        objs.append(L2.dist(out, post.means[0]))
        dens.append(mixture_log_density(post, out))
    rho = spearmanr(objs, [-d for d in dens]).statistic
    assert rho > 0.9


def test_held_out_gain_report():
    world, den, _ = small_setup()
    pairs = sample_pairs(world, 16, seed=70)
    refs = ReferenceSet(tuple(pairs[:8]))
    hold = ReferenceSet(tuple(pairs[8:]))
    cfg = ddim_cfg(21)
    res = search_optimal_bc(CandidateSet(seed=6, size=32, dim=world.dim),
                            refs, cfg, den, L2, workers=4)
    out_gain = held_out_gain(res.best_bc, hold, cfg, den, L2,
                             n_random=16, seed=90)
    in_gain = held_out_gain(res.best_bc, refs, cfg, den, L2,
                            n_random=16, seed=90)
    assert out_gain.random_std > 0.0
    assert out_gain.random_means.shape == (16,)
    assert math.isclose(
        out_gain.gain_sigmas,
        (out_gain.random_mean - out_gain.searched_mean) / out_gain.random_std,
    )
    # Optimization bias: the in-sample gap dominates the held-out gap.
    assert in_gain.gain_sigmas >= out_gain.gain_sigmas
    with pytest.raises(ValidationError):
        held_out_gain(res.best_bc, hold, cfg, den, L2, n_random=1, seed=0)


def test_objective_shape_guard():
    world, den, refs = small_setup(n_pairs=1)
    with pytest.raises(ShapeMismatchError):
        objective(np.zeros(world.dim + 1), refs, ddim_cfg(10), den, L2)
