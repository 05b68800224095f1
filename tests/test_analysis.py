import numpy as np
import pytest
from helpers import count_draws, flat_world

from odebc.analysis import (
    ablate_candidate_size,
    ablate_reference_size,
    benchmark_samplers,
    independence_matrix,
    render_pgm,
    world_value_range,
)
from odebc.bcsearch import CandidateSet, ReferenceSet, search_optimal_bc
from odebc.errors import ValidationError
from odebc.metrics import get_metric
from odebc.model import AnalyticDenoiser, GmmWorld
from odebc.sampler import SolverConfig, SolverKind
from odebc.schedule import (
    make_linear_vp_schedule,
    resample_timesteps,
    uniform_continuous_plan,
)
from odebc.worldgen import sample_pair

SCHED = make_linear_vp_schedule(1000, 1e-4, 0.02)
L2 = get_metric("l2")


def ddim(n):
    return SolverConfig(kind=SolverKind.DDIM, schedule=SCHED,
                        plan=resample_timesteps(SCHED, n))


def test_benchmark_degenerate_world_floor():
    # Near-zero component spread: the posterior pins x_0, so every solver
    # family lands on the same collapse floor.
    rng = np.random.default_rng(3)
    world = GmmWorld(weights=np.array([0.5, 0.3, 0.2]),
                     means=rng.normal(size=(3, 8)) * 2.0,
                     stds=np.full(3, 1e-4), tau=1e-3, block=1)
    pairs = [sample_pair(world, 11, i) for i in range(4)]
    solvers = [
        SolverConfig(kind=SolverKind.DDPM_ANCESTRAL, schedule=SCHED,
                     plan=resample_timesteps(SCHED, 1000)),
        ddim(50),
        SolverConfig(kind=SolverKind.DPM_SOLVER_2, schedule=SCHED,
                     plan=resample_timesteps(SCHED, 20)),
        SolverConfig(kind=SolverKind.EULER_REF, schedule=SCHED,
                     plan=uniform_continuous_plan(1000)),
    ]
    rows = benchmark_samplers(world, pairs, solvers, None, L2, seed=17)
    assert [r.solver for r in rows] == [
        "ddpm-1000", "ddim-50", "dpm2-20", "euler-1000"]
    means = [r.mean for r in rows]
    assert max(means) < 1e-3
    assert max(means) - min(means) < 1e-3
    assert all(r.n == 4 and not r.uses_bc for r in rows)


def test_benchmark_rows_and_determinism():
    world = flat_world()
    pairs = [sample_pair(world, 11, i) for i in range(3)]
    for metric in (L2, get_metric("psnr")):
        rows = benchmark_samplers(world, pairs, [ddim(20), ddim(10)], None,
                                  metric, seed=5)
        assert [(r.solver, r.metric) for r in rows] == [
            ("ddim-20", metric.name), ("ddim-10", metric.name)]
        assert rows == benchmark_samplers(world, pairs, [ddim(20), ddim(10)],
                                          None, metric, seed=5)
    again = benchmark_samplers(world, pairs, [ddim(20)], np.zeros(8), L2,
                               seed=5)
    assert again[0].uses_bc and again[0].std > 0


def test_benchmark_needs_pairs():
    with pytest.raises(ValidationError):
        benchmark_samplers(flat_world(), [], [ddim(10)], None, L2, 0)


def test_benchmark_fixed_bc_draws_nothing(monkeypatch):
    # Deterministic solvers started from a shared BC must never touch the
    # noise stream; per-pair random starts draw exactly once per pair.
    world = flat_world()
    pairs = [sample_pair(world, 11, i) for i in range(3)]
    bc = np.zeros(8)
    draws = count_draws(monkeypatch)
    benchmark_samplers(world, pairs, [ddim(10), ddim(20)], bc, L2, seed=5)
    assert len(draws) == 0
    benchmark_samplers(world, pairs, [ddim(10), ddim(20)], None, L2, seed=5)
    assert len(draws) == 6


def test_benchmark_searched_bc_beats_per_pair_noise():
    world = flat_world()
    model = AnalyticDenoiser(world, SCHED)
    refs = ReferenceSet(tuple(sample_pair(world, 31, i) for i in range(12)))
    res = search_optimal_bc(CandidateSet(seed=41, size=32, dim=8), refs,
                            ddim(50), model, L2, workers=4)
    hold = [sample_pair(world, 32, i) for i in range(12)]
    with_bc = benchmark_samplers(world, hold, [ddim(50)], res.best_bc,
                                 L2, seed=5)
    without = benchmark_samplers(world, hold, [ddim(50)], None, L2, seed=5)
    assert with_bc[0].mean <= without[0].mean


def test_ablate_reference_size_full_pool_collapses():
    world = flat_world()
    pool = [sample_pair(world, 33, i) for i in range(8)]
    hold = [sample_pair(world, 34, i) for i in range(6)]
    curve = ablate_reference_size(world, pool, [1, 4, 8], 3, 12, ddim(20),
                                  L2, seed=55, holdout_pairs=hold)
    assert curve.sizes == (1, 4, 8)
    assert curve.per_repeat.shape == (3, 3)
    # all repeats of the full-pool size choose the same subset
    assert curve.stds[-1] == 0.0
    again = ablate_reference_size(world, pool, [1, 4, 8], 3, 12, ddim(20),
                                  L2, seed=55, holdout_pairs=hold, workers=4)
    np.testing.assert_array_equal(curve.per_repeat, again.per_repeat)


def test_ablate_reference_size_trend():
    world = flat_world()
    pool = [sample_pair(world, 33, i) for i in range(16)]
    hold = [sample_pair(world, 34, i) for i in range(8)]
    curve = ablate_reference_size(world, pool, [1, 2, 4, 8, 16], 6, 24,
                                  ddim(50), L2, seed=55, holdout_pairs=hold,
                                  workers=4)
    pooled = float(np.sqrt(np.mean(curve.stds[curve.stds > 0] ** 2)))
    for lo, hi in zip(curve.means[1:], curve.means[:-1]):
        assert lo <= hi + pooled


def test_ablate_reference_size_guards():
    world = flat_world()
    pool = [sample_pair(world, 33, i) for i in range(4)]
    with pytest.raises(ValidationError):
        ablate_reference_size(world, pool, [8], 2, 4, ddim(10), L2, seed=1,
                              holdout_pairs=pool[:1])


def test_ablate_candidate_size_prefix_consistency():
    # A size evaluated alone equals the same size inside a larger sweep:
    # candidate sets are prefix-stable and tables are subset, not re-solved.
    world = flat_world()
    refs = [sample_pair(world, 35, i) for i in range(5)]
    hold = [sample_pair(world, 36, i) for i in range(4)]
    full = ablate_candidate_size(world, refs, [2, 4, 8], 2, ddim(20), L2,
                                 seed=66, holdout_pairs=hold)
    alone = ablate_candidate_size(world, refs, [8], 2, ddim(20), L2,
                                  seed=66, holdout_pairs=hold, workers=4)
    np.testing.assert_array_equal(full.per_repeat[2], alone.per_repeat[0])


def test_independence_matrix_structure():
    world = flat_world()
    conds = [sample_pair(world, 5, i) for i in range(4)]
    cands = CandidateSet(seed=3, size=24, dim=8)
    mat = independence_matrix(world, conds, cands, ddim(20), L2, workers=4)
    np.testing.assert_array_equal(mat, mat.T)
    np.testing.assert_array_equal(np.diag(mat), np.ones(4))
    assert np.all(np.abs(mat) <= 1 + 1e-12)


def test_independence_matrix_duplicate_condition():
    world = flat_world()
    conds = [sample_pair(world, 5, i) for i in range(3)]
    conds.append(conds[0])
    mat = independence_matrix(world, conds, CandidateSet(seed=3, size=16,
                                                         dim=8),
                              ddim(20), L2)
    assert mat[0, 3] == pytest.approx(1.0, rel=1e-12)


def test_independence_matrix_needs_two_candidates():
    # One candidate leaves each condition a one-number distance sequence,
    # which has no correlation.
    world = flat_world()
    conds = [sample_pair(world, 5, i) for i in range(3)]
    with pytest.raises(ValidationError,
                       match="at least 2 candidates, got 1"):
        independence_matrix(world, conds, CandidateSet(seed=3, size=1, dim=8),
                            ddim(20), L2)


def test_render_pgm_bytes(tmp_path):
    vals = np.array([0.0, 63.5, 127.0, 191.0, 255.0, 300.0])
    path = tmp_path / "img.pgm"
    render_pgm(path, vals, (2, 3), lo=0.0, hi=255.0)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert list(data[len(b"P5\n3 2\n255\n"):]) == [0, 64, 127, 191, 255, 255]
    with pytest.raises(ValidationError):
        render_pgm(path, vals, (2, 3), lo=1.0, hi=1.0)


def test_world_value_range():
    world = GmmWorld(weights=np.array([1.0]), means=np.zeros((1, 4)),
                     stds=np.array([0.5]), tau=0.1, block=1)
    assert world_value_range(world) == (-1.5, 1.5)
