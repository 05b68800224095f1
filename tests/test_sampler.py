"""Solver correctness: exact collapses, convergence order, marginals."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from helpers import (
    count_draws,
    ddim_alpha_bar_oracle,
    ddpm_alpha_bar_oracle,
    dense_covariance,
    flat_world,
    image_world,
    linear_denoiser,
)
from odebc import cli
from odebc import rng
from odebc.errors import PlanMismatchError, ShapeMismatchError, ValidationError
from odebc.metrics import energy_distance_test
from odebc.model import (
    BLANK,
    AnalyticDenoiser,
    mixture_sample,
    prior_mixture,
    zero_denoiser,
)
from odebc.rng import generator
from odebc.sampler import (
    SolverConfig,
    SolverKind,
    project,
    run_solver,
)
from odebc.schedule import (
    TimestepPlan,
    make_linear_vp_schedule,
    resample_timesteps,
    uniform_continuous_plan,
)

SCHED = make_linear_vp_schedule(1000, 1e-4, 0.02)


def cfg_for(kind, plan, seed=0):
    return SolverConfig(kind, SCHED, plan, noise_seed=seed)


def euler_cfg(n):
    return cfg_for(SolverKind.EULER_REF, uniform_continuous_plan(n))


def test_config_validation():
    with pytest.raises(PlanMismatchError):
        cfg_for(SolverKind.EULER_REF, resample_timesteps(SCHED, 1000))
    with pytest.raises(PlanMismatchError):
        cfg_for(SolverKind.EULER_REF, uniform_continuous_plan(999))
    # DDIM and DDPM read only the plan's times, so a continuous plan is a
    # plan like any other
    for kind in (SolverKind.DDIM, SolverKind.DDPM_ANCESTRAL):
        assert cfg_for(kind, uniform_continuous_plan(1000)).label() \
            == f"{kind.value}-1001"
    # Euler needs one gap throughout: not a squared grid, and not a grid
    # whose first gap alone is twice the others
    for times in (np.linspace(1.0, 0.0, 1001) ** 2,
                  np.append(1.0, np.linspace(0.998, 0.0, 1000))):
        with pytest.raises(PlanMismatchError, match="uniform"):
            cfg_for(SolverKind.EULER_REF, TimestepPlan(times=times))


def test_ddim_telescoping_zero_model():
    zd = zero_denoiser()
    x = generator(8, 0).standard_normal(6)
    exact = math.sqrt(SCHED.alpha_bars[0] / SCHED.alpha_bars[999]) * x
    for n_points in [2, 50, 1000]:
        cfg = cfg_for(SolverKind.DDIM, resample_timesteps(SCHED, n_points))
        out = run_solver(zd, cfg, x, BLANK)
        assert np.max(np.abs(out / exact - 1.0)) < 1e-12


def test_dpm2_matches_ddim_on_zero_model():
    # Under eps = 0 each dpm2 transition is its full first-order step,
    # whose ratio is DDIM's, so the two agree bit for bit.
    zd = zero_denoiser()
    x = generator(9, 0).standard_normal(4)
    for plan in (resample_timesteps(SCHED, 25), uniform_continuous_plan(7)):
        a = run_solver(zd, cfg_for(SolverKind.DDIM, plan), x, BLANK)
        b = run_solver(zd, cfg_for(SolverKind.DPM_SOLVER_2, plan), x, BLANK)
        np.testing.assert_array_equal(b, a)


ORACLE_WORLDS = {
    "flat": flat_world(dim=3, n_comp=2, tau=0.3, seed=2),
    "block-2": image_world(height=2, width=2, block=2, n_comp=2, tau=0.2,
                           seed=5),
}


@pytest.mark.parametrize("n_points", [2, 50, 1000])
@pytest.mark.parametrize("name", sorted(ORACLE_WORLDS))
def test_first_order_step_matches_alpha_bar_recursions(name, n_points):
    # DDIM as first-order DPM-Solver on (alpha, sigma), and DDPM as its
    # step with the posterior variance, against both written on alpha_bar
    # and step indices. Errors are relative to the largest entry: the one
    # step of a 2-point plan scales x by about 158 and cancels most of it,
    # and DDPM's beta = 1 - 1/ratio^2 cancels to about 1e-12 relative on
    # a 1000-point plan (largest seen 2.1e-14 DDIM, 3.4e-13 DDPM).
    world = ORACLE_WORLDS[name]
    den = AnalyticDenoiser(world, SCHED)
    x = generator(20, n_points).standard_normal((3, world.dim))
    plan = resample_timesteps(SCHED, n_points)
    for kind, want, tol in [
            (SolverKind.DDIM,
             ddim_alpha_bar_oracle(den, SCHED, plan, x, BLANK), 1e-13),
            (SolverKind.DDPM_ANCESTRAL,
             ddpm_alpha_bar_oracle(den, SCHED, plan, x, BLANK, seed=3), 1e-12)]:
        got = run_solver(den, cfg_for(kind, plan, seed=3), x, BLANK)
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


def test_euler_zero_model_alpha_ratio():
    zd = zero_denoiser()
    x = np.array([1.0, -2.0, 0.5])
    out = run_solver(zd, euler_cfg(250_000), x, BLANK)
    exact = float(SCHED.alpha(0.0) / SCHED.alpha(1.0)) * x
    assert np.max(np.abs(out / exact - 1.0)) < 1e-4


def test_euler_first_order_step_halving():
    zd = zero_denoiser()
    x = np.array([1.0, -2.0, 0.5])
    exact = float(SCHED.alpha(0.0) / SCHED.alpha(1.0)) * x
    errs = [np.linalg.norm(run_solver(zd, euler_cfg(n), x, BLANK) - exact)
            for n in (1000, 2000)]
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)


def test_dpm2_order_gap_on_linear_model():
    lin = linear_denoiser(np.array([[0.3, 0.1], [0.1, 0.2]]))
    x = np.array([1.2, -0.7])
    ref = run_solver(lin, euler_cfg(10_000), x, BLANK)
    plan = resample_timesteps(SCHED, 21)
    e_ddim = np.linalg.norm(
        run_solver(lin, cfg_for(SolverKind.DDIM, plan), x, BLANK) - ref)
    e_dpm2 = np.linalg.norm(
        run_solver(lin, cfg_for(SolverKind.DPM_SOLVER_2, plan), x, BLANK) - ref)
    assert e_dpm2 < e_ddim / 5.0


def test_ddim_converges_to_euler_reference():
    world = flat_world(dim=8, n_comp=3, tau=0.2, seed=7)
    den = AnalyticDenoiser(world, SCHED)
    y = world.degrade(world.means[0]) + 0.05
    x_t = generator(100, 1).standard_normal(8)
    ref = run_solver(den, euler_cfg(10_000), x_t, y)
    errs = []
    for n in [10, 25, 50, 100]:
        out = project(den, cfg_for(SolverKind.DDIM, resample_timesteps(SCHED, n + 1)),
                      x_t, y)
        errs.append(np.linalg.norm(out - ref) / np.linalg.norm(ref))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-2
    e20 = {}
    plan = resample_timesteps(SCHED, 21)
    for kind in [SolverKind.DDIM, SolverKind.DPM_SOLVER_2]:
        out = project(den, cfg_for(kind, plan), x_t, y)
        e20[kind] = np.linalg.norm(out - ref) / np.linalg.norm(ref)
    assert e20[SolverKind.DPM_SOLVER_2] < e20[SolverKind.DDIM]


def test_ddpm_single_step_affine_map():
    zd = zero_denoiser()
    x = generator(11, 0).standard_normal(5)
    cfg = cfg_for(SolverKind.DDPM_ANCESTRAL, resample_timesteps(SCHED, 2))
    out = run_solver(zd, cfg, x, BLANK)
    a_k, a_0 = SCHED.alpha_bars[999], SCHED.alpha_bars[0]
    beta = 1.0 - a_k / a_0
    coef = (math.sqrt(a_0) * beta / (1.0 - a_k) / math.sqrt(a_k)
            + math.sqrt(a_k / a_0) * (1.0 - a_0) / (1.0 - a_k))
    np.testing.assert_allclose(out, coef * x, rtol=1e-13)


def test_ddpm_noise_stream_is_positional():
    world = flat_world(dim=3, n_comp=1, tau=0.3, seed=2)
    den = AnalyticDenoiser(world, SCHED)
    x = generator(12, 0).standard_normal(3)
    plan = resample_timesteps(SCHED, 3)  # steps [999, 500, 0]
    cfg = cfg_for(SolverKind.DDPM_ANCESTRAL, plan, seed=77)
    out = run_solver(den, cfg, x, BLANK)
    # Replay by hand, in alpha_bar posterior-mean form: one draw at
    # transition 0, none on the final step. The two forms round apart by
    # about 5e-16; a wrong draw key would be off by O(1).
    np.testing.assert_allclose(
        out, ddpm_alpha_bar_oracle(den, SCHED, plan, x, BLANK, seed=77),
        rtol=1e-13)


def test_ddpm_repeatable_and_seed_sensitive():
    world = flat_world(dim=4, n_comp=2, tau=0.3, seed=3)
    den = AnalyticDenoiser(world, SCHED)
    x = generator(14, 0).standard_normal(4)
    plan = resample_timesteps(SCHED, 50)
    cfg = cfg_for(SolverKind.DDPM_ANCESTRAL, plan, seed=5)
    a = run_solver(den, cfg, x, BLANK)
    b = run_solver(den, cfg, x, BLANK)
    np.testing.assert_array_equal(a, b)
    other = run_solver(
        den, cfg_for(SolverKind.DDPM_ANCESTRAL, plan, seed=6), x, BLANK)
    assert np.any(other != a)


def prior_moments(world):
    mix = prior_mixture(world)
    w = np.exp(mix.log_w)
    mean = w @ mix.means
    second = sum(
        w[j] * (dense_covariance(mix, j) + np.outer(mix.means[j], mix.means[j]))
        for j in range(w.size)
    )
    return mean, second - np.outer(mean, mean)


def test_ddpm_full_plan_matches_prior_moments():
    world = flat_world(dim=2, n_comp=2, tau=0.3, spread=1.5, seed=17)
    den = AnalyticDenoiser(world, SCHED)
    n = 4000
    x_t = generator(60, 0).standard_normal((n, 2))
    cfg = cfg_for(SolverKind.DDPM_ANCESTRAL, resample_timesteps(SCHED, 1000),
                  seed=123)
    out = run_solver(den, cfg, x_t, BLANK)
    mean, cov = prior_moments(world)
    mc_sigma = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(out.mean(axis=0) - mean) < 6 * mc_sigma)
    assert np.max(np.abs(np.cov(out.T) - cov)) < 0.08


def prior_moment_z_scores(world, samples):
    """z-scores of each coordinate's sample mean and variance against the
    flat prior's closed-form mixture moments; the variance's standard
    error comes from the closed-form fourth central moment."""
    w, var_j = world.weights, world.stds[:, None] ** 2
    mean = w @ world.means
    dev = world.means - mean
    var = w @ (dev**2 + var_j)
    mu4 = w @ (dev**4 + 6.0 * dev**2 * var_j + 3.0 * var_j**2)
    n = samples.shape[0]
    z_mean = (samples.mean(axis=0) - mean) / np.sqrt(var / n)
    z_var = (samples.var(axis=0, ddof=1) - var) / np.sqrt((mu4 - var**2) / n)
    return np.concatenate([z_mean, z_var])


@pytest.mark.parametrize("scale", [1.0, 1.1])
def test_ddpm_moments_see_a_wrong_denoiser(scale):
    # verify's energy test passes DDPM with eps 10 % off (p 0.358); the
    # moments of 6000 rows of its d=2 prior do not (max |z| 0.88 at the
    # true eps, 7.44 at x1.1).
    class Scaled(AnalyticDenoiser):
        def eps(self, x_t, condition, t):
            return scale * super().eps(x_t, condition, t)

    world = cli._verify_world_d2()
    cfg = cfg_for(SolverKind.DDPM_ANCESTRAL, resample_timesteps(SCHED, 1000))
    out = run_solver(Scaled(world, SCHED), cfg, rng.gauss(9, 0, (6000, 2)),
                     BLANK)
    worst = np.max(np.abs(prior_moment_z_scores(world, out)))
    assert (worst < 4.0) == (scale == 1.0), worst


def test_euler_batch_matches_prior_moments():
    world = flat_world(dim=2, n_comp=2, tau=0.3, spread=1.5, seed=17)
    den = AnalyticDenoiser(world, SCHED)
    n = 4000
    x_t = generator(61, 0).standard_normal((n, 2))
    out = run_solver(den, euler_cfg(1000), x_t, BLANK)
    mean, cov = prior_moments(world)
    mc_sigma = np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(out.mean(axis=0) - mean) < 6 * mc_sigma + 0.02)
    assert np.max(np.abs(np.cov(out.T) - cov)) < 0.08


def test_ddpm_and_ddim_share_marginals():
    world = flat_world(dim=2, n_comp=2, tau=0.3, spread=1.5, seed=17)
    den = AnalyticDenoiser(world, SCHED)
    n = 2500
    plan = resample_timesteps(SCHED, 1000)
    a = run_solver(den, cfg_for(SolverKind.DDPM_ANCESTRAL, plan, seed=1),
                   generator(62, 0).standard_normal((n, 2)), BLANK)
    b = run_solver(den, cfg_for(SolverKind.DDIM, plan),
                   generator(62, 1).standard_normal((n, 2)), BLANK)
    res = energy_distance_test(a, b, n_permutations=200, seed=4, max_points=800)
    assert res.p_value > 0.01


def test_project_dispatch_and_guards():
    # project solves in reduced coordinates; run_solver on the raw
    # observation is its full-d oracle.
    world = flat_world(dim=4, n_comp=2, tau=0.3, seed=3)
    den = AnalyticDenoiser(world, SCHED)
    x = generator(15, 0).standard_normal(4)
    y = world.degrade(world.means[0])
    cfg = cfg_for(SolverKind.DDIM, resample_timesteps(SCHED, 20))
    for x_t in (x, np.stack([x, -x]), np.zeros((0, 4))):
        got = project(den, cfg, x_t, y)
        assert got.shape == x_t.shape
        np.testing.assert_allclose(got, run_solver(den, cfg, x_t, y),
                                   rtol=1e-13, atol=1e-15)
    assert np.any(project(den, cfg, x, y) != run_solver(den, cfg, x, BLANK))
    with pytest.raises(ValidationError):
        project(den, cfg_for(SolverKind.DDPM_ANCESTRAL,
                             resample_timesteps(SCHED, 20)), x, y)
    with pytest.raises(ValidationError):
        project(den, cfg, np.array([np.nan, 0, 0, 0]), y)
    # Wrong width, empty, scalar or 3-D states; an empty, 2-D or wrong-width
    # observation, or none at all (BLANK).
    for x_t, y_t in [(x[:2], y), (np.zeros(0), y), (np.float64(1.0), y),
                     (x[None, None], y), (x, np.zeros(0)), (x, y[None]),
                     (x, y[:2]), (x, BLANK)]:
        with pytest.raises(ShapeMismatchError) as err:
            project(den, cfg, x_t, y_t)
        assert "\n" not in str(err.value)


def test_projection_parallel_bit_identical():
    world = flat_world(dim=4, n_comp=2, tau=0.3, seed=3)
    den = AnalyticDenoiser(world, SCHED)
    y = world.degrade(world.means[1])
    cfg = cfg_for(SolverKind.DDIM, resample_timesteps(SCHED, 30))
    inputs = [generator(70, i).standard_normal(4) for i in range(16)]
    serial = [project(den, cfg, x, y) for x in inputs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda x: project(den, cfg, x, y), inputs))
    for a, b in zip(serial, threaded):
        np.testing.assert_array_equal(a, b)


def test_deterministic_solvers_never_draw(monkeypatch):
    world = flat_world(dim=4, n_comp=2, tau=0.3, seed=3)
    den = AnalyticDenoiser(world, SCHED)
    x = generator(16, 0).standard_normal(4)
    y = world.degrade(world.means[0])
    draws = count_draws(monkeypatch)
    for kind in [SolverKind.DDIM, SolverKind.DPM_SOLVER_2]:
        project(den, cfg_for(kind, resample_timesteps(SCHED, 15)), x, y)
    project(den, euler_cfg(1000), x, y)
    assert len(draws) == 0
    run_solver(den, cfg_for(SolverKind.DDPM_ANCESTRAL, resample_timesteps(SCHED, 5)),
               x, BLANK)
    assert len(draws) > 0
