"""Posterior algebra, exact scores, and the analytic denoiser."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.stats import multivariate_normal

from helpers import (
    block_pool_matrix,
    dense_covariance,
    dense_degradation,
    dense_log_density,
    dense_posterior,
    dense_prior,
    dense_score,
    eigenvalues,
    flat_world,
    image_world,
    TwoPartDenoiser,
    linear_denoiser,
    log_density_x0_given_y,
    mixture_score,
    mode_oracle,
    two_part_eps,
)
from odebc.config import build_solver, build_world, default_config
from odebc.errors import ShapeMismatchError, ValidationError
from odebc.model import (
    BLANK,
    AnalyticDenoiser,
    BlockPooling,
    GmmWorld,
    Mixture,
    conditional_posterior,
    mixture_log_density,
    mixture_sample,
    prior_mixture,
    reduce_conditions,
    zero_denoiser,
)
from odebc.rng import generator
from odebc.sampler import project, run_solver
from odebc.schedule import make_linear_vp_schedule
from odebc.worldgen import sample_pair, sample_pairs


def single_block_world(tau=0.1, s=1.0):
    return GmmWorld(
        weights=np.array([1.0]),
        means=np.zeros((1, 4)),
        stds=np.array([s]),
        tau=tau,
        block=2,
        shape=(2, 2, 1),
    )


def test_pooling_matrix_structure():
    op = block_pool_matrix(4, 4, 1, 2)
    assert op.shape == (4, 16)
    np.testing.assert_allclose(op.sum(axis=1), 1.0)
    # Orthogonal rows with squared norm 1/b^2.
    np.testing.assert_allclose(op @ op.T, np.eye(4) / 4, atol=1e-15)
    # Linearity (up to one rounding of each expression).
    rng = generator(1, 0)
    a, b = rng.standard_normal(16), rng.standard_normal(16)
    np.testing.assert_allclose(op @ (2.0 * a + b), 2.0 * (op @ a) + op @ b,
                               rtol=1e-14)


@pytest.mark.parametrize("shape,block", [((4, 4, 1), 2), ((6, 6, 3), 3),
                                         ((1, 5, 1), 1)])
def test_block_pooling_matches_dense_matrix(shape, block):
    pool = BlockPooling(shape, block)
    op = block_pool_matrix(*shape, block)
    rng = generator(2, 0)
    x = rng.standard_normal((3, pool.dim))
    v = rng.standard_normal((3, pool.obs_dim))
    assert op.shape == (pool.obs_dim, pool.dim)
    np.testing.assert_allclose(pool.sums(x), pool.size * x @ op.T, rtol=1e-14)
    np.testing.assert_allclose(pool.spread_add(x, v), x + pool.size * v @ op,
                               rtol=1e-14)
    with pytest.raises(ValidationError):
        BlockPooling((shape[0] + 1, shape[1], shape[2]), 2)


def test_world_validation():
    with pytest.raises(ValidationError):
        GmmWorld(np.array([0.5, 0.4]), np.zeros((2, 4)), np.ones(2), tau=0.1)
    with pytest.raises(ValidationError):
        GmmWorld(np.array([1.0]), np.zeros((1, 4)), np.array([-1.0]), tau=0.1)
    with pytest.raises(ValidationError):
        GmmWorld(np.array([1.0]), np.zeros((1, 4)), np.ones(1), tau=0.1, block=2)
    with pytest.raises(ShapeMismatchError):
        GmmWorld(np.array([1.0]), np.zeros((1, 4)), np.ones(1), tau=0.1,
                 block=2, shape=(2, 4, 1))
    # weights, means and stds that disagree on the component count J
    for weights, stds in ((np.full(3, 1 / 3), np.ones(2)),
                          (np.full(2, 0.5), np.ones(3))):
        with pytest.raises(ShapeMismatchError):
            GmmWorld(weights, np.zeros((3, 4)), stds, tau=0.1)


def _config_world(side):
    cfg = default_config()
    cfg["world"]["shape"] = [side, side, 1]
    return build_world(cfg)


def _near_parallel_world():
    """A flat d=6 world whose means 0 and 1 differ by 1e-6 relative, in a
    direction of their own: a span that Gram-Schmidt must orthogonalize
    twice, and a remainder far above RANK_TOL that must stay."""
    world = flat_world(dim=6)
    means = world.means.copy()
    step = generator(5, 0).standard_normal(6)
    means[1] = means[0] + 1e-6 * np.linalg.norm(means[0]) * step
    return GmmWorld(weights=world.weights, means=means, stds=world.stds,
                    tau=world.tau, block=1)


ORACLE_WORLDS = {
    "flat": flat_world,
    "8x8": lambda: _config_world(8),
    "6x6x3": lambda: image_world(6, 6, 3, block=3),
    "32x32": lambda: _config_world(32),
    # One std per component, so the evidence's log-determinant differs
    # between components. Under the observation of the dense-oracle test
    # the posterior weights stay balanced: 0.26-0.40 (flat) and 0.09-0.61
    # (block 2).
    "flat-stds": lambda: flat_world(dim=4, tau=1.0, spread=0.5,
                                    std=(0.3, 0.6, 1.2)),
    "4x4-stds": lambda: image_world(tau=0.5, spread=0.3, std=(0.3, 0.5, 0.9)),
    # Block 3: 0.19-0.62 under the same observation.
    "6x6x3-stds": lambda: image_world(6, 6, 3, block=3, tau=0.5, spread=0.3,
                                      std=(0.3, 0.5, 0.9)),
    "flat-near": _near_parallel_world,
}


def test_frame_is_orthonormal_for_nearly_parallel_means():
    # With one Gram-Schmidt pass instead of two, the frame is orthonormal
    # only to 3.7e-11 here, and the directions orthogonal to it to 5.1e-11.
    world = _near_parallel_world()
    ys = np.stack([y for _, y in sample_pairs(world, 2, seed=8)])
    reduction = reduce_conditions(world, ys)
    frame, w = reduction.frame, reduction.directions
    assert frame.shape == (world.n_components, world.dim)
    np.testing.assert_allclose(frame @ frame.T, np.eye(len(frame)), rtol=0,
                               atol=1e-14)
    np.testing.assert_allclose(frame @ w.T, 0.0, rtol=0, atol=1e-14)
    np.testing.assert_allclose(np.einsum("rd,rd->r", w, w), 1.0, rtol=0,
                               atol=1e-14)


def assert_rel(got, want, tol=1e-12):
    """Largest deviation within tol of the largest reference magnitude."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


@pytest.mark.parametrize("conditional", [False, True], ids=["blank", "posterior"])
@pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
def test_closed_form_matches_dense_oracle(world_name, conditional):
    world = ORACLE_WORLDS[world_name]()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    _, y = sample_pair(world, 3, 0)
    if conditional:
        mix, dense, cond = conditional_posterior(world, y), dense_posterior(world, y), y
    else:
        mix, dense, cond = prior_mixture(world), dense_prior(world), BLANK
    assert_rel(mix.means, dense.means)
    assert_rel(mix.log_w, dense.log_w)
    den = AnalyticDenoiser(world, s)
    rng = generator(4, 0)
    for t in (0.02, 0.5, 0.97):
        alpha, sigma = float(s.alpha(t)), float(s.sigma(t))
        mix_t, dense_t = mix.diffused(alpha, sigma), dense.diffused(alpha, sigma)
        # random states and states drawn near the components
        x = np.concatenate([rng.standard_normal((3, world.dim)),
                            mixture_sample(mix_t, 3, rng)])
        score = dense_score(dense_t, x)
        assert_rel(mixture_log_density(mix_t, x), dense_log_density(dense_t, x))
        assert_rel(mixture_score(mix_t, x), score)
        assert_rel(den.eps(x, cond, t), -sigma * score)


def test_posterior_uninformative_observation():
    world = flat_world(dim=6, n_comp=1, tau=1e3)
    y = np.full(6, 0.3)
    post = conditional_posterior(world, y)
    np.testing.assert_allclose(post.means[0], world.means[0], atol=1e-4)
    assert post.log_w[0] == pytest.approx(0.0, abs=1e-12)


def test_posterior_single_block_by_hand():
    # One 2x2 block, mu=0, s=1, tau=0.1: D D^T = 1/4, so each pixel of the
    # posterior mean is y * 0.25 / 0.26.
    world = single_block_world()
    post = conditional_posterior(world, np.array([1.0]))
    np.testing.assert_allclose(post.means[0], 0.25 / 0.26, rtol=1e-12)
    # Covariance: block-mean direction shrinks to tau^2/(1/4+tau^2), the
    # three orthogonal directions keep the prior variance.
    vals = np.sort(eigenvalues(post, 0))
    np.testing.assert_allclose(vals, [0.01 / 0.26, 1.0, 1.0, 1.0], rtol=1e-10)


def test_posterior_zero_residual_dominates():
    means = np.array([[2.0, 2.0, 2.0, 2.0], [-3.0, -3.0, -3.0, -3.0],
                      [0.0, 4.0, -4.0, 0.0]])
    world = GmmWorld(np.full(3, 1 / 3), means, np.full(3, 0.5), tau=0.05,
                     block=2, shape=(2, 2, 1))
    for j in range(3):
        y = world.degrade(means[j])
        post = conditional_posterior(world, y)
        assert np.argmax(post.log_w) == j


def test_log_density_single_component_matches_scipy():
    world = flat_world(dim=5, n_comp=1, tau=0.3)
    y = world.degrade(world.means[0]) + 0.1
    post = conditional_posterior(world, y)
    cov = dense_covariance(post, 0)
    ref = multivariate_normal(mean=post.means[0], cov=cov)
    x = generator(3, 0).standard_normal((20, 5))
    np.testing.assert_allclose(
        log_density_x0_given_y(world, x, y), ref.logpdf(x), rtol=1e-10
    )
    # Gaussian mode: any perturbation lowers the density.
    at_mode = log_density_x0_given_y(world, post.means[0], y)
    assert at_mode > log_density_x0_given_y(world, post.means[0] + 0.1, y)


def test_log_density_matches_grid_quadrature():
    world = flat_world(dim=2, n_comp=2, tau=0.4, spread=1.0)
    y = np.array([0.4, -0.2])
    grid = np.linspace(-6.0, 6.0, 801)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    prior = prior_mixture(world)
    log_prior = mixture_log_density(prior, pts)
    resid = pts - y  # D = I for flat block=1 worlds
    log_lik = -0.5 * (np.sum(resid**2, axis=1) / world.tau**2
                      + 2 * np.log(2 * np.pi * world.tau**2))
    joint = np.exp(log_prior + log_lik).reshape(xx.shape)
    norm = simpson(simpson(joint, x=grid, axis=1), x=grid)
    brute = joint / norm
    ours = np.exp(log_density_x0_given_y(world, pts, y)).reshape(xx.shape)
    bulk = brute > 1e-4
    np.testing.assert_allclose(ours[bulk], brute[bulk], rtol=1e-6)


def fd_score(mix, x, h):
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (mixture_log_density(mix, x + step)
                  - mixture_log_density(mix, x - step)) / (2 * h)
    return out


@pytest.mark.parametrize("world_fn", [flat_world, image_world])
def test_score_matches_finite_difference(world_fn):
    world = world_fn()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    rng = generator(5, 0)
    y = world.degrade(world.means[0]) + world.tau * rng.standard_normal(world.obs_dim)
    for mix0 in [prior_mixture(world), conditional_posterior(world, y)]:
        for _ in range(12):
            t = rng.uniform(0.0, 1.0)
            alpha, sigma = float(s.alpha(t)), float(s.sigma(t))
            mix = mix0.diffused(alpha, sigma)
            x = mixture_sample(mix, 1, rng)[0]
            h = 4e-5 * np.sqrt(mix.lam_par.min())
            got = mixture_score(mix, x)
            want = fd_score(mix, x, h)
            assert np.linalg.norm(got - want) <= 1e-5 * np.linalg.norm(want)


def test_eps_single_gaussian_closed_form():
    world = flat_world(dim=6, n_comp=1, tau=0.25)
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    y = world.degrade(world.means[0]) + 0.2
    post = conditional_posterior(world, y)
    rng = generator(9, 0)
    x = rng.standard_normal(6)
    for t in [0.05, 0.4, 0.9]:
        alpha, sigma = float(s.alpha(t)), float(s.sigma(t))
        cov = dense_covariance(post.diffused(alpha, sigma), 0)
        want = sigma * np.linalg.solve(cov, x - alpha * post.means[0])
        np.testing.assert_allclose(AnalyticDenoiser(world, s).eps(x, y, t), want,
                                   rtol=1e-9)


def test_eps_unconditional_standard_normal_world():
    world = GmmWorld(np.array([1.0]), np.zeros((1, 4)), np.ones(1), tau=0.1)
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    x = np.array([0.3, -1.2, 2.0, 0.0])
    for t in [0.0, 0.5, 1.0]:
        sigma = float(s.sigma(t))
        np.testing.assert_allclose(AnalyticDenoiser(world, s).eps(x, BLANK, t),
                                   sigma * x, rtol=1e-12, atol=1e-15)


def test_eps_approaches_identity_at_noise_boundary():
    world = flat_world()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    x = generator(13, 0).standard_normal(8)
    eps = AnalyticDenoiser(world, s).eps(x, BLANK, 1.0)
    assert np.linalg.norm(eps - x) <= 0.05 * np.linalg.norm(x)


def test_mode_oracle_single_component():
    world = flat_world(dim=6, n_comp=1, tau=0.2)
    y = world.degrade(world.means[0]) + 0.1
    post = conditional_posterior(world, y)
    np.testing.assert_allclose(mode_oracle(world, y), post.means[0], atol=1e-8)


def test_mode_oracle_picks_dominant_component():
    means = 8.0 * np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0]])
    world = GmmWorld(np.full(3, 1 / 3), means, np.full(3, 0.4), tau=0.1)
    y = world.degrade(means[1])
    post = conditional_posterior(world, y)
    dens = [mixture_log_density(post, post.means[j]) for j in range(3)]
    best = int(np.argmax(dens))
    np.testing.assert_allclose(mode_oracle(world, y), post.means[best],
                               atol=1e-6)


def test_mode_oracle_matches_grid_argmax():
    world = flat_world(dim=2, n_comp=2, tau=0.3, spread=1.5)
    y = np.array([0.5, 0.5])
    grid = np.linspace(-5.0, 5.0, 501)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
    dens = log_density_x0_given_y(world, pts, y)
    grid_best = pts[np.argmax(dens)]
    found = mode_oracle(world, y)
    assert np.max(np.abs(found - grid_best)) <= 0.03


def test_posterior_samples_match_rejection_sampling():
    from odebc.metrics import energy_distance_test

    world = flat_world(dim=2, n_comp=2, tau=0.5, spread=1.0)
    y = np.array([0.2, -0.1])
    rng = generator(21, 0)
    # Rejection sampling from prior * likelihood, vectorized proposals.
    target = 1500
    kept = []
    log_peak = -np.log(2 * np.pi * world.tau**2)
    prior = prior_mixture(world)
    while sum(len(k) for k in kept) < target:
        z = mixture_sample(prior, 200_000, rng)
        resid = z - y
        log_acc = (-0.5 * np.sum(resid**2, axis=1) / world.tau**2
                   - np.log(2 * np.pi * world.tau**2)) - log_peak
        accept = np.log(rng.uniform(size=z.shape[0])) < log_acc
        kept.append(z[accept])
    reject = np.concatenate(kept)[:target]
    exact = mixture_sample(conditional_posterior(world, y), target,
                           generator(22, 0))
    result = energy_distance_test(exact, reject, n_permutations=200, seed=0)
    assert result.p_value > 0.01


def test_block_posterior_samples_have_its_covariance():
    # One component, so the posterior is one Gaussian: lam_par along the
    # block means P and lam_perp along I - P, about 6e-4 and 0.25 here.
    # 40000 draws estimate each variance to about 1 %.
    world = image_world(n_comp=1)
    post = conditional_posterior(world, world.degrade(world.means[0]))
    op = dense_degradation(world.pooling)
    along = world.pooling.size * op.T @ op
    x = mixture_sample(post, 40_000, generator(23, 0))
    got, want = np.cov(x, rowvar=False), dense_covariance(post, 0)
    for part in (along, np.eye(world.dim) - along):
        expect = part @ want @ part
        np.testing.assert_allclose(part @ got @ part, expect, rtol=0.0,
                                   atol=0.05 * np.max(np.abs(expect)))


def test_analytic_denoiser_one_time_matches_prepared():
    world = image_world()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    den = AnalyticDenoiser(world, s)
    rng = generator(30, 0)
    y = world.degrade(world.means[0])
    x = rng.standard_normal(world.dim)
    # One time matches the same time of a prepared solve, to the bit.
    for cond in (y, BLANK):
        np.testing.assert_array_equal(
            den.eps(x, cond, 0.3), den.eps(x, den.prepare(cond, [0.9, 0.3]), 1))


def test_trivial_denoisers():
    x = np.array([2.0, -2.0])
    assert np.all(zero_denoiser().eps(x, BLANK, 0.5) == 0.0)
    np.testing.assert_array_equal(linear_denoiser(np.eye(2)).eps(x, BLANK, 0.1), x)
    np.testing.assert_array_equal(
        linear_denoiser(0.5 * np.eye(2)).eps(x, BLANK, 0.1), [1.0, -1.0]
    )


def test_batched_and_single_agree():
    world = flat_world()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    y = world.degrade(world.means[1])
    x = generator(40, 0).standard_normal((5, 8))
    den = AnalyticDenoiser(world, s)
    batched = den.eps(x, y, 0.7)
    for i in range(5):
        np.testing.assert_allclose(den.eps(x[i], y, 0.7), batched[i], rtol=1e-12)


@pytest.mark.parametrize("shape,block", [((8, 8, 1), 2), ((6, 6, 3), 3),
                                         ((32, 32, 1), 2), ((12, 12, 2), 4),
                                         ((9, 9, 1), 3)])
def test_block_sums_equal_strided_sum_bit_for_bit(shape, block):
    pool = BlockPooling(shape, block)
    x = generator(5, 0).standard_normal((4, pool.dim))
    _, w, c = shape
    strided = x.reshape(-1, block, w * c).sum(axis=1) @ pool._row
    np.testing.assert_array_equal(pool.sums(x), strided.reshape(4, -1))


@pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
def test_stacked_posterior_equals_unstacked_loop(world_name):
    # R observations in one reduction: each observation's row of weights is
    # the bits of its own posterior, its row of means that posterior's
    # means in the reduced coordinates, and the variances are shared. The
    # denoiser and `conditional_posterior` take one observation at a time;
    # stacks go through `reduce_conditions`.
    world = ORACLE_WORLDS[world_name]()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    ys = np.stack([y for _, y in sample_pairs(world, 3, seed=8)])
    reduction = reduce_conditions(world, ys)
    assert reduction.log_w.shape == (3, world.n_components)
    assert reduction.means.shape == (3, world.n_components, reduction.dim)
    for r, y in enumerate(ys):
        one = conditional_posterior(world, y)
        assert one.log_w.shape == (world.n_components,)
        np.testing.assert_array_equal(reduction.log_w[r], one.log_w)
        np.testing.assert_array_equal(reduction.lams,
                                      np.stack([one.lam_perp, one.lam_par], 1))
        coords = np.concatenate([one.means @ reduction.frame.T,
                                 (one.means @ reduction.directions[r])[:, None],
                                 np.zeros((world.n_components, 2))], axis=1)
        assert_rel(reduction.means[r], coords, tol=1e-14)
    x = generator(6, 0).standard_normal((3 * 4, world.dim))
    den = AnalyticDenoiser(world, s)
    for cond in (ys, ys[:1]):
        with pytest.raises(ShapeMismatchError):
            den.eps(x, cond, 0.5)
        with pytest.raises(ShapeMismatchError):
            conditional_posterior(world, cond)
    for bad in (ys[0], ys[:0], ys[:, :-1]):
        with pytest.raises(ShapeMismatchError):
            reduce_conditions(world, bad)
    for rows in (x[0], x[:, :-1]):
        with pytest.raises(ShapeMismatchError):
            reduction.reduce(rows)


def test_euler_projection_leaves_no_per_time_state():
    # The solve owns its time table (0.17 MiB for 10000 times) and the
    # posterior it prepared: once it returns, the denoiser holds nothing
    # new. The euler-10000 oracle solves the raw observation in d.
    world = flat_world()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    _, y = sample_pairs(world, 1, seed=10)[0]
    x_t = generator(7, 0).standard_normal(world.dim)
    euler = build_solver({"kind": "euler", "steps": 10000}, s)
    den = AnalyticDenoiser(world, s)
    fields = dict(vars(den))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = run_solver(den, euler, x_t, y)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 16384
    assert vars(den) == fields
    assert np.all(np.isfinite(out))
    # The table itself: (alpha, sigma) per time and the coefficients of one
    # block of rows, 0.17 MiB; found with a 0.54 MiB peak. A table of every
    # row held 0.84 MiB and peaked at 1.84 MiB.
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = den.prepare(y, euler.plan.times[:-1])
        held, peak = np.subtract(tracemalloc.get_traced_memory(), before)
    finally:
        tracemalloc.stop()
    assert held < 0.25 * 2**20
    assert peak < 0.6 * 2**20
    np.testing.assert_array_equal(den.eps(x_t, table, 5000),
                                  den.eps(x_t, y, euler.plan.times[5000]))
    with pytest.raises(ValidationError):
        den.prepare(y, [0.5, np.nan])


@pytest.mark.parametrize("reduced", [False, True], ids=["posterior", "reduction"])
def test_blocked_table_matches_one_pass(reduced):
    # The euler-10000 grid: the first and last rows of block 0, the first
    # of block 1 and the last row, asked for out of order, hold the
    # coefficients of one pass over every time, to the bit, and so does eps.
    world = flat_world()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    ys = np.stack([y for _, y in sample_pairs(world, 2, seed=10)])
    times = build_solver({"kind": "euler", "steps": 10000}, s).plan.times[:-1]
    x = generator(7, 1).standard_normal((3, world.dim))
    cond = ys[0]
    if reduced:
        cond = reduce_conditions(world, ys)
        x = cond.reduce(x)[0]
    den = AnalyticDenoiser(world, s)
    table = den.prepare(cond, times)
    mix, rows = table.mixture, table.ROWS
    alpha, sigma = s.alpha(times), s.sigma(times)
    scales, half_logdet = mix._coefficients(alpha, sigma)
    for i in (rows, 0, rows - 1, len(times) - 1, rows):
        got = den.eps(x, table, i)
        np.testing.assert_array_equal(table._scales[i % rows], scales[i])
        np.testing.assert_array_equal(table._half_logdet[i % rows],
                                      half_logdet[i])
        np.testing.assert_array_equal(
            got, sigma[i] * mix._pull(x, alpha[i], scales[i], half_logdet[i]))


@pytest.mark.parametrize("kind, steps", [
    ("ddim", 600), ("dpm2", 300), ("euler", 1000)])
def test_solves_find_each_block_once(monkeypatch, kind, steps):
    # Rows only grow within a solve, dpm2's midpoints included, so a solve
    # over several blocks of rows finds each block once, in order.
    world = flat_world()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    _, y = sample_pairs(world, 1, seed=10)[0]
    found = []
    one_pass = Mixture._coefficients

    def counted(mix, alpha, sigma):
        found.append(len(alpha))
        return one_pass(mix, alpha, sigma)

    monkeypatch.setattr(Mixture, "_coefficients", counted)
    cfg = build_solver({"kind": kind, "steps": steps}, s)
    run_solver(AnalyticDenoiser(world, s), cfg, np.zeros(world.dim), y)
    rows = cfg.plan.n_transitions * (2 if kind == "dpm2" else 1)
    assert rows > 2 * 256
    assert found == [256] * (rows // 256) + [rows % 256]


BLOCK1_WORLDS = {
    "flat-d2": lambda: flat_world(dim=2, n_comp=2),
    "flat-d8": flat_world,
    "8x8/1": lambda: image_world(8, 8, 1, block=1),
}
BLOCKED_WORLDS = {
    "4x4/2": image_world,
    "8x8/2": lambda: _config_world(8),
    "6x6x3/3": lambda: image_world(6, 6, 3, block=3),
}


def assert_two_part(world_name, got, want):
    """P = I folds the two parts into one: within 1e-13 relative there;
    for block > 1 the arithmetic is the oracle's, bit for bit."""
    if world_name in BLOCK1_WORLDS:
        assert_rel(got, want, tol=1e-13)
    else:
        np.testing.assert_array_equal(got, want)


def _world_and_conditions(world_name):
    world = {**BLOCK1_WORLDS, **BLOCKED_WORLDS}[world_name]()
    ys = [y for _, y in sample_pairs(world, 2, seed=12)]
    return world, [BLANK, *ys]


@pytest.mark.parametrize("world_name", [*BLOCK1_WORLDS, *BLOCKED_WORLDS])
def test_eps_matches_two_part_oracle(world_name):
    world, conditions = _world_and_conditions(world_name)
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    den = AnalyticDenoiser(world, s)
    x = generator(13, 0).standard_normal((6, world.dim))
    for cond in conditions:
        mix = (prior_mixture(world) if cond is BLANK
               else conditional_posterior(world, cond))
        table = den.prepare(cond, [0.02, 0.5, 0.97, 1.0])
        for i, t in enumerate((0.02, 0.5, 0.97, 1.0)):
            want = two_part_eps(mix, s, x, t)
            assert_two_part(world_name, den.eps(x, cond, t), want)
            assert_two_part(world_name, den.eps(x, table, i), want)
            assert_two_part(world_name, den.eps(x[0], cond, t), want[0])


@pytest.mark.parametrize("kind", ["ddim", "dpm2", "euler"])
@pytest.mark.parametrize("world_name", [*BLOCK1_WORLDS, *BLOCKED_WORLDS])
def test_solvers_match_two_part_oracle(world_name, kind):
    world, conditions = _world_and_conditions(world_name)
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    cfg = build_solver({"kind": kind, "steps": 1000 if kind == "euler" else 10}, s)
    x = generator(14, 0).standard_normal((6, world.dim))
    for cond in conditions:
        assert_two_part(world_name,
                        run_solver(AnalyticDenoiser(world, s), cfg, x, cond),
                        run_solver(TwoPartDenoiser(world, s), cfg, x, cond))


def reduced_and_full(world, cfg, x, ys):
    """Per observation, (the reduced solve of rows x under all of ys lifted
    back, the full-d solve) and (`project` of x, the full-d solve); and the
    reduced state's width m."""
    den = AnalyticDenoiser(world, cfg.schedule)
    reduction = reduce_conditions(world, np.stack(ys))
    states, lift = reduction.reduce(x)
    end = run_solver(den, cfg, states, reduction)
    pairs = []
    for r, y in enumerate(ys):
        full = run_solver(den, cfg, x, y)
        pairs += [(lift(end, r), full), (project(den, cfg, x, y), full)]
    return pairs, states.shape[1]


@pytest.mark.parametrize("kind", ["ddim", "dpm2", "euler"])
@pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
def test_reduced_projection_matches_full(world_name, kind):
    # A zero row has p_T = q_T = 0, and y = 0 adds no direction w; flat
    # worlds have no (I - P) part at all.
    world = ORACLE_WORLDS[world_name]()
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    cfg = build_solver({"kind": kind, "steps": 1000 if kind == "euler" else 10}, s)
    ys = [y for _, y in sample_pairs(world, 2, seed=17)] + [np.zeros(world.obs_dim)]
    x = np.concatenate([generator(18, 0).standard_normal((3, world.dim)),
                        np.zeros((1, world.dim))])
    pairs, width = reduced_and_full(world, cfg, x, ys)
    assert width <= 2 * world.n_components + 3
    for got, want in pairs:
        assert_rel(got, want, tol=1e-12)


@st.composite
def drawn_worlds(draw):
    """Worlds of block 1-4 (or flat), 1-2 channels and 1-4 components, with
    tau down to 1e-4 and, optionally, two equal means or two means with
    equal block averages (rank-deficient spans)."""
    block = draw(st.integers(1, 4))
    flat = block == 1 and draw(st.booleans())
    channels = 1 if flat else draw(st.integers(1, 2))
    shape = (block * draw(st.integers(1, 3)), block * draw(st.integers(1, 3)),
             channels)
    n_comp = draw(st.integers(1, 4))
    tau = 10.0 ** draw(st.floats(-4.0, 0.0))
    tie = draw(st.sampled_from(["none", "means", "pooled"]))
    rng = generator(draw(st.integers(0, 2**16)), 0)
    dim = shape[0] * shape[1] * channels
    pool = BlockPooling((1, dim, 1), 1) if flat else BlockPooling(shape, block)
    means = rng.standard_normal((n_comp, dim))
    if n_comp > 1 and tie == "means":
        means[1] = means[0]
    elif n_comp > 1 and tie == "pooled":
        pooled = pool.spread_add(np.zeros((2, dim)), pool.sums(means[:2]) / pool.size)
        means[1] += pooled[0] - pooled[1]
    return GmmWorld(weights=rng.dirichlet(np.ones(n_comp)), means=means,
                    stds=10.0 ** rng.uniform(-1.0, 0.3, n_comp), tau=tau,
                    block=1 if flat else block, shape=None if flat else shape)


@settings(max_examples=40, deadline=None)
@given(world=drawn_worlds(), kind=st.sampled_from(["ddim", "dpm2", "euler"]))
def test_reduced_projection_matches_full_on_drawn_worlds(world, kind):
    # Both paths round the same quadratic forms, whose terms grow as the
    # posterior variance s^2 tau^2 / g shrinks against the prior's: the
    # tolerance grows with std / tau. 300 drawn worlds stayed within
    # 2.6e-14 relative.
    s = make_linear_vp_schedule(1000, 1e-4, 0.02)
    cfg = build_solver({"kind": kind, "steps": 1000 if kind == "euler" else 10}, s)
    ys = [y for _, y in sample_pairs(world, 2, seed=19)]
    x = generator(20, 0).standard_normal((3, world.dim))
    pairs, width = reduced_and_full(world, cfg, x, ys)
    assert width <= 2 * world.n_components + 3
    tol = 1e-12 * (1.0 + world.stds.max() / world.tau)
    for got, want in pairs:
        assert_rel(got, want, tol=tol)
