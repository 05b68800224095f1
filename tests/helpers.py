"""Shared world builders and test-only oracles for the test suite.

The dense oracle is the model's posterior written with d x d matrices:
Cholesky solves for the evidence, an eigendecomposition per component and
scores through the eigenbasis. The package's closed-form two-eigenvalue
path is checked against it. The two-part oracle is the closed form's eps
with both parts of the quadratic form kept for every pooling, P = I
included, and the coefficients looked up one time at a time. The
alpha_bar oracles are DDIM and ancestral DDPM on step indices, in the
alpha_bar form of their papers; the package takes both as one alpha/sigma
step.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

import odebc.rng
from odebc import sampler
from odebc.errors import ValidationError
from odebc.metrics import EnergyTestResult
from odebc.model import (
    BLANK,
    GmmWorld,
    Mixture,
    conditional_posterior,
    mixture_log_density,
    prior_mixture,
)
from odebc.rng import generator
from odebc.schedule import DiscreteSchedule, TimestepPlan, resample_timesteps


def flat_world(dim=8, n_comp=3, tau=0.2, seed=7, spread=2.0, std=0.6):
    """A drawn flat world; `std` is one std for every component or a
    sequence of one per component."""
    rng = generator(seed, 0)
    w = rng.dirichlet(np.full(n_comp, 5.0))
    means = spread * rng.standard_normal((n_comp, dim))
    stds = np.full(n_comp, std, dtype=np.float64)
    return GmmWorld(weights=w, means=means, stds=stds, tau=tau, block=1)


def image_world(height=4, width=4, channels=1, block=2, n_comp=3, tau=0.05,
                seed=11, spread=1.0, std=0.5):
    """A drawn image world; `std` as in `flat_world`."""
    dim = height * width * channels
    rng = generator(seed, 0)
    w = rng.dirichlet(np.full(n_comp, 5.0))
    means = spread * rng.standard_normal((n_comp, dim))
    stds = np.full(n_comp, std, dtype=np.float64)
    return GmmWorld(
        weights=w, means=means, stds=stds, tau=tau, block=block,
        shape=(height, width, channels),
    )


def split(pairs, ratio: float, seed: int):
    """Seeded shuffle, then cut at round-half-up of ratio * len."""
    if not 0.0 <= ratio <= 1.0:
        raise ValidationError("split ratio must lie in [0, 1]")
    order = generator(seed, 0).permutation(len(pairs))
    cut = int(np.floor(ratio * len(pairs) + 0.5))
    reference = [pairs[i] for i in order[:cut]]
    holdout = [pairs[i] for i in order[cut:]]
    return reference, holdout


def block_pool_matrix(height: int, width: int, channels: int, block: int) -> np.ndarray:
    """Block-average pooling as a dense (m, d) matrix, row-major layout."""
    if height % block or width % block:
        raise ValidationError("block must divide both spatial axes")
    d = height * width * channels
    lh, lw = height // block, width // block
    m = lh * lw * channels
    op = np.zeros((m, d))
    inv = 1.0 / (block * block)
    for bi in range(lh):
        for bj in range(lw):
            for ch in range(channels):
                row = (bi * lw + bj) * channels + ch
                for di in range(block):
                    for dj in range(block):
                        col = ((bi * block + di) * width + (bj * block + dj)) * channels + ch
                        op[row, col] = inv
    return op


def dense_degradation(pool) -> np.ndarray:
    """D for a BlockPooling as a dense (k, d) matrix."""
    if pool.block == 1:
        return np.eye(pool.dim)
    return block_pool_matrix(*pool.shape, pool.block)


def eigenvalues(mix, j: int) -> np.ndarray:
    """The d eigenvalues of component j: lam_perp (d - k times), lam_par (k)."""
    pool = mix.pooling
    return np.repeat([mix.lam_perp[j], mix.lam_par[j]],
                     [pool.dim - pool.obs_dim, pool.obs_dim])


def dense_covariance(mix, j: int) -> np.ndarray:
    """lam_perp (I - P) + lam_par P as a d x d matrix."""
    pool = mix.pooling
    op = dense_degradation(pool)
    proj = pool.size * op.T @ op
    return mix.lam_perp[j] * (np.eye(pool.dim) - proj) + mix.lam_par[j] * proj


@dataclass(frozen=True)
class DenseMixture:
    """Gaussian mixture with per-component eigendecomposed covariances."""

    log_w: np.ndarray
    means: np.ndarray
    eigvals: np.ndarray  # (J, d)
    eigvecs: np.ndarray  # (J, d, d), columns are eigenvectors

    def diffused(self, alpha, sigma):
        return DenseMixture(self.log_w, alpha * self.means,
                            alpha * alpha * self.eigvals + sigma * sigma,
                            self.eigvecs)


def dense_prior(world: GmmWorld) -> DenseMixture:
    n_comp, dim = world.means.shape
    return DenseMixture(
        log_w=np.log(world.weights),
        means=world.means,
        eigvals=np.repeat(world.stds[:, None] ** 2, dim, axis=1),
        eigvecs=np.broadcast_to(np.eye(dim), (n_comp, dim, dim)),
    )


def dense_posterior(world: GmmWorld, y: np.ndarray) -> DenseMixture:
    """Posterior by dense conjugacy:
      m_j = mu_j + s^2 D^T (s^2 D D^T + tau^2 I)^-1 (y - D mu_j)
      C_j = s^2 I - s^4 D^T (s^2 D D^T + tau^2 I)^-1 D
    with weights reweighted by the evidence N(y; D mu_j, G_j)."""
    op = dense_degradation(world.pooling)
    m_obs = op.shape[0]
    n_comp, dim = world.means.shape
    means = np.empty((n_comp, dim))
    eigvals = np.empty((n_comp, dim))
    eigvecs = np.empty((n_comp, dim, dim))
    log_ev = np.empty(n_comp)
    gram = op @ op.T
    for j in range(n_comp):
        s2 = world.stds[j] ** 2
        g = s2 * gram + world.tau**2 * np.eye(m_obs)
        factor = cho_factor(g)
        resid = y - op @ world.means[j]
        means[j] = world.means[j] + s2 * (op.T @ cho_solve(factor, resid))
        cov = s2 * np.eye(dim) - s2 * s2 * (op.T @ cho_solve(factor, op))
        vals, vecs = np.linalg.eigh(cov)
        eigvals[j] = np.maximum(vals, 1e-300)
        eigvecs[j] = vecs
        _, logdet = np.linalg.slogdet(g)
        log_ev[j] = -0.5 * (
            m_obs * np.log(2 * np.pi) + logdet + resid @ cho_solve(factor, resid)
        )
    log_w = np.log(world.weights) + log_ev
    return DenseMixture(log_w - logsumexp(log_w), means, eigvals, eigvecs)


def _dense_terms(mix: DenseMixture, x: np.ndarray):
    x = np.atleast_2d(x)
    coords = (x[None, :, :] - mix.means[:, None, :]) @ mix.eigvecs
    quad = np.einsum("jbd,jd->jb", coords**2, 1.0 / mix.eigvals)
    logdet = np.sum(np.log(mix.eigvals), axis=1)
    dim = mix.means.shape[1]
    joint = mix.log_w[:, None] - 0.5 * (dim * np.log(2 * np.pi)
                                        + logdet[:, None] + quad)
    return joint, coords


def dense_log_density(mix: DenseMixture, x: np.ndarray) -> np.ndarray:
    return logsumexp(_dense_terms(mix, x)[0], axis=0)


def dense_score(mix: DenseMixture, x: np.ndarray) -> np.ndarray:
    joint, coords = _dense_terms(mix, x)
    resp = np.exp(joint - logsumexp(joint, axis=0))
    scaled = (coords / mix.eigvals[:, None, :]) @ mix.eigvecs.transpose(0, 2, 1)
    return -np.einsum("jb,jbd->bd", resp, scaled)


def two_part_eps(mix, s: DiscreteSchedule, x, t) -> np.ndarray:
    """eps of a mixture at one time t, from the quadratic form
    |v|^2 / A + gap |S v|^2 on the augmented difference [v, S v],
    gap = (1/C - 1/A) / b^2. For block > 1 this is the package's
    arithmetic, operation for operation; for P = I it keeps the second
    part that the package folds into one."""
    pool = mix.pooling
    d, k = pool.dim, pool.obs_dim
    alpha, sigma, _, _ = s.coeffs(float(t))
    var = alpha * alpha * np.stack([mix.lam_perp, mix.lam_par], axis=1) \
        + sigma * sigma
    logs = np.log(var)
    half_logdet = 0.5 * ((d - k) * logs[:, 0] + k * logs[:, 1])
    scales = 1.0 / var
    scales[:, 1] = (scales[:, 1] - scales[:, 0]) / pool.size
    x = np.asarray(x, dtype=np.float64)
    rows = x.reshape(-1, d)
    means = np.concatenate([mix.means, pool.sums(mix.means)], axis=-1)
    augmented = np.concatenate([rows, pool.sums(rows)], axis=-1)
    diff = augmented[..., None, :, :] - alpha * means[..., None, :]
    scaled = diff * np.repeat(scales, (d, k), axis=1)[:, None, :]
    base = mix.log_w[..., None] - half_logdet[:, None]
    joint = base - 0.5 * np.einsum("...jnd,...jnd->...jn", scaled, diff)
    resp = np.exp(joint - joint.max(axis=-2, keepdims=True))
    resp /= resp.sum(axis=-2, keepdims=True)
    pulled = np.einsum("...jn,...jnd->...nd", resp, scaled)
    out = pool.spread_add(pulled[..., :d], pulled[..., d:])
    return (float(sigma) * out).reshape(x.shape)


class TwoPartDenoiser:
    """The analytic denoiser with `two_part_eps` as its kernel. A prepared
    condition keeps its times, and eps looks a row's time up in them, so the
    oracle always works from the time itself."""

    def __init__(self, world: GmmWorld, s: DiscreteSchedule):
        self.world = world
        self.schedule = s

    def prepare(self, condition, times):
        return condition, np.asarray(times, dtype=np.float64)

    def eps(self, x_t, condition, t):
        if isinstance(condition, tuple):
            condition, times = condition
            t = times[t]
        mix = (prior_mixture(self.world) if condition is BLANK
               else conditional_posterior(self.world, condition))
        return two_part_eps(mix, self.schedule, x_t, t)


def mixture_score(mix: Mixture, x):
    """Gradient of log density, sum_j r_j C_j^-1 (m_j - x), at x (d,) or
    (n, d): minus the model's pull of the undiffused mixture."""
    x = np.asarray(x, dtype=np.float64)
    return -mix._pull(np.atleast_2d(x), 1.0,
                      *mix._undiffused()).reshape(x.shape)


def log_density_x0_given_y(world: GmmWorld, x_0, y):
    return mixture_log_density(conditional_posterior(world, y), x_0)


def mode_oracle(world: GmmWorld, y, n_starts: int = 8, seed: int = 0) -> np.ndarray:
    """Approximate argmax of log q(x_0 | y) by multi-start gradient ascent."""
    post = conditional_posterior(world, y)

    def neg_logd(x):
        return -mixture_log_density(post, x)

    def neg_grad(x):
        return -mixture_score(post, x)

    starts = [post.means[j] for j in range(post.means.shape[0])]
    rng = generator(seed, 0)
    for i in range(n_starts):
        j = i % post.means.shape[0]
        scale = 0.5 * float(np.sqrt(eigenvalues(post, j).max()))
        starts.append(post.means[j] + scale * rng.standard_normal(world.dim))
    best_x, best_val = None, np.inf
    for x0 in starts:
        res = minimize(
            neg_logd, x0, jac=neg_grad, method="L-BFGS-B",
            options={"maxiter": 500, "gtol": 1e-12},
        )
        if res.fun < best_val:
            best_x, best_val = res.x, res.fun
    if float(np.linalg.norm(neg_grad(best_x))) > 1e-6:
        raise AssertionError("mode search gradient norm above 1e-6")
    return best_x


class _LinearDenoiser:
    def __init__(self, matrix: np.ndarray):
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def prepare(self, condition, times):
        return condition

    def eps(self, x_t, condition, t):
        return np.asarray(x_t, dtype=np.float64) @ self.matrix.T


def linear_denoiser(matrix: np.ndarray):
    return _LinearDenoiser(matrix)


def trace_solves(monkeypatch) -> list:
    """Wrap `sampler.run_solver` wherever odebc holds it, as the benchmark's
    tracer does. The returned list collects (solver kind, state shape) for
    every solve from then on."""
    solves = []
    run_solver = sampler.run_solver

    def traced(model, cfg, x_t, cond):
        solves.append((cfg.kind, np.shape(x_t)))
        return run_solver(model, cfg, x_t, cond)

    for name, module in list(sys.modules.items()):
        if name.startswith("odebc") and \
                getattr(module, "run_solver", None) is run_solver:
            monkeypatch.setattr(module, "run_solver", traced)
    return solves


def count_draws(monkeypatch) -> list:
    """Wrap `odebc.rng.generator`, which `gauss` looks up on every call, so
    draws through every module's import of `gauss` are seen. The returned
    list collects the (seed, index) key of every draw from then on."""
    draws = []
    generator = odebc.rng.generator

    def counted(seed, index):
        draws.append((seed, index))
        return generator(seed, index)

    monkeypatch.setattr(odebc.rng, "generator", counted)
    return draws


def time_of_lambda_oracle(s: DiscreteSchedule, targets) -> np.ndarray:
    """The inverse of `DiscreteSchedule.lam`, one target at a time: bisect
    [0, 1] until the midpoint equals an end, or for 200 halvings."""
    out = []
    for target in np.asarray(targets, dtype=np.float64).ravel().tolist():
        if not s.lam(1.0) <= target <= s.lam(0.0):
            raise ValidationError("lambda target outside schedule range")
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if s.lam(mid) > target:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return np.reshape(out, np.shape(targets))


def _plan_steps(s: DiscreteSchedule, plan: TimestepPlan) -> list:
    """The step index k of each time k / (T-1) of a resampled plan."""
    return np.rint(plan.times * (s.total_steps - 1)).astype(int).tolist()


def ddim_alpha_bar_oracle(model, s: DiscreteSchedule, plan: TimestepPlan,
                          x, cond):
    """DDIM on step indices, x' = sqrt(abar'/abar) (x - sqrt(1 - abar) eps)
    + sqrt(1 - abar') eps, with eps at each raw time."""
    abar = s.alpha_bars
    steps = _plan_steps(s, plan)
    for i, (k, kp) in enumerate(zip(steps, steps[1:])):
        eps = model.eps(x, cond, plan.times[i])
        ratio = math.sqrt(abar[kp] / abar[k])
        x = ratio * (x - math.sqrt(1.0 - abar[k]) * eps) \
            + math.sqrt(1.0 - abar[kp]) * eps
    return x


def ddpm_alpha_bar_oracle(model, s: DiscreteSchedule, plan: TimestepPlan,
                          x, cond, seed: int):
    """Ancestral DDPM in posterior-mean form on step indices: from step k
    to k', beta = 1 - abar/abar', the mean of x_0's estimate and x, and
    variance (1 - abar')/(1 - abar) beta, drawn as gauss(seed, i) on every
    transition but the last, to step 0."""
    abar = s.alpha_bars
    steps = _plan_steps(s, plan)
    for i, (k, kp) in enumerate(zip(steps, steps[1:])):
        eps = model.eps(x, cond, plan.times[i])
        x0_hat = (x - math.sqrt(1.0 - abar[k]) * eps) / math.sqrt(abar[k])
        beta = 1.0 - abar[k] / abar[kp]
        x = (math.sqrt(abar[kp]) * beta / (1.0 - abar[k]) * x0_hat
             + math.sqrt(abar[k] / abar[kp]) * (1.0 - abar[kp])
             / (1.0 - abar[k]) * x)
        if kp != 0:
            var = (1.0 - abar[kp]) / (1.0 - abar[k]) * beta
            x = x + math.sqrt(var) * odebc.rng.gauss(seed, i, x.shape)
    return x


def identity_plan(s: DiscreteSchedule) -> TimestepPlan:
    """The full discrete grid, T-1 down to 0."""
    return resample_timesteps(s, s.total_steps)


def energy_test_oracle(a, b, n_permutations=300, seed=0, max_points=2000):
    """The energy-distance permutation test one split at a time: cdist for
    the pooled distances, np.ix_ block sums for each statistic, the same
    seeded subsampling and permutation draws as `energy_distance_test`."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    rng = generator(seed, 0)
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], size=max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], size=max_points, replace=False)]
    n, m = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b], axis=0)
    dmat = cdist(pooled, pooled)
    total = dmat.sum()

    def stat(idx_a, idx_b):
        sum_a = dmat[np.ix_(idx_a, idx_a)].sum()
        sum_b = dmat[np.ix_(idx_b, idx_b)].sum()
        between = 0.5 * (total - sum_a - sum_b)
        return (2.0 * between / (n * m)
                - sum_a / (n * (n - 1)) - sum_b / (m * (m - 1)))

    idx = np.arange(n + m)
    observed = stat(idx[:n], idx[n:])
    hits = 0
    for _ in range(n_permutations):
        perm = rng.permutation(n + m)
        if stat(perm[:n], perm[n:]) >= observed:
            hits += 1
    return EnergyTestResult(statistic=float(observed),
                            p_value=(1.0 + hits) / (1.0 + n_permutations),
                            n_per_group=min(n, m))
