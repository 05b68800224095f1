"""Analytic Gaussian-mixture world and its exact noise-prediction models.

The world is a mixture of isotropic Gaussians over flat or image-shaped
tensors, observed through block-average pooling D plus Gaussian noise. The
rows of D are orthogonal (D D^T = I / b^2), so P = b^2 D^T D projects onto
range(D^T) and every covariance in the model, prior or posterior, has the
form lam_perp (I - P) + lam_par P. A mixture therefore carries two
variances per component instead of a d x d matrix, and P x is "block-sum,
scale, copy back": a posterior costs O(J d) to build and eps O(J n d) for n
rows. Both the prior and the conditional posterior stay Gaussian mixtures
in closed form, so the exact score (and hence an exact eps-prediction
"denoiser") is available at every noise level. When P = I (block 1) the
quadratic form has one part. A `Reduction` writes the posteriors of R
observations in at most 2J + 3 coordinates per state row, in which the
deterministic solvers run unchanged. A solve looks up its whole time grid
once, through `prepare`, and owns that table; nothing in odebc caches.
Everything here is pure and immutable after construction, which is what
lets projections run on any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .schedule import DiscreteSchedule


class _Blank:
    """Marker for the unconditional branch (the dropped condition)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BLANK"


BLANK = _Blank()


@dataclass(frozen=True)
class BlockPooling:
    """b x b block sums S over row-major (height, width, channels) tensors.

    Block-average pooling is D = S / b^2 and P = S^T S / b^2. A flat world
    of dimension d is the shape (1, d, 1) with block 1, where S = P = I.
    For b > 1, S works one band of b pixel rows at a time through `_row`,
    the (width * channels, width / b * channels) 0/1 matrix that sums one
    pixel row into its row of blocks.
    """

    shape: tuple[int, int, int]
    block: int
    _row: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h, w, c = self.shape
        b = self.block
        if b < 1 or h % b or w % b:
            raise ValidationError("block must divide both spatial axes")
        row = None
        if b > 1:
            pixel = np.arange(w * c)
            row = np.zeros((w * c, w // b * c))
            row[pixel, pixel // (b * c) * c + pixel % c] = 1.0
        object.__setattr__(self, "_row", row)

    @property
    def size(self) -> int:
        """Pixels per block, b^2."""
        return self.block * self.block

    @property
    def dim(self) -> int:
        h, w, c = self.shape
        return h * w * c

    @property
    def obs_dim(self) -> int:
        return self.dim // self.size

    def sums(self, x: np.ndarray) -> np.ndarray:
        """S x over the last axis: (..., dim) -> (..., obs_dim)."""
        if self.block == 1:
            return x
        _, w, c = self.shape
        rows = x.reshape(-1, self.block, w * c)
        # Slice adds in band order, as a strided .sum(axis=1) would add
        # them, without its per-call reduction set-up.
        bands = rows[:, 0] + rows[:, 1]
        for i in range(2, self.block):
            bands += rows[:, i]
        return (bands @ self._row).reshape(x.shape[:-1] + (-1,))

    def spread_add(self, base: np.ndarray, v: np.ndarray) -> np.ndarray:
        """base + S^T v, each block value of v added to all its pixels; base
        (..., dim) and v (..., obs_dim) share their leading axes."""
        if self.block == 1:
            return base + v
        _, w, c = self.shape
        rows = v.reshape(-1, w // self.block * c) @ self._row.T
        out = base.reshape(-1, self.block, w * c) + rows[:, None, :]
        return out.reshape(base.shape)


@dataclass(frozen=True, eq=False)
class GmmWorld:
    """Isotropic Gaussian mixture prior with a linear degradation channel.

    y = D x_0 + eta, eta ~ N(0, tau^2 I), where D block-averages an
    image-shaped x_0 (or is the identity for flat worlds with block=1).
    """

    weights: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    tau: float
    block: int = 1
    shape: tuple[int, int, int] | None = None
    pooling: BlockPooling = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        mu = np.asarray(self.means, dtype=np.float64)
        s = np.asarray(self.stds, dtype=np.float64)
        if mu.ndim != 2 or w.shape != (mu.shape[0],) or s.shape != (mu.shape[0],):
            raise ShapeMismatchError("weights, means, stds must agree on J")
        if abs(w.sum() - 1.0) > 1e-12 or np.any(w <= 0):
            raise ValidationError("weights must be positive and sum to 1")
        if np.any(s <= 0) or self.tau <= 0:
            raise ValidationError("stds and tau must be positive")
        if self.shape is not None:
            h, wd, c = self.shape
            if h * wd * c != mu.shape[1]:
                raise ShapeMismatchError("shape product != mean dimension")
            pooling = BlockPooling(tuple(self.shape), self.block)
        else:
            if self.block != 1:
                raise ValidationError("flat worlds require block=1")
            pooling = BlockPooling((1, mu.shape[1], 1), 1)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "stds", s)
        object.__setattr__(self, "pooling", pooling)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def obs_dim(self) -> int:
        return self.pooling.obs_dim

    def degrade(self, x: np.ndarray) -> np.ndarray:
        """Block means D x over the last axis."""
        return self.pooling.sums(np.asarray(x, dtype=np.float64)) / self.pooling.size


@dataclass(frozen=True, eq=False)
class Mixture:
    """Gaussian mixture with covariances lam_perp[j] (I - P) + lam_par[j] P.

    P is the projector of `pooling`; for flat worlds P = I and lam_perp
    plays no part. The prior is the case lam_perp == lam_par. `log_w` is
    (J,), `means` (J, d).
    """

    log_w: np.ndarray
    means: np.ndarray
    lam_perp: np.ndarray
    lam_par: np.ndarray
    pooling: BlockPooling
    # Derived for the score, with a length-1 axis for the state rows: each
    # mean next to its block sums, [m_j, S m_j] (m_j alone when P = I), and
    # log w_j; the sizes (d, k) of the two parts of such an augmented
    # vector, and the variances as (J, 2) columns (perp, par).
    _aug_means: np.ndarray = field(init=False, repr=False)
    _log_w_rows: np.ndarray = field(init=False, repr=False)
    _parts: tuple[int, int] = field(init=False, repr=False)
    _lams: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pool = self.pooling
        aug = self.means
        if pool.block > 1:
            aug = np.concatenate([aug, pool.sums(aug)], axis=-1)
        object.__setattr__(self, "_aug_means", aug[..., None, :])
        object.__setattr__(self, "_log_w_rows", self.log_w[..., None])
        object.__setattr__(self, "_parts", (pool.dim, pool.obs_dim))
        object.__setattr__(self, "_lams",
                           np.stack([self.lam_perp, self.lam_par], axis=1))

    @property
    def dim(self) -> int:
        return self.means.shape[-1]

    def _coefficients(self, alpha: np.ndarray, sigma: np.ndarray):
        """`_variances` of the mixture as the scales (1/A_j, gap_j), with
        gap_j = (1/C_j - 1/A_j) / b^2; when P = I the second is 1/C_j
        itself, the scale of the one part."""
        scales, half_logdet = _variances(self._lams, self._parts, alpha, sigma)
        if self.pooling.block > 1:
            scales[..., 1] = (scales[..., 1] - scales[..., 0]) / self.pooling.size
        return scales, half_logdet

    def _undiffused(self):
        """One row of `_coefficients` at (alpha, sigma) = (1, 0): the
        mixture itself."""
        scales, half_logdet = self._coefficients(np.ones(1), np.zeros(1))
        return scales[0], half_logdet[0]

    def _pull(self, x: np.ndarray, alpha: float, scales, half_logdet):
        """Minus the score of the diffused mixture at rows x (n, d):
        sum_j r_j C_j^-1 v_j, with C_j^-1 v = v / A + S^T (gap S v)."""
        out = _responsibility_sum(*_terms(self, x, alpha, scales, half_logdet))
        if self.pooling.block > 1:
            out = self.pooling.spread_add(out[..., :self.dim], out[..., self.dim:])
        return out

    def diffused(self, alpha: float, sigma: float) -> "Mixture":
        """Mixture of alpha-scaled components convolved with sigma^2 noise."""
        return Mixture(
            log_w=self.log_w,
            means=alpha * self.means,
            lam_perp=alpha * alpha * self.lam_perp + sigma * sigma,
            lam_par=alpha * alpha * self.lam_par + sigma * sigma,
            pooling=self.pooling,
        )


def _as_batch(x: np.ndarray, dim: int):
    x = np.asarray(x, dtype=np.float64)
    if x.shape == (dim,):
        return x[None, :], True
    if x.ndim == 2 and x.shape[1] == dim:
        return x, False
    raise ShapeMismatchError(f"expected shape ({dim},) or (n, {dim}), got {x.shape}")


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log-sum-exp over one axis, kept with length 1; the max term keeps
    the log argument >= 1."""
    peak = a.max(axis=axis, keepdims=True)
    return peak + np.log(np.exp(a - peak).sum(axis=axis, keepdims=True))


def _variances(lams: np.ndarray, parts: tuple[int, int], alpha, sigma):
    """(1 / (A_j, C_j) (n, J, 2), log|C_j|/2 (n, J, 1)) at the n times
    (alpha, sigma): the diffused (perp, par) variances of `lams` (J, 2),
    whose eigenspaces have dimensions d - k and k for `parts` (d, k).
    Neither depends on the means or weights."""
    d, k = parts
    var = np.multiply.outer(alpha * alpha, lams) + (sigma * sigma)[:, None, None]
    logs = np.log(var)
    half_logdet = 0.5 * ((d - k) * logs[..., 0] + k * logs[..., 1])
    return 1.0 / var, half_logdet[..., None]


def _quadratic(x: np.ndarray, means: np.ndarray, base: np.ndarray,
               alpha: float, scales: np.ndarray):
    """Per-component pieces of a mixture with diagonal covariances at rows
    x (..., n, m): (joint (..., J, n), the difference scaled by `scales`).
    joint[j] = base_j - |x - alpha m_j|^2 / 2, each coordinate's square
    weighted by its scale; `means` is (..., J, 1, m), `base` (..., J, 1),
    `scales` (J, m) or (J, 1)."""
    diff = x[..., None, :, :] - alpha * means
    scaled = diff * scales[:, None, :]
    return base - 0.5 * np.einsum("...jnd,...jnd->...jn", scaled, diff), scaled


def _responsibility_sum(joint: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """sum_j r_j scaled_j, with r_j the softmax of `joint` over components."""
    resp = np.exp(joint - joint.max(axis=-2, keepdims=True))
    resp /= resp.sum(axis=-2, keepdims=True)
    return np.einsum("...jn,...jnd->...nd", resp, scaled)


def _terms(mix: Mixture, x: np.ndarray, alpha: float, scales, half_logdet):
    """`_quadratic` of the (alpha, sigma)-diffused mixture at rows x (n, d).

    `scales` and `half_logdet` are one time's rows of `_coefficients`. With
    v_j = x - alpha m_j, |P v|^2 = |S v|^2 / b^2 gives the quadratic form
    |v|^2 / A + gap |S v|^2. Both parts are computed at once on the
    augmented difference [v_j, S v_j]; when P = I the form is |v|^2 / C on
    v_j alone. joint[j] is log w_j + log N_j(x) without the -d/2 log(2 pi)
    that all components share.
    """
    if mix.pooling.block == 1:
        augmented, scales = x, scales[:, 1:]
    else:
        augmented = np.concatenate([x, mix.pooling.sums(x)], axis=-1)
        scales = np.repeat(scales, mix._parts, axis=1)
    return _quadratic(augmented, mix._aug_means, mix._log_w_rows - half_logdet,
                      alpha, scales)


def mixture_log_density(mix: Mixture, x):
    xb, single = _as_batch(x, mix.dim)
    joint = _terms(mix, xb, 1.0, *mix._undiffused())[0]
    out = _logsumexp(joint, axis=0)[0] - 0.5 * mix.dim * math.log(2 * math.pi)
    return float(out[0]) if single else out


def mixture_sample(mix: Mixture, n: int, rng: np.random.Generator) -> np.ndarray:
    """Exact draws: component by weight, then m + sd_perp g + (sd_par - sd_perp) P g."""
    comps = rng.choice(mix.log_w.size, size=n, p=np.exp(mix.log_w))
    gauss = rng.standard_normal((n, mix.dim))
    sd_perp = np.sqrt(mix.lam_perp)[comps, None]
    sd_par = np.sqrt(mix.lam_par)[comps, None]
    pool = mix.pooling
    return pool.spread_add(mix.means[comps] + sd_perp * gauss,
                           (sd_par - sd_perp) * pool.sums(gauss) / pool.size)


def prior_mixture(world: GmmWorld) -> Mixture:
    s2 = world.stds**2
    return Mixture(log_w=np.log(world.weights), means=world.means,
                   lam_perp=s2, lam_par=s2, pooling=world.pooling)


def _posterior_parts(world: GmmWorld, ys: np.ndarray):
    """The posteriors of observations ys (R, k): log weights (R, J), means
    (R, J, d) and the variances (lam_perp, lam_par), each (J,), which do not
    depend on y. See `conditional_posterior`."""
    pool = world.pooling
    n = pool.size
    s2 = world.stds**2
    g = s2 / n + world.tau**2
    resid = ys[:, None, :] - pool.sums(world.means) / n
    prior_means = np.broadcast_to(world.means, resid.shape[:-1] + (world.dim,))
    means = pool.spread_add(prior_means, resid * (s2 / (n * g))[:, None])
    # The evidence's -k/2 log(2 pi) is shared by all components and cancels.
    log_w = np.log(world.weights) - 0.5 * (
        pool.obs_dim * np.log(g) + np.einsum("rjk,rjk->rj", resid, resid) / g)
    log_w = log_w - _logsumexp(log_w, axis=-1)
    return log_w, means, s2, s2 * world.tau**2 / g


def conditional_posterior(world: GmmWorld, y: np.ndarray) -> Mixture:
    """Exact posterior mixture over x_0 given one degraded observation y (k,).

    Linear-Gaussian conjugacy per component, with n = b^2 pixels per block:
    the evidence covariance s_j^2 D D^T + tau^2 I is g_j I with
    g_j = s_j^2 / n + tau^2, so
      m_j = mu_j + s_j^2 / (n g_j) S^T (y - D mu_j),
      C_j = s_j^2 (I - P) + s_j^2 tau^2 / g_j P,
    and component weights are reweighted by the evidence N(y; D mu_j, g_j I).
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (world.obs_dim,):
        raise ShapeMismatchError(
            f"y must have shape ({world.obs_dim},), got {y.shape}")
    log_w, means, lam_perp, lam_par = _posterior_parts(world, y[None])
    return Mixture(log_w=log_w[0], means=means[0], lam_perp=lam_perp,
                   lam_par=lam_par, pooling=world.pooling)


# A remainder at or below this, relative to the vectors it came from, adds
# no direction to a reduction: equal means, or an observation whose S^T y
# lies in span{P mu_j}.
RANK_TOL = 1e-12


def _squares(v: np.ndarray) -> np.ndarray:
    """Squared norms of the rows of v (..., d)."""
    return np.einsum("...d,...d->...", v, v)


def _outside(v: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Rows v (..., d) less their part in the span of the orthonormal rows
    of `frame`, removed twice for orthogonality to working precision."""
    for _ in range(2):
        v = v - np.einsum("...s,sd->...d", np.einsum("...d,sd->...s", v, frame),
                          frame)
    return v


def _frame(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of `vectors` (J, d), by
    Gram-Schmidt in row order; a remainder at or below RANK_TOL times the
    longest row adds no row."""
    tol = RANK_TOL * math.sqrt(_squares(vectors).max())
    frame = vectors[:0]
    for v in vectors:
        rest = _outside(v, frame)
        norm = math.sqrt(_squares(rest))
        if norm > tol:
            frame = np.concatenate([frame, rest[None] / norm])
    return frame


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


@dataclass(frozen=True, eq=False)
class Reduction:
    """The posteriors of R observations of one world in reduced coordinates.

    U = span{(I - P) mu_j} is the same for every observation, because
    (I - P) S^T = 0. The P part of each posterior mean of observation y_r
    lies in span{P mu_j} plus one direction w_r: the part of S^T y_r
    outside span{P mu_j} (zero when there is none). With orthonormal rows
    Q_U and Q_V for the two spans, a state row x has the coordinates
    [Q_U x, Q_V x, w_r . x] and two residual norms: p of (I - P) x outside
    U, and q of P x outside the span of Q_V and w_r. In these m <= 2J + 3
    numbers, component j is a diagonal Gaussian: variance A_j along Q_U and
    p, C_j along the rest, mean 0 along p and q; its log-determinant keeps
    the sizes (d - k, k). The residual directions never turn, and every
    deterministic solver step is linear in (x, eps), so a solve of the
    reduced rows is the solve of x; `reduce` gives both ends of that map.

    As the condition of `AnalyticDenoiser`, a reduction takes an (R n, m)
    state: R consecutive groups of n rows, group r under observation r.
    """

    frame: np.ndarray  # (s, d): the rows of Q_U, then those of Q_V
    n_perp: int  # rows of Q_U
    directions: np.ndarray  # (R, d): w_r, or 0
    pooling: BlockPooling
    log_w: np.ndarray  # (R, J)
    means: np.ndarray  # (R, J, m): the posterior means' coordinates
    lams: np.ndarray  # (J, 2): the posterior (perp, par) variances

    @property
    def dim(self) -> int:
        """m, the numbers per reduced state row."""
        return self.means.shape[-1]

    def _coefficients(self, alpha: np.ndarray, sigma: np.ndarray):
        """`_variances`, each coordinate's inverse variance in its column."""
        inverse, half_logdet = _variances(
            self.lams, (self.pooling.dim, self.pooling.obs_dim), alpha, sigma)
        kinds = np.repeat([0, 1, 1, 0, 1], [self.n_perp,
                                            len(self.frame) - self.n_perp, 1, 1, 1])
        return inverse[..., kinds], half_logdet

    def _pull(self, x: np.ndarray, alpha: float, scales, half_logdet):
        """Minus the score at (R n, m) reduced state rows."""
        states = x.reshape(len(self.log_w), -1, self.dim)
        out = _responsibility_sum(*_quadratic(
            states, self.means[:, :, None], self.log_w[..., None] - half_logdet,
            alpha, scales))
        return out.reshape(x.shape)

    def reduce(self, x: np.ndarray):
        """Rows x (K, d) under every observation: (the (R K, m) reduced
        state, lift). lift(end, r) is the (K, d) rows that group r of `end`,
        a solve's result, stands for."""
        pool, frame, u = self.pooling, self.frame, self.n_perp
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != pool.dim:
            raise ShapeMismatchError(
                f"rows must have shape (K, {pool.dim}), got {x.shape}")
        par = pool.spread_add(np.zeros_like(x), pool.sums(x) / pool.size)
        coords = np.einsum("kd,sd->ks", x, frame)
        rest_p = x - par - np.einsum("ku,ud->kd", coords[:, :u], frame[:u])
        rest_q = par - np.einsum("kv,vd->kd", coords[:, u:], frame[u:])
        along = np.einsum("kd,rd->rk", rest_q, self.directions)
        p = np.sqrt(_squares(rest_p))
        q = np.sqrt(np.maximum(_squares(rest_q) - along * along, 0.0))
        n_refs, n_rows = along.shape
        states = np.concatenate([
            np.broadcast_to(coords, (n_refs,) + coords.shape), along[..., None],
            np.broadcast_to(p[:, None], (n_refs, n_rows, 1)), q[..., None]],
            axis=2).reshape(n_refs * n_rows, self.dim)

        def lift(end, r):
            rows = end.reshape(n_refs, n_rows, self.dim)[r]
            w = self.directions[r]
            return (np.einsum("ks,sd->kd", rows[:, :-3], frame)
                    + rows[:, -3, None] * w
                    + _ratio(rows[:, -2], p)[:, None] * rest_p
                    + _ratio(rows[:, -1], q[r])[:, None]
                    * (rest_q - along[r, :, None] * w))

        return states, lift


def reduce_conditions(world: GmmWorld, ys: np.ndarray) -> Reduction:
    """The `Reduction` of the observations ys (R, k) of `world`."""
    ys = np.asarray(ys, dtype=np.float64)
    if ys.ndim != 2 or ys.shape[1] != world.obs_dim or not len(ys):
        raise ShapeMismatchError(
            f"ys must have shape (R, {world.obs_dim}) with R >= 1, got {ys.shape}")
    log_w, post_means, lam_perp, lam_par = _posterior_parts(world, ys)
    pool = world.pooling
    par_means = pool.spread_add(np.zeros_like(world.means),
                                pool.sums(world.means) / pool.size)
    perp, par = _frame(world.means - par_means), _frame(par_means)
    lifted = pool.spread_add(np.zeros((len(ys), world.dim)), ys)
    rest = _outside(lifted, par)
    norm = np.sqrt(_squares(rest))
    directions = np.divide(rest, norm[:, None], out=np.zeros_like(rest),
                           where=(norm > RANK_TOL * np.sqrt(_squares(lifted)))[:, None])
    frame = np.concatenate([perp, par])
    means = np.concatenate([
        np.einsum("rjd,sd->rjs", post_means, frame),
        np.einsum("rjd,rd->rj", post_means, directions)[..., None],
        np.zeros(log_w.shape + (2,))], axis=2)
    return Reduction(frame=frame, n_perp=len(perp), directions=directions,
                     pooling=pool, log_w=log_w, means=means,
                     lams=np.stack([lam_perp, lam_par], axis=1))


class _SolveTable:
    """A condition prepared for the times of one solve: its mixture (a
    `Mixture` or a `Reduction`), (alpha, sigma) at every time, and the
    `_coefficients` of the block of ROWS times that holds the row eps last
    asked for, block 0 from `prepare`. Row i is the i-th time's; computed
    elementwise, it is a one-pass table's row to the bit.
    """

    ROWS = 256

    def __init__(self, mix, alpha, sigma):
        self.mixture = mix
        self._alpha = alpha
        self._sigma = sigma
        self._hold(0)

    def _hold(self, block):
        self._block, rows = block, slice(block * self.ROWS, (block + 1) * self.ROWS)
        self._scales, self._half_logdet = self.mixture._coefficients(
            self._alpha[rows], self._sigma[rows])

    def eps(self, x, i):
        block, row = divmod(i, self.ROWS)
        if block != self._block:
            self._hold(block)
        xb, single = _as_batch(x, self.mixture.dim)
        out = self._sigma[i] * self.mixture._pull(
            xb, self._alpha[i], self._scales[row], self._half_logdet[row])
        return out[0] if single else out


class AnalyticDenoiser:
    """eps(x_t, condition, t) backed by the exact world score.

    A condition is BLANK, one observation (k,) for a d-wide state, or a
    `Reduction` of R observations for an (R n, m) reduced state; or what
    `prepare` made of one for a solve. A raw observation's posterior is
    built, in O(J d), each time one is prepared: once per solve, and once
    per unprepared eps call. Pure given (world, schedule) and holding no
    state but the prior, so calls from any thread return identical results.
    """

    def __init__(self, world: GmmWorld, s: DiscreteSchedule):
        self.world = world
        self.schedule = s
        self._prior = prior_mixture(world)

    def _mixture(self, condition):
        if condition is BLANK:
            return self._prior
        if isinstance(condition, Reduction):
            return condition
        return conditional_posterior(self.world, condition)

    def prepare(self, condition, times):
        """`condition` ready for eps at each of `times` in [0, 1], from one
        array lookup each of alpha and sigma; eps then takes a time's row in
        `times`. The solve keeps the result; the denoiser keeps no per-time state."""
        times = np.asarray(times, dtype=np.float64).reshape(-1)
        return _SolveTable(self._mixture(condition), self.schedule.alpha(times),
                           self.schedule.sigma(times))

    def eps(self, x_t, condition, t):
        """eps at time t; for a condition from `prepare`, t is the row of
        the time in the times it was prepared for."""
        if isinstance(condition, _SolveTable):
            return condition.eps(x_t, t)
        # One time: a solve prepared for that time alone.
        return self.prepare(condition, t).eps(x_t, 0)


class _ZeroDenoiser:
    def prepare(self, condition, times):
        return condition

    def eps(self, x_t, condition, t):
        return np.zeros_like(np.asarray(x_t, dtype=np.float64))


def zero_denoiser():
    return _ZeroDenoiser()
