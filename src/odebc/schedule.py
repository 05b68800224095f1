"""Variance-preserving noise schedule with discrete and continuous views.

The discrete grid stores per-step betas and their cumulative products. The
continuous view interpolates log(alpha_bar) piecewise-linearly over the step
index rescaled to t in [0, 1], so grid points reproduce the discrete values
exactly; the drift f comes from differentiating the interpolant and, by the
VP identity, g^2 = -2f. lam inverts in closed form, through log(alpha_bar) =
-log(1 + e^(-2 lam)). t=1 is the noise boundary (step T-1), t=0 is step 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, require_integer


class DiscreteSchedule:
    """Discrete VP schedule plus its continuous interpolant.

    Attributes:
        betas: per-step noise rates, shape (T,), each in (0, 1).
        alpha_bars: cumulative products of (1 - beta), shape (T,).
    """

    def __init__(self, betas: np.ndarray):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 2:
            raise ValidationError("schedule needs at least 2 betas")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValidationError("betas must lie strictly inside (0, 1)")
        self.betas = betas
        # Cumulative product in extended precision so the stored float64
        # values are the correctly rounded products, not drifted ones.
        self.alpha_bars = np.cumprod(1.0 - betas, dtype=np.longdouble).astype(
            np.float64
        )
        self._log_alpha_bars = np.log(self.alpha_bars)

    @property
    def total_steps(self) -> int:
        return self.betas.size

    def _interp_log_alpha_bar(self, t):
        """Piecewise-linear value and slope of log(alpha_bar) at times t,
        each in [0, 1]; t may be a scalar or an array of any shape."""
        n = self.total_steps - 1
        t = np.asarray(t, dtype=np.float64)
        if not np.all((t >= 0.0) & (t <= 1.0)):  # NaN fails too
            raise ValidationError("t must lie in [0, 1]")
        frac = t * n
        k = np.clip(np.floor(frac).astype(np.int64), 0, n - 1)
        frac -= k  # in place: one array fewer at a long grid's peak
        logab = self._log_alpha_bars
        seg = logab[k + 1] - logab[k]
        return logab[k] + frac * seg, seg * n

    def alpha(self, t):
        val, _ = self._interp_log_alpha_bar(t)
        return np.exp(0.5 * val)

    def sigma(self, t):
        val, _ = self._interp_log_alpha_bar(t)
        return np.sqrt(-np.expm1(val))

    def lam(self, t):
        """Half log-SNR log(alpha/sigma); strictly decreasing in t."""
        val, _ = self._interp_log_alpha_bar(t)
        return 0.5 * (val - np.log(-np.expm1(val)))

    def coeffs(self, t):
        """Return (alpha, sigma, f, g2) at continuous time t."""
        val, dval = self._interp_log_alpha_bar(t)
        f = 0.5 * dval
        return np.exp(0.5 * val), np.sqrt(-np.expm1(val)), f, -2.0 * f

    def time_of_lambda(self, target):
        """The times where lam equals `target`, a scalar or an array of any
        shape: the log(alpha_bar) that each target implies, located on its
        segment of the interpolant. Where lam is flat, on a segment of zero
        length, the segment's start is returned."""
        target = np.asarray(target, dtype=np.float64)
        if not np.all((self.lam(1.0) <= target) & (target <= self.lam(0.0))):
            raise ValidationError("lambda target outside schedule range")
        n = self.total_steps - 1
        logab = self._log_alpha_bars
        v = -np.logaddexp(0.0, -2.0 * target)
        # logab[k] > v >= logab[k + 1], except where k is clipped at an end
        k = np.clip(np.searchsorted(-logab, -v) - 1, 0, n - 1)
        seg = logab[k + 1] - logab[k]
        seg = np.where(seg < 0.0, seg, -np.inf)  # a flat end segment: frac 0
        return np.clip((k + (v - logab[k]) / seg) / n, 0.0, 1.0)


def make_linear_vp_schedule(
    total_steps: int, beta_1: float, beta_t: float
) -> DiscreteSchedule:
    """Linear beta ramp from beta_1 to beta_t over total_steps steps."""
    if total_steps < 2:
        raise ValidationError("total_steps must be >= 2")
    if not (0.0 < beta_1 <= beta_t < 1.0):
        raise ValidationError("need 0 < beta_1 <= beta_t < 1")
    k = np.arange(total_steps, dtype=np.float64)
    betas = beta_1 + k * (beta_t - beta_1) / (total_steps - 1)
    return DiscreteSchedule(betas)


@dataclass(frozen=True, eq=False)
class TimestepPlan:
    """Strictly decreasing sampling grid of normalized times in [0, 1],
    from the t=1 boundary down to t=0. A resampled grid's times sit on
    step indices, k / (T-1); the solvers read only the times."""

    times: np.ndarray

    @property
    def n_points(self) -> int:
        return self.times.size

    @property
    def n_transitions(self) -> int:
        return self.times.size - 1


def resample_timesteps(s: DiscreteSchedule, n: int) -> TimestepPlan:
    """Reduce the T-step grid to a plan of n evenly spaced indices, step
    T-1 and step 0 included, each rounded half up. n is an integer in
    [2, T]; the spacing is then at least one step, so no two indices meet.
    """
    total = s.total_steps
    require_integer(n, "plan size", minimum=2, maximum=total)
    ascending = np.floor(np.linspace(0.0, total - 1, n) + 0.5).astype(np.int64)
    return TimestepPlan(times=ascending[::-1].astype(np.float64) / (total - 1))


def uniform_continuous_plan(n_steps: int) -> TimestepPlan:
    """Evenly spaced continuous plan with n_steps transitions over [1, 0]."""
    if n_steps < 1:
        raise ValidationError("need at least one step")
    times = np.linspace(1.0, 0.0, n_steps + 1)
    return TimestepPlan(times=times)

