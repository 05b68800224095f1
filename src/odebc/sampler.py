"""Reverse-process solvers: ancestral DDPM, DDIM, DPM-Solver-2, fine Euler.

All solvers share one calling convention: the state is a flat vector (or a
batch of them), the timestep plan runs from the noise boundary down to
zero, and the model provides two methods on normalized time. A solve first
calls prepare(cond, times) once with every time it will visit, and then
eps(x, prepared, i) at each step, where i is the step's row in those times
and only grows (each DPM-Solver-2 midpoint follows its step); a model with
nothing to look up per time returns cond from prepare unchanged. Called with a
condition that was not prepared, eps takes the time itself. The solvers
see only rows, and their deterministic steps are linear in (x, eps).

`run_solver` integrates whatever state and condition it is given. The
projection h(x_T, y) has one path: `project_reduced` maps rows to the
reduced coordinates of a `model.Reduction` of R observations (R equal,
consecutive row groups of at most 2J + 3 numbers, each group conditioned
on its own observation), solves that state in one `run_solver` call, and
lifts each group back to d; `project` is its one-observation case. Only
DDPM and the oracles solve a d-wide state. The three deterministic solvers
are pure functions of their inputs; DDPM derives its noise from (seed,
transition index) with a counter-based generator, so its output never
depends on evaluation order either.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import PlanMismatchError, ShapeMismatchError, ValidationError
from .model import reduce_conditions
from .schedule import DiscreteSchedule, TimestepPlan


class SolverKind(enum.Enum):
    DDPM_ANCESTRAL = "ddpm"
    DDIM = "ddim"
    DPM_SOLVER_2 = "dpm2"
    EULER_REF = "euler"


@dataclass(frozen=True, eq=False)
class SolverConfig:
    kind: SolverKind
    schedule: DiscreteSchedule
    plan: TimestepPlan
    noise_seed: int = 0

    def __post_init__(self):
        if self.kind is SolverKind.EULER_REF:
            if self.plan.steps is not None or self.plan.n_transitions < 1000:
                raise PlanMismatchError(
                    "Euler reference needs a continuous uniform plan, >= 1000 steps"
                )
            gaps = np.diff(self.plan.times)
            if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12):
                raise PlanMismatchError("Euler reference plan must be uniform")
        elif self.kind in (SolverKind.DDPM_ANCESTRAL, SolverKind.DDIM):
            self.plan.require_steps()
        if self.plan.n_points < 2:
            raise PlanMismatchError("plan needs at least 2 points")

    def label(self) -> str:
        # Discrete plans are named by grid size (ddpm-1000 is the full
        # chain); the continuous reference is named by its step count.
        if self.plan.steps is not None:
            return f"{self.kind.value}-{self.plan.n_points}"
        return f"{self.kind.value}-{self.plan.n_transitions}"


def _check_state(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValidationError("state tensor contains non-finite values")
    return x


def _ddpm(model, cfg: SolverConfig, x_t, cond):
    """Ancestral sampling with the lower-bound variance, skipped-step form.

    For a transition from step k to k' < k the effective step has
    beta = 1 - abar_k / abar_k' and variance (1 - abar_k')/(1 - abar_k) * beta;
    the final step to k'=0 adds no noise.
    """
    steps = cfg.plan.require_steps()
    abar = cfg.schedule.alpha_bars
    x = _check_state(x_t)
    cond = model.prepare(cond, cfg.plan.times[:-1])
    for i in range(cfg.plan.n_transitions):
        k, kp = int(steps[i]), int(steps[i + 1])
        a_k, a_p = abar[k], abar[kp]
        eps = model.eps(x, cond, i)
        x0_hat = (x - math.sqrt(1.0 - a_k) * eps) / math.sqrt(a_k)
        beta = 1.0 - a_k / a_p
        mean = (
            math.sqrt(a_p) * beta / (1.0 - a_k) * x0_hat
            + math.sqrt(a_k / a_p) * (1.0 - a_p) / (1.0 - a_k) * x
        )
        if kp == 0:
            x = mean
        else:
            var = (1.0 - a_p) / (1.0 - a_k) * beta
            x = mean + math.sqrt(var) * rng.gauss(cfg.noise_seed, i, x.shape)
    return x


def _ddim(model, cfg: SolverConfig, x_t, cond):
    """Deterministic update x' = a'(x - s_k eps)/a_k + s' eps on sqrt(abar)."""
    steps = cfg.plan.require_steps()
    abar = cfg.schedule.alpha_bars
    x = _check_state(x_t)
    cond = model.prepare(cond, cfg.plan.times[:-1])
    for i in range(cfg.plan.n_transitions):
        k, kp = int(steps[i]), int(steps[i + 1])
        eps = model.eps(x, cond, i)
        ratio = math.sqrt(abar[kp] / abar[k])
        x = ratio * (x - math.sqrt(1.0 - abar[k]) * eps) \
            + math.sqrt(1.0 - abar[kp]) * eps
    return x


def _dpm2_grid(s: DiscreteSchedule, plan: TimestepPlan):
    """Midpoint times and (alpha, sigma, h) tables for one plan; the
    midpoints come from one batched inversion of lam."""
    times = plan.times
    lam = s.lam(times)
    h = np.diff(lam)
    mids = s.time_of_lambda(lam[:-1] + 0.5 * h)
    return h, mids, s.alpha(times), s.alpha(mids), s.sigma(times), s.sigma(mids)


def _dpm2(model, cfg: SolverConfig, x_t, cond):
    """Second-order exponential integrator with a log-SNR midpoint stage."""
    x = _check_state(x_t)
    h, mids, a_ends, a_mids, s_ends, s_mids = _dpm2_grid(cfg.schedule, cfg.plan)
    cond = model.prepare(cond, np.stack([cfg.plan.times[:-1], mids], 1).ravel())
    for i in range(cfg.plan.n_transitions):
        eps_s = model.eps(x, cond, 2 * i)
        u = (a_mids[i] / a_ends[i]) * x \
            - s_mids[i] * math.expm1(0.5 * h[i]) * eps_s
        eps_m = model.eps(u, cond, 2 * i + 1)
        x = (a_ends[i + 1] / a_ends[i]) * x \
            - s_ends[i + 1] * math.expm1(h[i]) * eps_m
    return x


def _euler(model, cfg: SolverConfig, x_t, cond):
    """Explicit Euler on dx/dt = f x + g^2/(2 sigma) eps; the ODE oracle."""
    x = _check_state(x_t)
    times = cfg.plan.times
    _, sigma, f, g2 = cfg.schedule.coeffs(times[:-1])
    gain = g2 / (2.0 * sigma)
    dts = np.diff(times)
    cond = model.prepare(cond, times[:-1])
    for i in range(cfg.plan.n_transitions):
        eps = model.eps(x, cond, i)
        x = x + dts[i] * (f[i] * x + gain[i] * eps)
    return x


_DISPATCH = {
    SolverKind.DDPM_ANCESTRAL: _ddpm,
    SolverKind.DDIM: _ddim,
    SolverKind.DPM_SOLVER_2: _dpm2,
    SolverKind.EULER_REF: _euler,
}


def run_solver(model, cfg: SolverConfig, x_t, cond):
    """Run any configured solver on the state x_t, stochastic ones included."""
    return _DISPATCH[cfg.kind](model, cfg, x_t, cond)


def project_reduced(model, cfg: SolverConfig, rows, reduction):
    """The projections of rows (K, d) under every observation of
    `reduction`, from one solve of their reduced state; deterministic
    solvers only. Returns lift: r -> the (K, d) projections under
    observation r."""
    if cfg.kind is SolverKind.DDPM_ANCESTRAL:
        raise ValidationError("projection requires a deterministic solver")
    states, lift = reduction.reduce(rows)
    end = run_solver(model, cfg, states, reduction)
    return lambda r: lift(end, r)


def project(model, cfg: SolverConfig, x_t, y):
    """The projection h(x_T, y) of x_t (d,) or (n, d) rows under one
    observation y (k,) of the model's world."""
    world = model.world
    x = _check_state(x_t)
    try:
        y = np.asarray(y, dtype=np.float64)
    except (TypeError, ValueError):  # BLANK, or anything else not numeric
        raise ShapeMismatchError(
            f"project needs an observation y ({world.obs_dim},), got {y!r}"
        ) from None
    if x.ndim not in (1, 2) or x.shape[-1] != world.dim \
            or y.shape != (world.obs_dim,):
        raise ShapeMismatchError(
            f"project needs x_t ({world.dim},) or (n, {world.dim}) and y "
            f"({world.obs_dim},), got {x.shape} and {y.shape}")
    lift = project_reduced(model, cfg, np.atleast_2d(x),
                           reduce_conditions(world, y[None]))
    return lift(0).reshape(x.shape)
