"""Reverse-process solvers: ancestral DDPM, DDIM, DPM-Solver-2, fine Euler.

All solvers share one calling convention: the state is a flat vector (or a
batch of them), the timestep plan runs from the noise boundary down to
zero, and the model provides two methods on normalized time. A solve first
calls prepare(cond, times) once with every time it will visit, and then
eps(x, prepared, i) at each step, where i is the step's row in those times
and only grows (each DPM-Solver-2 midpoint follows its step); a model with
nothing to look up per time returns cond from prepare unchanged. Called with a
condition that was not prepared, eps takes the time itself. The solvers
see only rows and plan times, and their deterministic steps are linear in
(x, eps). DDIM (first-order DPM-Solver), DDPM (DDIM's step plus the
posterior variance, eta = 1) and both stages of DPM-Solver-2 take the one
step x' = ratio x - gain eps of `_first_order`.

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
            if self.plan.n_transitions < 1000:
                raise PlanMismatchError(
                    "Euler reference needs a continuous uniform plan, >= 1000 steps"
                )
            gaps = np.diff(self.plan.times)
            if not np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12):
                raise PlanMismatchError("Euler reference plan must be uniform")
        if self.plan.n_points < 2:
            raise PlanMismatchError("plan needs at least 2 points")

    def label(self) -> str:
        # The Euler reference is named by its step count, every other
        # solver by its grid size (ddpm-1000 is the full chain).
        if self.kind is SolverKind.EULER_REF:
            return f"{self.kind.value}-{self.plan.n_transitions}"
        return f"{self.kind.value}-{self.plan.n_points}"


def _check_state(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValidationError("state tensor contains non-finite values")
    return x


def _first_order(schedule, times, ends):
    """Per-transition (ratio, gain), from one schedule lookup, of the step
    x' = ratio x - gain eps from each of `times` to its match in `ends`:
    ratio = alpha'/alpha, gain = ratio sigma - sigma'. That is sigma'
    expm1(lam' - lam) without lam, which is log 0 where alpha_bar(0) is 1."""
    (a, a_end), (s, s_end), _, _ = schedule.coeffs(np.stack([times, ends]))
    ratio = a_end / a
    return ratio, ratio * s - s_end


def _first_order_solve(model, cfg: SolverConfig, x_t, cond):
    """DDIM, or DDPM: with beta = 1 - 1/ratio^2, gain ratio beta / sigma and
    noise of scale sigma' sqrt(beta) / sigma, drawn with the key (noise
    seed, transition), on every transition but the last, to t = 0."""
    times = cfg.plan.times
    ratio, gain = _first_order(cfg.schedule, times[:-1], times[1:])
    noise = np.zeros_like(ratio)
    if cfg.kind is SolverKind.DDPM_ANCESTRAL:
        sigma = cfg.schedule.sigma(times)
        beta = 1.0 - 1.0 / (ratio * ratio)
        gain = ratio * beta / sigma[:-1]
        noise = sigma[1:] * np.sqrt(beta) / sigma[:-1]
        noise[-1] = 0.0
    x = _check_state(x_t)
    cond = model.prepare(cond, times[:-1])
    for i in range(cfg.plan.n_transitions):
        x = ratio[i] * x - gain[i] * model.eps(x, cond, i)
        if noise[i]:
            x = x + noise[i] * rng.gauss(cfg.noise_seed, i, x.shape)
    return x


def _dpm2(model, cfg: SolverConfig, x_t, cond):
    """Second-order exponential integrator: a first-order step to the log-SNR
    midpoint, then one over the whole transition with the midpoint's eps."""
    s = cfg.schedule
    starts, ends = cfg.plan.times[:-1], cfg.plan.times[1:]
    lam = s.lam(cfg.plan.times)
    h = np.diff(lam)
    mids = s.time_of_lambda(lam[:-1] + 0.5 * h)
    half_ratio, half_gain = _first_order(s, starts, mids)
    ratio, gain = _first_order(s, starts, ends)
    x = _check_state(x_t)
    cond = model.prepare(cond, np.stack([starts, mids], 1).ravel())
    for i in range(cfg.plan.n_transitions):
        u = half_ratio[i] * x - half_gain[i] * model.eps(x, cond, 2 * i)
        x = ratio[i] * x - gain[i] * model.eps(u, cond, 2 * i + 1)
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
    SolverKind.DDPM_ANCESTRAL: _first_order_solve,
    SolverKind.DDIM: _first_order_solve,
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
