"""Diffusion samplers with boundary-condition search on analytic worlds."""

from .analysis import (
    AblationCurve,
    BenchmarkRow,
    ablate_candidate_size,
    ablate_reference_size,
    benchmark_samplers,
    independence_matrix,
    render_pgm,
    world_value_range,
)
from .bcsearch import (
    CandidateSet,
    GainReport,
    ReferenceSet,
    SearchResult,
    held_out_gain,
    objective_table,
    search_optimal_bc,
)
from .errors import PlanMismatchError, ShapeMismatchError, ValidationError
from .metrics import (
    Metric,
    energy_distance_test,
    get_metric,
    pearson_corr,
)
from .model import (
    BLANK,
    AnalyticDenoiser,
    conditional_posterior,
    mixture_log_density,
    mixture_sample,
    prior_mixture,
    zero_denoiser,
)
from .rng import gauss, generator
from .sampler import (
    SolverConfig,
    SolverKind,
    project,
    run_solver,
)
from .schedule import (
    DiscreteSchedule,
    TimestepPlan,
    make_linear_vp_schedule,
    resample_timesteps,
    uniform_continuous_plan,
)
from .tensorio import read_tensor, write_tensor
from .worldgen import (
    GmmWorld,
    load_pairs,
    sample_pair,
    sample_pairs,
    save_pairs,
    world_from_spec,
)

__version__ = "0.1.0"

__all__ = [
    "AblationCurve",
    "AnalyticDenoiser",
    "BLANK",
    "BenchmarkRow",
    "CandidateSet",
    "DiscreteSchedule",
    "GainReport",
    "GmmWorld",
    "Metric",
    "PlanMismatchError",
    "ReferenceSet",
    "SearchResult",
    "ShapeMismatchError",
    "SolverConfig",
    "SolverKind",
    "TimestepPlan",
    "ValidationError",
    "ablate_candidate_size",
    "ablate_reference_size",
    "benchmark_samplers",
    "conditional_posterior",
    "energy_distance_test",
    "gauss",
    "generator",
    "get_metric",
    "held_out_gain",
    "independence_matrix",
    "load_pairs",
    "make_linear_vp_schedule",
    "mixture_log_density",
    "mixture_sample",
    "objective_table",
    "pearson_corr",
    "prior_mixture",
    "project",
    "read_tensor",
    "render_pgm",
    "resample_timesteps",
    "run_solver",
    "sample_pair",
    "sample_pairs",
    "save_pairs",
    "search_optimal_bc",
    "uniform_continuous_plan",
    "world_from_spec",
    "world_value_range",
    "write_tensor",
    "zero_denoiser",
]
