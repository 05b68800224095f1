"""JSON run configuration: defaults, file loading, overrides, builders.

A config is a plain dict with sections `world`, `solver`, `search`,
`metric`, `run`. Files are JSON; a previously written run manifest (which
wraps the resolved config) is accepted anywhere a config file is.
"""

from __future__ import annotations

import copy
import json
import os

from .errors import ValidationError, require_integer, require_number
from .metrics import Metric, get_metric
from .model import GmmWorld
from .sampler import SolverConfig, SolverKind
from .schedule import (
    DiscreteSchedule,
    make_linear_vp_schedule,
    resample_timesteps,
    uniform_continuous_plan,
)
from .worldgen import world_from_spec

SECTIONS = ("world", "solver", "search", "metric", "run")

DEFAULTS = {
    "world": {
        "shape": [8, 8, 1],
        "block": 2,
        "tau": 0.05,
        "components": [
            {"weight": 0.9, "std": 0.35,
             "mean": {"texture": "gradient", "amplitude": 2.0}},
            # same gradient plus a checker offset that block-averages to
            # zero: the LR observation can never tell the two modes apart
            {"weight": 0.1, "std": 0.35,
             "mean": {"sum": [
                 {"texture": "gradient", "amplitude": 2.0},
                 {"texture": "checker", "amplitude": 0.35},
             ]}},
        ],
    },
    "solver": {
        "kind": "ddim",
        "steps": 50,
        "noise_seed": 0,
        "total_steps": 1000,
        "beta_1": 1e-4,
        "beta_t": 0.02,
    },
    "search": {
        "candidates": 64,
        "candidate_seed": 7,
        "references": 16,
        "reference_seed": 11,
        "n_random": 32,
    },
    "metric": {"name": "l2"},
    "run": {
        "seed": 0,
        "out": "out",
        "workers": None,  # falls back to ODEBC_WORKERS, then 1
        "pairs": 32,
        "pairs_dir": None,
        "test_pairs": 8,
        "test_seed": 2,
        "holdout": 16,
        "holdout_seed": 13,
        "solvers": None,
        "sizes": None,
        "repeats": 8,
        "k_fixed": 200,
        "conditions": 10,
        "condition_seed": 5,
        "random_seed": 77,
    },
}


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    if "config" in data and "command" in data:  # a run manifest
        data = data["config"]
    unknown = set(data) - set(SECTIONS)
    if unknown:
        raise ValidationError(
            f"config {path}: unknown section(s) {sorted(unknown)}")
    return data


def deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def apply_set(config: dict, expr: str) -> None:
    """Apply one `section.key[.key]=json-value` override in place."""
    if "=" not in expr:
        raise ValidationError(f"--set needs section.key=value, got {expr!r}")
    dotted, _, raw = expr.partition("=")
    keys = dotted.split(".")
    if len(keys) < 2 or keys[0] not in SECTIONS:
        raise ValidationError(
            f"--set key {dotted!r} must start with one of {SECTIONS}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare strings are convenient on the command line
    except RecursionError:
        raise ValidationError(f"--set {dotted} value is nested too deeply") from None
    node = config
    for key in keys[:-1]:
        nxt = node.get(key)
        if not isinstance(nxt, dict):
            nxt = {}
            node[key] = nxt
        node = nxt
    node[keys[-1]] = value


def resolve_config(path=None, sets=(), workers=None, seed=None,
                   out=None) -> dict:
    config = default_config()
    if path is not None:
        config = deep_merge(config, load_config(path))
    for expr in sets:
        apply_set(config, expr)
    if workers is not None:
        config["run"]["workers"] = workers
    if seed is not None:
        config["run"]["seed"] = seed
    if out is not None:
        config["run"]["out"] = out
    _check_keys(config)
    if config["run"]["workers"] is None:
        config["run"]["workers"] = _worker_count(
            os.environ.get("ODEBC_WORKERS", "1"), "ODEBC_WORKERS")
    config["run"]["workers"] = _worker_count(config["run"]["workers"], "run.workers")
    return config


# The largest solver grid and plan, in steps.
MAX_STEPS = 100_000


def _count(value, source: str) -> None:
    require_integer(value, source, minimum=0)


def _steps(value, source: str) -> None:
    require_integer(value, source, minimum=0, maximum=MAX_STEPS)


def _text(value, source: str) -> None:
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{source} must be a non-empty string, got {value!r}")


def _optional(check):
    """`check`, or null for the command's default."""
    def checked(value, source: str) -> None:
        if value is not None:
            check(value, source)
    return checked


def _nonempty_list(value, source: str) -> list:
    if not isinstance(value, list) or not value:
        raise ValidationError(f"{source} must be a non-empty list, got {value!r}")
    return value


def _sizes(value, source: str) -> None:
    for i, size in enumerate(_nonempty_list(value, source)):
        require_integer(size, f"{source}[{i}]", minimum=1)


def _solver_entries(value, source: str) -> None:
    for i, entry in enumerate(_nonempty_list(value, source)):
        _check_section(entry, _SOLVER_KEYS, f"{source}[{i}]")


def _worker_count(value, source: str) -> int:
    """An integer >= 1; strings (the environment) must spell one."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    return require_integer(value, source, minimum=1)


# The check of every key of the sections whose keys DEFAULTS fixes (world
# specs are checked by worldgen.world_from_spec).
_SOLVER_KEYS = {
    "kind": _text, "steps": _steps, "noise_seed": require_integer,
    "total_steps": _steps, "beta_1": require_number, "beta_t": require_number,
}
_KEYS = {
    "solver": _SOLVER_KEYS,
    "search": {
        "candidates": _count, "candidate_seed": require_integer,
        "references": _count, "reference_seed": require_integer,
        "n_random": _count,
    },
    "metric": {"name": _text},
    "run": {
        "seed": require_integer, "out": _text,
        "workers": _optional(_worker_count), "pairs": _count,
        "pairs_dir": _optional(_text), "test_pairs": _count,
        "test_seed": require_integer, "holdout": _count,
        "holdout_seed": require_integer,
        "solvers": _optional(_solver_entries), "sizes": _optional(_sizes),
        "repeats": _count, "k_fixed": _count, "conditions": _count,
        "condition_seed": require_integer, "random_seed": require_integer,
    },
}


def _check_section(values, checks: dict, name: str) -> None:
    if not isinstance(values, dict):
        raise ValidationError(f"{name} must be an object, got {values!r}")
    unknown = sorted(set(values) - set(checks))
    if unknown:
        raise ValidationError(f"unknown {name} key(s) {unknown}")
    for key, value in values.items():
        checks[key](value, f"{name}.{key}")


def _check_keys(config: dict) -> None:
    """Reject unknown keys and values of the wrong type or range."""
    for section, checks in _KEYS.items():
        _check_section(config[section], checks, section)


def build_world(config: dict) -> GmmWorld:
    return world_from_spec(config["world"])


def build_schedule(solver_section: dict) -> DiscreteSchedule:
    return make_linear_vp_schedule(
        int(solver_section.get("total_steps", 1000)),
        float(solver_section.get("beta_1", 1e-4)),
        float(solver_section.get("beta_t", 0.02)),
    )


_KINDS = {kind.value: kind for kind in SolverKind}


def build_solver(solver_section: dict,
                 schedule: DiscreteSchedule | None = None) -> SolverConfig:
    name = solver_section.get("kind", "ddim")
    if name not in _KINDS:
        raise ValidationError(
            f"solver.kind {name!r} not one of {sorted(_KINDS)}")
    kind = _KINDS[name]
    if schedule is None:
        schedule = build_schedule(solver_section)
    steps = int(solver_section.get("steps", 50))
    if kind is SolverKind.EULER_REF:
        plan = uniform_continuous_plan(steps)
    else:
        plan = resample_timesteps(schedule, steps)
    return SolverConfig(kind=kind, schedule=schedule, plan=plan,
                        noise_seed=int(solver_section.get("noise_seed", 0)))


def build_metric(config: dict, world: GmmWorld | None = None) -> Metric:
    name = config["metric"].get("name", "l2")
    shape = world.shape if world is not None and name == "gradperc" else None
    return get_metric(name, shape=shape)


def write_manifest(out_dir, command: str, config: dict) -> None:
    payload = {"command": command, "config": config}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
