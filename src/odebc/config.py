"""JSON run configuration: defaults, file loading, overrides, builders.

A config is a plain dict with sections `world`, `solver`, `search`,
`metric`, `run`. Files are JSON; a previously written run manifest (which
wraps the resolved config) is accepted anywhere a config file is.
"""

from __future__ import annotations

import copy
import json
import os
from functools import partial

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

# The largest solver grid and plan, in steps.
MAX_STEPS = 100_000

_COUNT = partial(require_integer, minimum=0)
_POSITIVE = partial(require_integer, minimum=1)
_STEPS = partial(require_integer, minimum=0, maximum=MAX_STEPS)


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
        _check_section(entry, SCHEMA["solver"], f"{source}[{i}]")


# Every key of the sections other than `world`, as key -> (default, check);
# world specs are checked by worldgen.world_from_spec.
SCHEMA = {
    "solver": {
        "kind": ("ddim", _text),
        "steps": (50, _STEPS),
        "noise_seed": (0, require_integer),
        "total_steps": (1000, _STEPS),
        "beta_1": (1e-4, require_number),
        "beta_t": (0.02, require_number),
    },
    "search": {
        "candidates": (64, _COUNT),
        "candidate_seed": (7, require_integer),
        "references": (16, _COUNT),
        "reference_seed": (11, require_integer),
        "n_random": (32, _COUNT),
    },
    "metric": {"name": ("l2", _text)},
    "run": {
        "seed": (0, require_integer),
        "out": ("out", _text),
        "workers": (1, _POSITIVE),
        "pairs": (32, _COUNT),
        "pairs_dir": (None, _optional(_text)),
        "test_pairs": (8, _COUNT),
        "test_seed": (2, require_integer),
        "holdout": (16, _COUNT),
        "holdout_seed": (13, require_integer),
        "solvers": (None, _optional(_solver_entries)),
        "sizes": (None, _optional(_sizes)),
        "repeats": (8, _POSITIVE),
        "k_fixed": (200, _COUNT),
        "conditions": (10, _COUNT),
        "condition_seed": (5, require_integer),
        "random_seed": (77, require_integer),
    },
}

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
    **{section: {key: default for key, (default, _) in keys.items()}
       for section, keys in SCHEMA.items()},
}
SECTIONS = tuple(DEFAULTS)


def default_config() -> dict:
    return copy.deepcopy(DEFAULTS)


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8
        raise ValidationError(f"malformed config {path}: {exc}") from None
    if isinstance(data, dict) and "config" in data and "command" in data:
        data = data["config"]  # a run manifest
    if not isinstance(data, dict):
        raise ValidationError(f"config {path} must be a JSON object")
    unknown = set(data) - set(SECTIONS)
    if unknown:
        raise ValidationError(
            f"config {path}: unknown section(s) {sorted(unknown)}")
    for name, section in data.items():
        if not isinstance(section, dict):
            raise ValidationError(f"config {path}: {name} must be an object, "
                                  f"got {section!r}")
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
    except ValueError:
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
    for key, value in (("workers", workers), ("seed", seed), ("out", out)):
        if value is not None:
            config["run"][key] = value
    for section, schema in SCHEMA.items():
        _check_section(config[section], schema, section)
    return config


def _check_section(values, schema: dict, name: str) -> None:
    if not isinstance(values, dict):
        raise ValidationError(f"{name} must be an object, got {values!r}")
    unknown = sorted(set(values) - set(schema))
    if unknown:
        raise ValidationError(f"unknown {name} key(s) {unknown}")
    for key, value in values.items():
        schema[key][1](value, f"{name}.{key}")


def build_world(config: dict) -> GmmWorld:
    return world_from_spec(config["world"])


def _solver_section(section: dict) -> dict:
    """A checked solver section; keys it lacks take their defaults."""
    full = {**DEFAULTS["solver"], **section}
    _check_section(full, SCHEMA["solver"], "solver")
    return full


def build_schedule(solver_section: dict) -> DiscreteSchedule:
    section = _solver_section(solver_section)
    return make_linear_vp_schedule(section["total_steps"], section["beta_1"],
                                   section["beta_t"])


_KINDS = {kind.value: kind for kind in SolverKind}


def build_solver(solver_section: dict,
                 schedule: DiscreteSchedule | None = None) -> SolverConfig:
    section = _solver_section(solver_section)
    if section["kind"] not in _KINDS:
        raise ValidationError(
            f"solver.kind {section['kind']!r} not one of {sorted(_KINDS)}")
    if schedule is None:
        schedule = build_schedule(section)
    kind = _KINDS[section["kind"]]
    if kind is SolverKind.EULER_REF:
        plan = uniform_continuous_plan(section["steps"])
    else:
        plan = resample_timesteps(schedule, section["steps"])
    return SolverConfig(kind=kind, schedule=schedule, plan=plan,
                        noise_seed=section["noise_seed"])


def build_metric(config: dict, world: GmmWorld | None = None) -> Metric:
    name = config["metric"]["name"]
    shape = world.shape if world is not None and name == "gradperc" else None
    return get_metric(name, shape=shape)


def write_manifest(out_dir, command: str, config: dict) -> None:
    payload = {"command": command, "config": config}
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
