"""Property test of `--set`: any JSON value for any key is either taken or
rejected with one of the package's own errors."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from odebc import errors
from odebc.config import (
    DEFAULTS,
    build_metric,
    build_schedule,
    build_solver,
    build_world,
    resolve_config,
)

PACKAGE_ERRORS = errors.ValidationError

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
KEYS = sorted(f"{section}.{key}" for section in DEFAULTS
              for key in DEFAULTS[section]) + ["world.dim"]
# World values close enough to valid ones to reach the checks of the
# shape's entries, of each component's mean and of its texture.
NUMBERS = st.floats(0.05, 1.0)
TEXTURES = st.fixed_dictionaries(
    {"texture": st.sampled_from(["constant", "gradient", "checker", "x"])},
    optional={"amplitude": JSON_VALUES},
) | st.fixed_dictionaries({"texture": st.just("smooth-noise"), "seed": JSON_VALUES})
WORLD_VALUES = {
    "world.shape": st.lists(st.integers(-2, 9), max_size=4),
    "world.components": st.lists(st.fixed_dictionaries({
        "weight": NUMBERS, "std": NUMBERS,
        "mean": TEXTURES | st.fixed_dictionaries({"sum": st.lists(TEXTURES)})
        | st.lists(NUMBERS | JSON_VALUES, max_size=3) | JSON_VALUES,
    }), min_size=1, max_size=3),
}

def _taken_or_rejected(key, value):
    try:
        config = resolve_config(sets=[f"{key}={json.dumps(value)}"])
        world = build_world(config)
        build_solver(config["solver"], build_schedule(config["solver"]))
        build_metric(config, world)
    except PACKAGE_ERRORS:
        pass


@pytest.mark.parametrize("key", KEYS)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=JSON_VALUES)
def test_any_set_value_is_taken_or_rejected_cleanly(key, value):
    _taken_or_rejected(key, value)


@pytest.mark.parametrize("key", sorted(WORLD_VALUES))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_near_valid_world_values_are_taken_or_rejected_cleanly(key, data):
    _taken_or_rejected(key, data.draw(WORLD_VALUES[key], label=key))
