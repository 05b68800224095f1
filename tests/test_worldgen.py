"""Pair generation, splits, persistence, and the tensor file format."""

import numpy as np
import pytest
from scipy.stats import chisquare

from helpers import image_world, split
from odebc.errors import ValidationError
from odebc.tensorio import read_tensor, write_tensor
from odebc.worldgen import (
    load_pairs,
    sample_pairs,
    save_pairs,
    texture_mean,
    world_from_spec,
)


def test_degenerate_mixture_collapses_to_mean():
    world = image_world(4, 4, 1, 2, n_comp=1, std=1e-9, tau=1e-9, seed=1)
    pairs = sample_pairs(world, 5, seed=3)
    for z, y in pairs:
        np.testing.assert_allclose(z, world.means[0], atol=1e-7)
        np.testing.assert_allclose(y, world.degrade(world.means[0]), atol=1e-7)


def test_component_frequencies_match_weights():
    world = image_world(4, 4, 1, 2, n_comp=3, spread=50.0, std=0.1, seed=5)
    pairs = sample_pairs(world, 10_000, seed=8)
    # Components are far apart, so nearest-mean identifies the draw.
    z = np.stack([p[0] for p in pairs])
    dists = np.linalg.norm(z[:, None, :] - world.means[None], axis=2)
    counts = np.bincount(np.argmin(dists, axis=1), minlength=3)
    res = chisquare(counts, 10_000 * world.weights)
    assert res.pvalue > 1e-4


def test_pairs_reproducible_and_index_pure():
    world = image_world()
    a = sample_pairs(world, 6, seed=42)
    b = sample_pairs(world, 6, seed=42)
    for (z1, y1), (z2, y2) in zip(a, b):
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(y1, y2)
    # Prefix stability: pair i does not depend on how many pairs were drawn.
    c = sample_pairs(world, 3, seed=42)
    np.testing.assert_array_equal(a[2][0], c[2][0])
    with pytest.raises(ValidationError):
        sample_pairs(world, 0, seed=1)


def test_split_properties():
    world = image_world()
    pairs = sample_pairs(world, 10, seed=2)
    ref, hold = split(pairs, 1.0, seed=0)
    assert len(ref) == 10 and not hold
    ref, hold = split(pairs, 0.5, seed=0)
    assert len(ref) == 5 and len(hold) == 5
    key = lambda p: p[0].tobytes()
    assert sorted(key(p) for p in ref + hold) == sorted(key(p) for p in pairs)
    assert not {key(p) for p in ref} & {key(p) for p in hold}


def test_tensor_roundtrip(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(2, 3, 4) / 7.0
    path = tmp_path / "t.t"
    write_tensor(path, arr)
    back = read_tensor(path)
    np.testing.assert_array_equal(back, arr)
    raw = path.read_bytes()
    assert raw[:5] == b"ODBC1"
    assert raw[5:9] == (3).to_bytes(4, "little")
    assert raw[9:21] == b"".join(d.to_bytes(4, "little") for d in (2, 3, 4))
    assert len(raw) == 21 + 24 * 8


def test_tensor_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.t"
    bad.write_bytes(b"NOPE!")
    with pytest.raises(ValidationError):
        read_tensor(bad)
    truncated = tmp_path / "short.t"
    arr = np.ones(4)
    write_tensor(truncated, arr)
    truncated.write_bytes(truncated.read_bytes()[:-8])
    with pytest.raises(ValidationError):
        read_tensor(truncated)
    with pytest.raises(ValidationError):
        write_tensor(tmp_path / "nan.t", np.array([np.nan]))
    with pytest.raises(OSError):
        read_tensor(tmp_path / "missing.t")


def test_save_load_pairs_byte_stable(tmp_path):
    world = image_world()
    pairs = sample_pairs(world, 4, seed=9)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    save_pairs(d1, pairs, seed=9)
    save_pairs(d2, sample_pairs(world, 4, seed=9), seed=9)
    for name in sorted(p.name for p in d1.iterdir()):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    back = load_pairs(d1)
    for (z1, y1), (z2, y2) in zip(back, pairs):
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(y1, y2)


def test_textures():
    shape = (4, 4, 1)
    const = texture_mean({"texture": "constant", "amplitude": 0.3}, shape, 16)
    np.testing.assert_array_equal(const, np.full(16, 0.3))
    grad = texture_mean({"texture": "gradient", "amplitude": 2.0}, shape, 16)
    assert grad[0] == -1.0 and grad[-1] == 1.0  # corners of the ramp
    check = texture_mean({"texture": "checker", "amplitude": 1.5}, shape, 16)
    assert set(np.unique(check)) == {-1.5, 1.5}
    sm1 = texture_mean({"texture": "smooth-noise", "seed": 4}, shape, 16)
    sm2 = texture_mean({"texture": "smooth-noise", "seed": 4}, shape, 16)
    np.testing.assert_array_equal(sm1, sm2)
    assert sm1.std() == pytest.approx(1.0)
    literal = texture_mean([1.0] * 16, shape, 16)
    np.testing.assert_array_equal(literal, np.ones(16))
    combo = texture_mean({"sum": [{"texture": "constant", "amplitude": 0.3},
                                  {"texture": "checker", "amplitude": 1.5}]},
                         shape, 16)
    np.testing.assert_array_equal(combo, const + check)
    with pytest.raises(ValidationError):
        texture_mean({"texture": "perlin"}, shape, 16)
    with pytest.raises(ValidationError):
        texture_mean([1.0, 2.0], shape, 16)
    with pytest.raises(ValidationError):
        texture_mean({"sum": []}, shape, 16)


def test_world_from_spec():
    spec = {
        "shape": [4, 4, 1],
        "block": 2,
        "tau": 0.05,
        "components": [
            {"weight": 0.5, "std": 0.5, "mean": {"texture": "constant", "amplitude": 1.0}},
            {"weight": 0.5, "std": 0.4, "mean": {"texture": "checker", "amplitude": 0.8}},
        ],
    }
    world = world_from_spec(spec)
    assert world.dim == 16 and world.obs_dim == 4
    assert world.tau == 0.05
    np.testing.assert_array_equal(world.means[0], np.ones(16))
    with pytest.raises(ValidationError):
        world_from_spec({"components": []})
    with pytest.raises(ValidationError):
        world_from_spec({"dim": 2, "components": [
            {"weight": 1.0, "std": 0.5, "mean": {"texture": "gradient"}}]})
