"""World construction from specs and HR/LR pair generation.

Pair i is a pure function of (seed, i), so datasets regenerate identically
regardless of how the generation loop is ordered or parallelized.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import ValidationError, require_integer, require_number
from .model import GmmWorld
from .rng import generator
from .tensorio import read_tensor, write_tensor


# The largest world, in elements per state: a 256 x 256 single-channel image.
MAX_DIM = 1 << 16


def _keys(spec: dict, allowed: tuple, source: str) -> None:
    unknown = sorted(set(spec) - set(allowed))
    if unknown:
        raise ValidationError(f"unknown {source} key(s) {unknown}")


def _literal(values, source: str) -> list[float]:
    """The finite numbers of a (nested) JSON list, in row-major order."""
    if isinstance(values, (list, tuple)):
        return [v for part in values for v in _literal(part, source)]
    return [require_number(values, source)]


def texture_mean(spec, shape: tuple[int, int, int] | None, dim: int,
                 source: str = "mean") -> np.ndarray:
    """A component mean: literal values or a named generator.

    Named kinds: constant, gradient (diagonal ramp), checker (alternating
    +/- amplitude), smooth-noise (seeded Gaussian field, two smoothing
    passes, rescaled to the amplitude).
    """
    if isinstance(spec, (list, tuple)):
        arr = np.array(_literal(spec, source), dtype=np.float64)
        if arr.size != dim:
            raise ValidationError(f"literal mean has {arr.size} values, want {dim}")
        return arr
    if isinstance(spec, dict) and "sum" in spec:
        _keys(spec, ("sum",), source)
        parts = spec["sum"]
        if not isinstance(parts, list) or not parts:
            raise ValidationError("texture sum needs a non-empty list of terms")
        return sum(texture_mean(p, shape, dim, f"{source}.sum[{i}]")
                   for i, p in enumerate(parts))
    if not isinstance(spec, dict) or "texture" not in spec:
        raise ValidationError("mean must be a value list or a texture object")
    _keys(spec, ("texture", "amplitude", "seed"), source)
    kind = spec["texture"]
    amp = require_number(spec.get("amplitude", 1.0), f"{source}.amplitude")
    if kind == "constant":
        return np.full(dim, amp)
    if kind not in ("gradient", "checker", "smooth-noise"):
        raise ValidationError(f"unknown texture kind {kind!r}")
    if shape is None:
        raise ValidationError(f"texture {kind!r} needs an image-shaped world")
    h, w, c = shape
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    if kind == "gradient":
        ramp = (ii + jj) / max(h + w - 2, 1) - 0.5
        field = np.repeat(ramp[:, :, None], c, axis=2) * amp
    elif kind == "checker":
        field = np.where((ii + jj) % 2 == 0, amp, -amp)
        field = np.repeat(field[:, :, None], c, axis=2)
    else:
        seed = require_integer(spec.get("seed", 0), f"{source}.seed")
        rng = generator(seed, 0)
        field = rng.standard_normal((h, w, c))
        kernel = np.array([0.25, 0.5, 0.25])
        for _ in range(2):
            for axis in (0, 1):
                pad = [(0, 0)] * 3
                pad[axis] = (1, 1)
                padded = np.pad(field, pad, mode="edge")
                field = sum(
                    k * np.take(padded, np.arange(field.shape[axis]) + off, axis=axis)
                    for off, k in enumerate(kernel)
                )
        field *= amp / max(field.std(), 1e-12)
    return field.ravel()


def _world_shape(spec: dict):
    """(shape or None, dim) of a world spec; null shape means flat."""
    shape = spec.get("shape")
    if shape is None:
        if spec.get("dim") is None:
            raise ValidationError("world spec needs shape or a positive dim")
        return None, require_integer(spec["dim"], "world.dim", minimum=1,
                                     maximum=MAX_DIM)
    if not isinstance(shape, list) or len(shape) != 3:
        raise ValidationError(
            f"world shape must be [height, width, channels], got {shape!r}")
    shape = tuple(require_integer(n, f"world.shape[{i}]", minimum=1,
                                  maximum=MAX_DIM) for i, n in enumerate(shape))
    dim = shape[0] * shape[1] * shape[2]
    if dim > MAX_DIM:
        raise ValidationError(f"world shape {list(shape)} has more than "
                              f"{MAX_DIM} elements")
    if spec.get("dim") not in (None, dim):
        raise ValidationError(f"world.dim {spec['dim']!r} != shape product {dim}")
    return shape, dim


def world_from_spec(spec: dict) -> GmmWorld:
    if not isinstance(spec, dict):
        raise ValidationError(f"world must be an object, got {spec!r}")
    _keys(spec, ("shape", "dim", "block", "tau", "components"), "world")
    comps = spec.get("components")
    if not isinstance(comps, list) or not comps:
        raise ValidationError("world spec needs a non-empty components list")
    shape, dim = _world_shape(spec)
    weights, stds, means = [], [], []
    for i, comp in enumerate(comps):
        source = f"world.components[{i}]"
        if not isinstance(comp, dict) or not {"weight", "std", "mean"} <= set(comp):
            raise ValidationError(f"{source} must be an object with weight, "
                                  f"std and mean, got {comp!r}")
        _keys(comp, ("weight", "std", "mean"), source)
        weights.append(require_number(comp["weight"], f"{source}.weight"))
        stds.append(require_number(comp["std"], f"{source}.std"))
        means.append(texture_mean(comp["mean"], shape, dim, f"{source}.mean"))
    return GmmWorld(
        weights=np.array(weights),
        means=np.stack(means),
        stds=np.array(stds),
        tau=require_number(spec.get("tau", 0.05), "world.tau"),
        block=require_integer(spec.get("block", 1), "world.block", minimum=1),
        shape=shape,
    )


def sample_pair(world: GmmWorld, seed: int, index: int):
    """The (z, y) pair for one index; pure in (seed, index)."""
    rng = generator(seed, index)
    j = int(rng.choice(world.n_components, p=world.weights))
    z = world.means[j] + world.stds[j] * rng.standard_normal(world.dim)
    y = world.degrade(z) + world.tau * rng.standard_normal(world.obs_dim)
    return z, y


def sample_pairs(world: GmmWorld, n: int, seed: int):
    if n < 1:
        raise ValidationError("need n >= 1 pairs")
    return [sample_pair(world, seed, i) for i in range(n)]


def save_pairs(directory, pairs, seed: int) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (z, y) in enumerate(pairs):
        z_name, y_name = f"z_{i:06d}.t", f"y_{i:06d}.t"
        write_tensor(directory / z_name, z)
        write_tensor(directory / y_name, y)
        rows.append((i, z_name, y_name, seed))
    with open(directory / "pairs.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "z_path", "y_path", "seed"])
        writer.writerows(rows)


def load_pairs(directory):
    directory = Path(directory)
    index = directory / "pairs.csv"
    try:
        with open(index, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"malformed {index}: {exc}") from None
    pairs = []
    for i, row in enumerate(rows):
        names = (row.get("z_path"), row.get("y_path"))
        if not all(isinstance(n, str) and n and "\0" not in n for n in names):
            raise ValidationError(f"{index} row {i + 1} needs a z_path and a "
                                  "y_path")
        pairs.append(tuple(read_tensor(directory / n) for n in names))
    return pairs
