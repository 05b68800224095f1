"""Distance metrics for the search plus the statistics used by analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError, ValidationError
from .rng import generator


def _pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _stack(a, b):
    """An (n, ...) stack a and a target b of the same shape or of one row's
    shape; b comes back with a leading axis of n or 1 for broadcasting."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if b.shape == a.shape[1:]:
        b = b[None]
    elif b.shape != a.shape:
        raise ShapeMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return a, b


def _row_means(x: np.ndarray) -> np.ndarray:
    return x.reshape(x.shape[0], -1).mean(axis=1)


def _l2_rows(a, b) -> np.ndarray:
    a, b = _stack(a, b)
    return _row_means((a - b) ** 2)


def _psnr_rows(a, b) -> np.ndarray:
    """10 log10(1 / MSE) per row; math.inf is the explicit identical flag.

    math.log10 per row: numpy's vectorised log10 can differ in the last bit.
    """
    return np.array([10.0 * math.log10(1.0 / mse) if mse else math.inf
                     for mse in _l2_rows(a, b)])


def _gradperc_rows(a, b, shape=None) -> np.ndarray:
    """Mean squared forward-difference gradient gap plus 0.1x plain L2.

    shape reshapes flat rows to (H, W, C) so the differences run along
    both spatial axes; without it the rows' own axes are used.
    """
    a, b = _stack(a, b)
    if shape is not None:
        a = a.reshape((a.shape[0],) + tuple(shape))
        b = b.reshape((b.shape[0],) + tuple(shape))
    total = np.zeros(a.shape[0])
    for axis in range(1, min(a.ndim, 3)):
        if a.shape[axis] < 2:
            continue
        gap = np.diff(a, axis=axis) - np.diff(b, axis=axis)
        total += _row_means(gap**2)
    return total + 0.1 * _row_means((a - b) ** 2)


def pearson_corr(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or u.size < 2:
        raise ValidationError("need two equal-length sequences of n >= 2")
    du = u - u.mean()
    dv = v - v.mean()
    denom = math.sqrt(float(du @ du) * float(dv @ dv))
    if denom == 0.0:
        raise ValidationError("pearson_corr undefined for constant sequences")
    # Rounding can carry |rho| just past 1.
    return min(1.0, max(-1.0, float(du @ dv) / denom))


@dataclass(frozen=True)
class Metric:
    """Named distance; search and benchmarks minimize it.

    rows(a, b) scores every row of an (n, ...) stack a against b, one
    target row or n of them, in one call; dist is its one-row case.
    """

    name: str
    _rows: callable

    def rows(self, a, b) -> np.ndarray:
        return self._rows(a, b)

    def dist(self, a, b) -> float:
        a, b = _pair(a, b)
        return float(self._rows(a[None], b[None])[0])


def get_metric(name: str, shape: tuple[int, int, int] | None = None) -> Metric:
    if name == "l2":
        return Metric("l2", _l2_rows)
    if name == "psnr":
        # Negated so that minimizing the metric maximizes PSNR.
        return Metric("psnr", lambda a, b: -_psnr_rows(a, b))
    if name == "gradperc":
        return Metric("gradperc", lambda a, b: _gradperc_rows(a, b, shape))
    raise ValidationError(f"unknown metric {name!r}")


# The energy test scores tiles of BLOCK pooled rows by TILE pooled columns.
BLOCK = 64
TILE = 256


def _distances(x: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Euclidean distances from the rows of x to those of y, (n, d) and
    (m, d) -> (n, m), written into `out` when it is given; d >= 1.

    Squared gaps are summed one coordinate at a time in place, in the order
    scipy's cdist sums them, so the result is the same to the bit; memory is
    the n x m output plus, for d > 1, one n x m temporary.
    """
    (cx, cy), *rest = zip(x.T, y.T)
    out = np.subtract(cx[:, None], cy[None, :], out=out)
    np.multiply(out, out, out=out)
    gap = np.empty_like(out) if rest else None
    for cx, cy in rest:
        np.subtract(cx[:, None], cy[None, :], out=gap)
        np.multiply(gap, gap, out=gap)
        out += gap
    return np.sqrt(out, out=out)


def _points(x) -> np.ndarray:
    """Samples as (n, d) points; 1-D input is n points of dimension 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or not x.shape[1]:
        raise ValidationError("samples must be 1-D or 2-D with at least one "
                              f"coordinate, got shape {x.shape}")
    return x


@dataclass(frozen=True)
class EnergyTestResult:
    statistic: float
    p_value: float
    n_per_group: int


def energy_distance_test(
    a: np.ndarray,
    b: np.ndarray,
    n_permutations: int = 300,
    seed: int = 0,
    max_points: int = 2000,
) -> EnergyTestResult:
    """Two-sample energy-distance permutation test.

    a and b are (n, d) and (m, d) samples; 1-D samples are points of
    dimension 1. Groups larger than max_points are subsampled (seeded), and
    each group needs at least 2 points after that. The pooled distances are
    formed one BLOCK x TILE tile at a time and scored under the observed
    split and every permutation at once, so memory is O(BLOCK TILE +
    TILE n_permutations) floats plus N n_permutations bytes for N = n + m
    pooled points, never N x N.
    """
    a, b = _points(a), _points(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeMismatchError("samples must share dimensionality")
    if min(a.shape[0], b.shape[0], max_points) < 2:
        raise ValidationError(
            f"energy test needs at least 2 points per group, got "
            f"{a.shape[0]} and {b.shape[0]} with max_points={max_points}")
    if n_permutations < 0:
        raise ValidationError(
            f"n_permutations must be >= 0, got {n_permutations}")
    rng = generator(seed, 0)
    if a.shape[0] > max_points:
        a = a[rng.choice(a.shape[0], size=max_points, replace=False)]
    if b.shape[0] > max_points:
        b = b[rng.choice(b.shape[0], size=max_points, replace=False)]
    n, m = a.shape[0], b.shape[0]
    pooled = np.concatenate([a, b], axis=0)
    # Column 0 of labels marks the observed group a, column p the group a of
    # the p-th permutation. For such an indicator z and the row sums r of D
    # (whose diagonal is zero), group a sums z'Dz, the between-group block
    # z'r - z'Dz and group b the rest, so one product per tile of D scores
    # every partition. Only a tile's label rows are ever float64.
    labels = np.zeros((n + m, 1 + n_permutations), dtype=bool)
    labels[:n, 0] = True
    for p in range(1, 1 + n_permutations):
        labels[rng.permutation(n + m)[:n], p] = True
    total = 0.0
    sum_a = np.zeros(1 + n_permutations)
    z_r = np.zeros(1 + n_permutations)
    cols = np.empty((TILE, 1 + n_permutations))
    tile = np.empty((BLOCK, TILE))
    for j in range(0, n + m, TILE):
        width = min(TILE, n + m - j)
        np.copyto(cols[:width], labels[j:j + width])
        for i in range(0, n + m, BLOCK):
            height = min(BLOCK, n + m - i)
            dist = _distances(pooled[i:i + height], pooled[j:j + width],
                              out=tile[:height, :width])
            rows = labels[i:i + height].astype(np.float64)
            part = dist.sum(axis=1)
            total += part.sum()
            z_r += part @ rows
            sum_a += np.einsum("ip,ip->p", rows, dist @ cols[:width])
    between = z_r - sum_a
    sum_b = total - 2.0 * between - sum_a
    stats = (2.0 * between / (n * m)
             - sum_a / (n * (n - 1)) - sum_b / (m * (m - 1)))
    hits = int(np.count_nonzero(stats[1:] >= stats[0]))
    p = (1.0 + hits) / (1.0 + n_permutations)
    return EnergyTestResult(statistic=float(stats[0]), p_value=float(p),
                            n_per_group=min(n, m))
