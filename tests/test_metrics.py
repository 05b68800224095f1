"""Distance metrics, Pearson correlation, energy-distance test."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial.distance import cdist

from helpers import energy_test_oracle
from odebc.errors import ShapeMismatchError, ValidationError
from odebc.metrics import (
    BLOCK,
    TILE,
    _distances,
    energy_distance_test,
    get_metric,
    pearson_corr,
)
from odebc.rng import generator

L2 = get_metric("l2")
PSNR = get_metric("psnr")  # negated: -10 log10(1 / MSE)
GRADPERC = get_metric("gradperc")

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=12),
    elements=st.floats(min_value=-1e6, max_value=1e6),
)


def test_l2_basics():
    assert L2.dist([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert L2.dist([0.0, 0.0], [2.0, 0.0]) == 2.0
    rng = generator(0, 0)
    a, b = rng.standard_normal(17), rng.standard_normal(17)
    naive = sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / 17
    assert L2.dist(a, b) == pytest.approx(naive, rel=1e-12)
    with pytest.raises(ShapeMismatchError):
        L2.dist([1.0], [1.0, 2.0])


def test_psnr_values():
    a = np.array([0.5, 0.5])
    assert PSNR.dist(a, a) == -math.inf  # the identical flag
    assert PSNR.dist(np.array([1.0, 1.0]), np.array([0.0, 0.0])) == 0.0
    rng = generator(1, 0)
    x, y = rng.uniform(size=9), rng.uniform(size=9)
    mse = np.mean((x - y) ** 2)
    assert -PSNR.dist(x, y) == pytest.approx(10 * math.log10(1.0 / mse))


def test_grad_perceptual():
    rng = generator(2, 0)
    img = rng.standard_normal((4, 4, 1))
    assert GRADPERC.dist(img, img) == 0.0
    # Constant shift: gradients match, only the 0.1 L2 term remains.
    assert GRADPERC.dist(img, img + 0.7) == pytest.approx(0.1 * 0.49, rel=1e-12)
    other = rng.standard_normal((4, 4, 1))
    rows = np.mean((np.diff(img, axis=0) - np.diff(other, axis=0)) ** 2)
    cols = np.mean((np.diff(img, axis=1) - np.diff(other, axis=1)) ** 2)
    want = rows + cols + 0.1 * np.mean((img - other) ** 2)
    assert GRADPERC.dist(img, other) == pytest.approx(want, rel=1e-12)
    # Flat input with a shape hint behaves like the image.
    assert get_metric("gradperc", shape=(4, 4, 1)).dist(
        img.ravel(), other.ravel()
    ) == pytest.approx(want, rel=1e-12)


def test_pearson_basics():
    u = np.array([1.0, 2.0, 3.0, 4.0, 6.0])
    v = np.array([2.0, 1.0, 4.0, 4.0, 5.0])
    assert pearson_corr(u, u) == pytest.approx(1.0)
    assert pearson_corr(u, -u) == pytest.approx(-1.0)
    # Hand computation: centered dot 10.8, norms 14.8 and 10.8.
    assert pearson_corr(u, v) == pytest.approx(54.0 / math.sqrt(3996.0), rel=1e-12)
    with pytest.raises(ValidationError):
        pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        pearson_corr([1.0], [2.0])


def test_pearson_clipped_to_unit_interval():
    # Unclipped, rounding gives -1.0000000000000002 and 1.0000000000000002.
    u = np.array([0.6333526228249152, -2.2035098806466507])
    v = np.array([0.05202897425988651, 0.6836861907765345])
    assert pearson_corr(u, v) == -1.0
    assert pearson_corr(u, -v) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    u=hnp.arrays(np.float64, 7, elements=st.floats(-100, 100)),
    a=st.floats(min_value=0.1, max_value=50),
    b=st.floats(min_value=-50, max_value=50),
)
def test_pearson_affine_invariance(u, a, b):
    v = np.arange(7.0) ** 2
    if np.ptp(u) < 1e-3:
        return
    base = pearson_corr(u, v)
    assert pearson_corr(a * u + b, v) == pytest.approx(base, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(a=finite_arrays, scale=st.floats(min_value=0.0, max_value=10.0))
def test_metric_axioms(a, scale):
    b = a + scale * np.sin(np.arange(a.size))
    for name in ["l2", "gradperc"]:
        metric = get_metric(name)
        assert metric.dist(a, a) == 0.0
        d = metric.dist(a, b)
        assert d >= 0.0 and np.isfinite(d)
        assert d == pytest.approx(metric.dist(b, a), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("shape", [None, (4, 4, 1), (2, 3, 2)])
def test_metric_rows_equal_scalar_form_on_each_row(shape):
    dim = 12 if shape is None else int(np.prod(shape))
    rng = generator(6, 0)
    stack = rng.standard_normal((5, dim))
    targets = rng.standard_normal((5, dim))
    stack[2] = targets[2]  # an identical row: psnr's inf flag
    for name in ("l2", "psnr", "gradperc"):
        metric = get_metric(name, shape=shape)
        fn = metric.dist
        np.testing.assert_array_equal(
            metric.rows(stack, targets), [fn(a, b) for a, b in zip(stack, targets)])
        np.testing.assert_array_equal(
            metric.rows(stack, targets[0]), [fn(a, targets[0]) for a in stack])
        with pytest.raises(ShapeMismatchError):
            metric.rows(stack, targets[:, 1:])


def test_get_metric_registry():
    assert get_metric("l2").name == "l2"
    a, b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    mse = np.mean((a - b) ** 2)
    assert get_metric("psnr").dist(a, b) == pytest.approx(-10 * math.log10(1.0 / mse))
    with pytest.raises(ValidationError):
        get_metric("lpips")


def test_energy_test_same_distribution():
    rng = generator(3, 0)
    a = rng.standard_normal((500, 2))
    b = generator(3, 1).standard_normal((500, 2))
    res = energy_distance_test(a, b, n_permutations=200, seed=0)
    assert res.p_value > 0.05
    assert res.n_per_group == 500


def test_energy_test_detects_shift():
    rng = generator(4, 0)
    a = rng.standard_normal((400, 2))
    b = generator(4, 1).standard_normal((400, 2)) + 0.6
    res = energy_distance_test(a, b, n_permutations=200, seed=0)
    assert res.p_value <= 0.01
    assert res.statistic > 0.0


def test_energy_test_counts_ties_as_extreme():
    # Duplicated points give every partition the statistic 0, so every
    # permutation ties the observed split and counts as at least as extreme.
    a = np.full((6, 2), 0.7)
    res = energy_distance_test(a, a.copy(), n_permutations=20, seed=0)
    assert res.statistic == 0.0
    assert res.p_value == 1.0


def test_energy_test_subsamples_deterministically():
    rng = generator(5, 0)
    a = rng.standard_normal((3000, 2))
    b = generator(5, 1).standard_normal((2500, 2))
    r1 = energy_distance_test(a, b, n_permutations=50, seed=9, max_points=600)
    r2 = energy_distance_test(a, b, n_permutations=50, seed=9, max_points=600)
    assert r1 == r2
    assert r1.n_per_group == 600


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_distance_matrix_equals_cdist(dim):
    # Every BLOCK x TILE tile of pooled points, the partial last row block
    # and column tile included (TILE + 1 points), alone and written into a
    # view of a full-size tile as the energy test does.
    x = 3.0 * generator(dim, 2).standard_normal((TILE + 1, dim))
    want = cdist(x, x)
    buf = np.full((BLOCK, TILE), np.nan)
    for i in range(0, x.shape[0], BLOCK):
        for j in range(0, x.shape[0], TILE):
            rows, cols = x[i:i + BLOCK], x[j:j + TILE]
            tile = want[i:i + BLOCK, j:j + TILE]
            np.testing.assert_array_equal(_distances(rows, cols), tile)
            out = buf[:len(rows), :len(cols)]
            assert _distances(rows, cols, out=out) is out
            np.testing.assert_array_equal(out, tile)


@pytest.mark.parametrize("dim", [1, 2, 8])
def test_energy_test_matches_per_permutation_oracle(dim):
    # (n, m, shift, n_permutations, max_points): equal and unequal groups,
    # both or one group subsampled, and the 0- and 1-permutation edges.
    cases = [(60, 60, 0.0, 40, 2000), (45, 70, 0.3, 40, 2000),
             (300, 250, 0.1, 20, 120), (300, 80, 0.0, 20, 120),
             (30, 40, 0.0, 0, 2000), (30, 40, 0.2, 1, 2000)]
    for i, (n, m, shift, perms, max_points) in enumerate(cases):
        a = generator(20 + dim, i).standard_normal((n, dim))
        b = generator(40 + dim, i).standard_normal((m, dim)) + shift
        got = energy_distance_test(a, b, perms, seed=i, max_points=max_points)
        want = energy_test_oracle(a, b, perms, seed=i, max_points=max_points)
        assert got.p_value == want.p_value
        assert got.n_per_group == want.n_per_group
        # The statistic is a difference of mean distances and crosses zero,
        # so its rounding is relative to the size of those means.
        scale = cdist(a, b).mean()
        assert abs(got.statistic - want.statistic) <= 1e-12 * scale


def test_energy_test_matches_oracle_across_tiles():
    # Half a row block short of two column tiles of pooled points: the
    # second tile partial, and a partial last row block.
    pooled = 2 * TILE - BLOCK // 2
    a = generator(23, 0).standard_normal((pooled * 4 // 7, 2))
    b = generator(23, 1).standard_normal((pooled - len(a), 2)) + 0.1
    assert pooled % BLOCK and TILE < pooled < 2 * TILE
    got = energy_distance_test(a, b, 30, seed=4)
    want = energy_test_oracle(a, b, 30, seed=4)
    assert got.p_value == want.p_value
    assert abs(got.statistic - want.statistic) <= 1e-12 * cdist(a, b).mean()


def test_energy_test_reads_1d_samples_as_points():
    a = generator(6, 0).standard_normal(50)
    b = generator(6, 1).standard_normal(50) + 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = energy_distance_test(a, b, n_permutations=50, seed=2)
    assert got == energy_distance_test(a[:, None], b[:, None],
                                       n_permutations=50, seed=2)
    assert got.n_per_group == 50


@pytest.mark.parametrize("shape_a, shape_b, kwargs", [
    ((1, 2), (30, 2), {}),
    ((30, 2), (1, 2), {}),
    ((30, 2), (30, 2), {"max_points": 1}),
    ((30, 2), (30, 2), {"max_points": 0}),
    ((30, 2), (30, 2), {"n_permutations": -1}),
    ((30, 2, 2), (30, 2, 2), {}),
    ((30, 0), (30, 0), {}),
])
def test_energy_test_rejects_bad_inputs(shape_a, shape_b, kwargs):
    a = generator(7, 0).standard_normal(shape_a)
    b = generator(7, 1).standard_normal(shape_b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            energy_distance_test(a, b, **kwargs)


@pytest.mark.parametrize("n, dim, perms, limit_mib", [
    # verify's marginal check: 1.1 MiB in tiles of 64 x 256 (1.8 MiB in
    # tiles of 64 x 512); 3.7 MiB with whole rows of D and float labels,
    # 22 MiB with an N x N D.
    (600, 2, 200, 2),
    # the default max_points: 2.5 MiB in tiles of 64 x 256 (3.4 MiB in
    # tiles of 64 x 512); 15 MiB with whole rows of D and float labels,
    # 244 MiB with an N x N D.
    (2000, 8, 300, 5),
])
def test_energy_test_memory_is_blocked(n, dim, perms, limit_mib):
    a = generator(8, 0).standard_normal((n, dim))
    b = generator(8, 1).standard_normal((n, dim))
    tracemalloc.start()
    try:
        energy_distance_test(a, b, n_permutations=perms, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20
