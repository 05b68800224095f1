"""Schedule construction, interpolation, and plan resampling."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import identity_plan, time_of_lambda_oracle
from odebc.errors import ValidationError
from odebc.schedule import (
    DiscreteSchedule,
    make_linear_vp_schedule,
    resample_timesteps,
    uniform_continuous_plan,
)


def default_schedule():
    return make_linear_vp_schedule(1000, 1e-4, 0.02)


def test_cumprod_matches_exact_rational_oracle():
    s = default_schedule()
    # Exact arithmetic over the same float64 betas the module multiplied.
    acc = Fraction(1)
    for k, beta in enumerate(s.betas):
        acc *= 1 - Fraction(float(beta))
        assert s.alpha_bars[k] == pytest.approx(float(acc), rel=1e-14)


def test_known_alpha_bar_values():
    s = default_schedule()
    assert s.alpha_bars[0] == pytest.approx(0.9999, rel=1e-15)
    assert s.alpha_bars[999] == pytest.approx(4.035829765375683e-05, rel=1e-12)


def test_two_step_schedule_by_hand():
    s = make_linear_vp_schedule(2, 0.5, 0.5)
    np.testing.assert_allclose(s.alpha_bars, [0.5, 0.25], rtol=1e-15)


def test_ramp_endpoints_and_monotone():
    s = default_schedule()
    assert s.betas[0] == pytest.approx(1e-4)
    assert s.betas[-1] == pytest.approx(0.02)
    assert np.all(np.diff(s.alpha_bars) < 0)


def test_invalid_construction():
    with pytest.raises(ValidationError):
        make_linear_vp_schedule(1, 1e-4, 0.02)
    with pytest.raises(ValidationError):
        make_linear_vp_schedule(10, 0.02, 1e-4)
    with pytest.raises(ValidationError):
        make_linear_vp_schedule(10, 0.0, 0.02)
    with pytest.raises(ValidationError):
        DiscreteSchedule(np.array([0.1, 1.0]))


def test_grid_points_reproduce_discrete_values():
    s = default_schedule()
    for k in [0, 1, 499, 998, 999]:
        t = k / 999
        assert s.alpha(t) ** 2 == pytest.approx(s.alpha_bars[k], rel=1e-12)


def test_vp_identity_on_random_times():
    s = default_schedule()
    t = np.linspace(0.0, 1.0, 641)
    alpha, sigma, _, _ = s.coeffs(t)
    np.testing.assert_allclose(alpha**2 + sigma**2, 1.0, atol=1e-12)


def test_lookup_rejects_times_outside_unit_interval():
    s = default_schedule()
    inside = np.linspace(0.0, 1.0, 5)
    for bad in (-1e-12, 1.0 + 1e-12, np.nan, np.append(inside, 1.0 + 1e-12)):
        for name in ("alpha", "sigma", "lam", "coeffs"):
            with pytest.raises(ValidationError):
                getattr(s, name)(bad)


def test_drift_matches_finite_difference():
    s = default_schedule()
    h = 1e-7
    for t in [0.1003, 0.5, 0.97717]:
        _, _, f, g2 = s.coeffs(t)
        fd = (np.log(s.alpha(t + h)) - np.log(s.alpha(t - h))) / (2 * h)
        assert f == pytest.approx(fd, rel=1e-6)
        fd2 = (s.sigma(t + h) ** 2 - s.sigma(t - h) ** 2) / (2 * h)
        assert g2 == pytest.approx(fd2 - 2 * f * s.sigma(t) ** 2, rel=1e-6)
        # VP cancellation: g2 is -2f exactly.
        assert g2 == -2.0 * f


def test_lambda_monotone_and_invertible():
    s = default_schedule()
    t = np.linspace(0.0, 1.0, 513)
    assert np.all(np.diff(s.lam(t)) < 0)
    for ti in [0.0, 0.013, 0.5, 0.871, 1.0]:
        assert s.time_of_lambda(float(s.lam(ti))) == pytest.approx(ti, abs=1e-10)
    with pytest.raises(ValidationError):
        s.time_of_lambda(float(s.lam(0.0)) + 1.0)


def test_time_of_lambda_within_16_ulp_of_bisection_oracle():
    # The targets DPM-Solver-2 inverts: the log-SNR midpoints of its plans.
    # The closed form and the bisection round differently, so they agree to
    # a few ulp (13 at most here), and the closed form's lam(t) lands no
    # further from the target than the bisection's.
    s = default_schedule()
    for n in (2, 5, 20, 50, 300, 1000):
        lam = s.lam(resample_timesteps(s, n).times)
        targets = lam[:-1] + 0.5 * np.diff(lam)
        got = s.time_of_lambda(targets)
        want = time_of_lambda_oracle(s, targets)
        assert got.shape == targets.shape
        assert np.all(np.abs(got - want) <= 16 * np.spacing(want)), n
        assert np.max(np.abs(s.lam(got) - targets)) <= \
            np.max(np.abs(s.lam(want) - targets)), n
    ends = np.array([s.lam(1.0), s.lam(0.0)])
    assert s.time_of_lambda(ends).tolist() == [1.0, 0.0]
    for bad in (ends[1] + 1e-9, ends[0] - 1e-9, np.nan,
                np.append(targets[:3], ends[1] + 1.0)):
        with pytest.raises(ValidationError):
            s.time_of_lambda(bad)
        with pytest.raises(ValidationError):
            time_of_lambda_oracle(s, bad)


def test_time_of_lambda_on_flat_segments_raises_nothing():
    # betas of 1e-20 leave alpha_bar unchanged, so lam is flat on the first
    # and the last segment. With beta 0.01, lam(0) maps back to a
    # log(alpha_bar) at or above the first grid value; with 0.04, lam(1)
    # maps below the last. Either end then lands on its flat segment, and
    # every target must still map to a time with its lam.
    for beta in (0.01, 0.04):
        s = DiscreteSchedule(np.array([beta, 1e-20, beta, beta, 1e-20]))
        assert s.alpha_bars[0] == s.alpha_bars[1]
        assert s.alpha_bars[3] == s.alpha_bars[4]
        targets = s.lam(np.linspace(0.0, 1.0, 9))
        with np.errstate(all="raise"):
            got = s.time_of_lambda(targets)
        np.testing.assert_allclose(s.lam(got), targets, rtol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    total=st.integers(min_value=2, max_value=64),
    b1=st.floats(min_value=1e-5, max_value=0.1),
    width=st.floats(min_value=0.0, max_value=0.5),
    t=st.floats(min_value=0.0, max_value=1.0),
)
def test_vp_identity_property(total, b1, width, t):
    s = make_linear_vp_schedule(total, b1, b1 + width)
    alpha, sigma, f, g2 = s.coeffs(t)
    assert alpha**2 + sigma**2 == pytest.approx(1.0, abs=1e-12)
    assert f < 0 and g2 > 0


def test_uniform_resample_identity():
    s = default_schedule()
    plan = identity_plan(s)
    np.testing.assert_array_equal(plan.times, np.arange(999, -1, -1) / 999)
    assert plan.times[0] == 1.0 and plan.times[-1] == 0.0


def test_uniform_resample_counts_and_bounds():
    s = default_schedule()
    for n in [2, 10, 50, 100, 250]:
        plan = resample_timesteps(s, n)
        assert plan.n_points == n
        assert plan.times[0] == 1.0 and plan.times[-1] == 0.0
        assert np.all(np.diff(plan.times) < 0)
        # every time sits on a step index, k / (T-1)
        np.testing.assert_array_equal(
            plan.times, np.rint(plan.times * 999) / 999)


def test_resample_rejects_bad_specs():
    s = make_linear_vp_schedule(10, 0.01, 0.02)
    with pytest.raises(ValidationError):
        resample_timesteps(s, 1)
    with pytest.raises(ValidationError):
        resample_timesteps(s, 11)
    # a sequence of per-segment counts is not a plan size
    with pytest.raises(ValidationError) as info:
        resample_timesteps(s, [2, 3])
    assert "\n" not in str(info.value)


def test_continuous_plan_shape():
    plan = uniform_continuous_plan(4)
    np.testing.assert_array_equal(plan.times, [1.0, 0.75, 0.5, 0.25, 0.0])
    assert uniform_continuous_plan(1).times.tolist() == [1.0, 0.0]
    with pytest.raises(ValidationError):
        uniform_continuous_plan(0)
