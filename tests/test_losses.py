"""Loss values against hand evaluations and gradients against finite differences."""

import json
import math

import numpy as np
import pytest

from graspkit import (
    FocalParams,
    GradCheckReport,
    GradientError,
    LossWeights,
    detection_loss,
    gradient_check,
    ground_truth_offset,
    offset_loss,
    pull_loss,
    push_loss,
    total_loss,
)
from graspkit.checks import run_gradcheck_battery
from helpers import gradcheck_battery_reference, naive_detection_loss


def test_detection_perfect_prediction_near_zero():
    truth = np.zeros((3, 3))
    truth[1, 1] = 1.0
    pred = truth.copy()
    loss, _ = detection_loss(pred, truth, 1)
    assert loss == pytest.approx(0.0, abs=1e-10)


def test_detection_single_positive_pixel():
    loss, _ = detection_loss(np.array([[0.5]]), np.array([[1.0]]), 1)
    assert loss == pytest.approx(0.25 * math.log(2.0), abs=1e-12)  # ~0.173287


def test_detection_single_negative_pixel():
    loss, _ = detection_loss(np.array([[0.5]]), np.array([[0.0]]), 1)
    assert loss == pytest.approx(0.25 * math.log(2.0), abs=1e-12)


def test_detection_matches_naive_loop():
    rng = np.random.default_rng(100)
    for _ in range(50):
        pred = rng.uniform(1e-4, 1 - 1e-4, size=(2, 4, 4))
        truth = rng.uniform(0.0, 0.95, size=(2, 4, 4))
        truth[rng.random(size=truth.shape) < 0.2] = 1.0
        n = int(rng.integers(0, 6))
        loss, _ = detection_loss(pred, truth, n)
        assert loss == pytest.approx(naive_detection_loss(pred, truth, n), abs=1e-9)


def test_detection_decreases_toward_one_at_positive():
    truth = np.zeros((2, 2))
    truth[0, 0] = 1.0
    base = np.full((2, 2), 0.2)
    prev = None
    for yhat in (0.3, 0.5, 0.7, 0.9, 0.99):
        pred = base.copy()
        pred[0, 0] = yhat
        loss, _ = detection_loss(pred, truth, 1)
        if prev is not None:
            assert loss < prev
        prev = loss


def test_detection_shape_mismatch():
    with pytest.raises(ValueError):
        detection_loss(np.zeros((2, 3)), np.zeros((3, 2)), 1)


def test_offset_loss_values():
    assert offset_loss([[0.1, 0.9]], [[0.1, 0.9]])[0] == 0.0
    assert offset_loss([[0.5, 0.0]], [[0.0, 0.0]])[0] == pytest.approx(0.125)
    assert offset_loss([[2.0, 0.0]], [[0.0, 0.0]])[0] == pytest.approx(1.5)
    loss, grad = offset_loss(np.zeros((0, 2)), np.zeros((0, 2)))
    assert loss == 0.0 and grad.shape == (0, 2)


def test_ground_truth_offset():
    assert ground_truth_offset((8, 4), 4) == (0.0, 0.0)
    assert ground_truth_offset((10, 7), 4) == (0.5, 0.75)
    assert ground_truth_offset((123, 77), 1) == (0.0, 0.0)
    ox, oy = ground_truth_offset((13, 2), 4)
    assert 0.0 <= ox < 1.0 and 0.0 <= oy < 1.0


def test_pull_loss_values():
    assert pull_loss([[1.3, 1.3], [-0.2, -0.2]])[0] == 0.0
    assert pull_loss([[0.0, 2.0]])[0] == pytest.approx(2.0)
    assert pull_loss([[-1.0, 1.0]])[0] == pytest.approx(2.0)
    assert pull_loss(np.zeros((0, 2)))[0] == 0.0


def test_push_loss_values():
    assert push_loss([[0.0, 0.0], [1.0, 1.0]])[0] == pytest.approx(0.0)  # exactly at margin
    assert push_loss([[0.5, 0.5], [0.5, 0.5]])[0] == pytest.approx(1.0)
    assert push_loss([[0.0, 0.0], [5.0, 5.0]])[0] == 0.0
    assert push_loss([[1.0, 2.0]])[0] == 0.0  # singleton guard


def test_losses_shift_invariant():
    rng = np.random.default_rng(8)
    pairs = rng.normal(size=(6, 2))
    for shift in (-3.0, 0.7, 42.0):
        assert pull_loss(pairs + shift)[0] == pytest.approx(pull_loss(pairs)[0], abs=1e-9)
        assert push_loss(pairs + shift)[0] == pytest.approx(push_loss(pairs)[0], abs=1e-9)


def test_total_loss():
    assert total_loss(0, 0, 0, 0, 0) == 0.0
    assert total_loss(1, 1, 1, 1, 1) == 5.0
    assert total_loss(0.2, 0.1, 0.3, 0.0, 0.4) == pytest.approx(1.0)
    w = LossWeights(pull=2.0, push=0.5, offset=0.0)
    assert total_loss(1.0, 1.0, 1.0, 1.0, 1.0, w) == pytest.approx(4.5)


def test_all_losses_nonnegative_random():
    rng = np.random.default_rng(15)
    for _ in range(30):
        pred = rng.uniform(1e-3, 1 - 1e-3, size=(2, 3, 3))
        truth = rng.uniform(0, 0.9, size=(2, 3, 3))
        truth[0, 0, 0] = 1.0
        assert detection_loss(pred, truth, 2)[0] >= 0.0
        pairs = rng.normal(size=(4, 2))
        assert pull_loss(pairs)[0] >= 0.0
        assert push_loss(pairs)[0] >= 0.0
        assert offset_loss(rng.random((3, 2)), rng.random((3, 2)))[0] >= 0.0


def test_gradient_check_detection():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(20):
        truth = rng.uniform(0, 0.9, size=(2, 3, 3))
        truth[rng.random(size=truth.shape) < 0.2] = 1.0
        pred = rng.uniform(0.05, 0.95, size=(2, 3, 3))
        report = gradient_check(lambda x: detection_loss(x, truth, 2), pred)
        assert report.passed, report
        worst = max(worst, report.max_error)
    assert worst < 1e-4


def test_gradient_check_pull_is_tight():
    rng = np.random.default_rng(51)
    for _ in range(10):
        report = gradient_check(pull_loss, rng.normal(size=(5, 2)))
        assert report.max_error < 1e-7  # quadratic loss, exact to FD noise


def test_gradient_check_push_and_offset():
    rng = np.random.default_rng(52)
    done = 0
    while done < 10:
        pairs = rng.normal(0, 2, size=(4, 2))
        means = pairs.mean(axis=1)
        gaps = np.abs(means[:, None] - means[None, :])[~np.eye(4, dtype=bool)]
        if np.any(np.abs(gaps - 1.0) < 1e-3) or np.any(gaps < 1e-3):
            continue
        done += 1
        assert gradient_check(push_loss, pairs).passed
    truth = rng.random((5, 2))
    pred = truth + rng.uniform(-0.9, 0.9, size=(5, 2))
    assert gradient_check(lambda x: offset_loss(x, truth), pred).passed


def test_gradient_check_zero_gradient_point():
    truth = np.zeros((2, 2))
    truth[0, 0] = 1.0
    report = gradient_check(lambda x: detection_loss(x, truth, 1), truth.copy())
    assert report.passed  # absolute-floor branch


def test_gradient_check_rejects_bad_step():
    with pytest.raises(ValueError):
        gradient_check(pull_loss, np.ones((2, 2)), step=1e-2)


def test_gradient_check_flags_nonfinite():
    def broken(x):
        return 0.0, np.full_like(x, np.nan)

    with pytest.raises(GradientError, match="coordinate"):
        gradient_check(broken, np.ones((2, 2)))


def test_focal_params_defaults():
    p = FocalParams()
    assert (p.alpha, p.beta) == (2.0, 4.0)
    assert LossWeights() == LossWeights(1.0, 1.0, 1.0)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kwargs", [{}, {"points": 7, "step": 1e-4}], ids=["defaults", "points7-step1e-4"])
def test_gradcheck_battery_matches_five_loop_reference(seed, kwargs):
    assert run_gradcheck_battery(seed=seed, **kwargs) == gradcheck_battery_reference(seed=seed, **kwargs)


def test_gradcheck_report_to_dict_json():
    report = GradCheckReport(1.5e-8, (1, 2), 10, 1e-5, 1e-4, 1e-7, True)
    assert json.dumps(report.to_dict()) == (
        '{"max_error": 1.5e-08, "worst_coordinate": [1, 2], "n_coordinates": 10, '
        '"step": 1e-05, "rel_tol": 0.0001, "abs_floor": 1e-07, "passed": true}'
    )


@pytest.mark.parametrize("points", [0, -3])
def test_gradcheck_battery_needs_at_least_one_point(points):
    with pytest.raises(ValueError, match=f"points must be >= 1, got {points}"):
        run_gradcheck_battery(points=points)


@pytest.mark.parametrize("tolerance", [0.0, math.nan, -1.0, math.inf])
def test_gradient_check_needs_a_finite_positive_tolerance(tolerance):
    point = np.array([[0.3, -0.2]])
    with pytest.raises(ValueError, match="rel_tol must be finite and > 0"):
        gradient_check(pull_loss, point, rel_tol=tolerance)
    with pytest.raises(ValueError, match="rel_tol must be finite and > 0"):
        run_gradcheck_battery(points=1, tolerance=tolerance)


def test_gradient_check_rejects_a_tolerance_that_overflows_the_floor():
    # 1e-7 / 1e-320 is inf, which would make every per-coordinate error 0.0
    point = np.array([[0.3, -0.2]])
    with pytest.raises(ValueError, match="rel_tol 1e-320 is too small"):
        gradient_check(pull_loss, point, rel_tol=1e-320)
    with pytest.raises(ValueError, match="rel_tol 1e-320 is too small"):
        run_gradcheck_battery(points=1, tolerance=1e-320)
    assert gradient_check(pull_loss, point, rel_tol=1e-300).rel_tol == 1e-300
