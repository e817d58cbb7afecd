"""Rectangle metric semantics, dataset aggregation and fps measurement."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import (
    AJD,
    CORNELL,
    Grasp,
    ImageResult,
    MatchCriteria,
    OrientedRect,
    PairingError,
    angle_diff,
    evaluate_dataset,
    group,
    is_match,
    measure_fps,
    rotated_iou,
    wrap_angle,
)
from graspkit.evaluator import _separated
from helpers import circles_apart_reference, clutter_bundle

CORNELL_CRIT = MatchCriteria(eval_height=23.33)
AJD_CRIT = MatchCriteria(eval_height=20.0)


def test_identity_matches():
    g = Grasp(100, 100, 0.3, 40, h=23.33)
    assert is_match(g, g, CORNELL_CRIT)


@pytest.mark.parametrize("crit", [CORNELL_CRIT, AJD_CRIT])
def test_rotation_threshold(crit):
    truth = Grasp(100, 100, 0.0, 40, h=crit.eval_height)
    off31 = Grasp(100, 100, math.radians(31), 40)
    assert not is_match(off31, truth, crit)  # 31 deg > 30 deg
    off29 = Grasp(100, 100, math.radians(29), 40)
    assert is_match(off29, truth, crit)  # within 30 deg, large overlap


@pytest.mark.parametrize("crit", [CORNELL_CRIT, AJD_CRIT])
def test_contained_half_width_rect(crit):
    truth = Grasp(100, 100, 0.0, 40, h=crit.eval_height)
    pred = Grasp(100, 100, 0.0, 20)  # half the width, same h -> IoU exactly 0.5
    assert is_match(pred, truth, crit)


def test_jaccard_threshold_strict():
    # width ratio 1/4 -> contained rect IoU exactly 0.25, NOT greater
    # (h = 20 keeps all shoelace arithmetic exact in binary floating point)
    truth = Grasp(100, 100, 0.0, 40, h=20.0)
    pred = Grasp(100, 100, 0.0, 10)
    assert not is_match(pred, truth, AJD_CRIT)


def test_angle_wraps_modulo_pi():
    truth = Grasp(50, 50, math.radians(89), 30, h=20)
    pred = Grasp(50, 50, math.radians(-89), 30)
    assert is_match(pred, truth, AJD_CRIT)  # wrapped distance 2 deg


def test_truth_keeps_annotated_height():
    truth = Grasp(100, 100, 0.0, 40, h=200.0)  # tall annotated rect
    pred = Grasp(100, 100, 0.0, 40)  # evaluates at h = 23.33
    # IoU = 23.33/200 = 0.117 < 0.25
    assert not is_match(pred, truth, CORNELL_CRIT)


def test_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        t = Grasp(float(rng.uniform(40, 60)), float(rng.uniform(40, 60)),
                  float(rng.uniform(-1.5, 1.5)), float(rng.uniform(10, 30)), h=20.0)
        p = Grasp(t.x + float(rng.uniform(-8, 8)), t.y + float(rng.uniform(-8, 8)),
                  t.theta, t.w * float(rng.uniform(0.7, 1.3)))
        s = float(rng.uniform(0.5, 3.0))
        crit = MatchCriteria(eval_height=20.0)
        crit_scaled = MatchCriteria(eval_height=20.0 * s)
        t2 = Grasp(t.x * s, t.y * s, t.theta, t.w * s, h=t.h * s)
        p2 = Grasp(p.x * s, p.y * s, p.theta, p.w * s)
        assert is_match(p, t, crit) == is_match(p2, t2, crit_scaled)


def _dataset(n_images, n_correct):
    preds, truths = {}, {}
    for i in range(n_images):
        gid = f"img{i:02d}"
        truth = Grasp(100, 100, 0.2, 40, h=23.33)
        truths[gid] = [truth]
        if i < n_correct:
            preds[gid] = [Grasp(100, 100, 0.2, 40)]
        else:
            preds[gid] = [Grasp(100, 100, 0.2 - math.radians(45), 40)]
    return preds, truths


def test_evaluate_all_match():
    preds, truths = _dataset(10, 10)
    report = evaluate_dataset(preds, truths, CORNELL_CRIT)
    assert report.accuracy == 1.0 and report.correct == 10


def test_evaluate_counts():
    preds, truths = _dataset(10, 9)
    report = evaluate_dataset(preds, truths, CORNELL_CRIT)
    assert report.accuracy == pytest.approx(0.9)
    assert report.total == 10


def test_evaluate_empty_predictions_incorrect():
    preds = {"a": []}
    truths = {"a": [Grasp(10, 10, 0.0, 10, h=20)]}
    report = evaluate_dataset(preds, truths, AJD_CRIT)
    assert report.accuracy == 0.0
    assert report.per_image[0].best_angle_diff is None


def test_evaluate_top1_vs_topn():
    truth = Grasp(100, 100, 0.0, 40, h=23.33)
    bad = Grasp(100, 100, math.radians(45), 40)
    good = Grasp(100, 100, 0.0, 40)
    preds = {"a": [bad, good]}
    truths = {"a": [truth]}
    assert evaluate_dataset(preds, truths, CORNELL_CRIT, policy="top1").accuracy == 0.0
    assert evaluate_dataset(preds, truths, CORNELL_CRIT, policy="topn").accuracy == 1.0


def test_evaluate_orphan_ids():
    preds, truths = _dataset(3, 3)
    del preds["img01"]
    with pytest.raises(PairingError, match="img01"):
        evaluate_dataset(preds, truths, CORNELL_CRIT)


def test_evaluate_permutation_invariant():
    preds, truths = _dataset(8, 5)
    base = evaluate_dataset(preds, truths, CORNELL_CRIT).accuracy
    items = list(preds.items())[::-1]
    assert evaluate_dataset(dict(items), truths, CORNELL_CRIT).accuracy == base


def test_measure_fps_sleep_fixture(monkeypatch):
    # a fake clock that each pipeline call advances by exactly 0.02 s (a
    # Fraction, so the timed span sums to 1 s with no rounding)
    now = [Fraction(0)]

    def pipeline(_):
        now[0] += Fraction(1, 50)

    monkeypatch.setattr("graspkit.evaluator.time.perf_counter", lambda: now[0])
    fps = measure_fps(pipeline, [None], warmup=5, timed=50, repeats=3)
    assert fps == 50.0


def test_measure_fps_zero_work():
    assert measure_fps(lambda _: None, [None]) > 1000.0


def test_measure_fps_full_grouping_pipeline():
    # throughput of the real decode+group path on a 57x57x18 ideal bundle;
    # recorded for reference, no target asserted (hardware-specific)
    from graspkit import CORNELL, EncoderConfig, group, ideal_bundle
    from helpers import random_separated_grasps

    rng = np.random.default_rng(64)
    config = EncoderConfig(228, 228, 18, 4)
    bundle = ideal_bundle(random_separated_grasps(rng, 5), config, seed=64)
    fps = measure_fps(lambda b: group(b, CORNELL.thresholds, k=100), [bundle])
    print(f"group() pipeline throughput: {fps:.1f} fps")
    assert fps > 0.0


def test_measure_fps_validates_protocol():
    with pytest.raises(ValueError):
        measure_fps(lambda _: None, [None], warmup=2)
    with pytest.raises(ValueError):
        measure_fps(lambda _: None, [None], timed=10)


def test_criteria_validation():
    with pytest.raises(ValueError):
        MatchCriteria(min_jaccard=0.0)
    with pytest.raises(ValueError):
        MatchCriteria(max_angle_diff=2.0)


def _image_stats_reference(preds, truths, criteria):
    """All-pairs loop: two fresh rectangles and one rotated IoU per pair."""
    matched = False
    best_j = 0.0
    best_a = None
    for p in preds:
        for t in truths:
            a = angle_diff(p.theta, t.theta)
            pr = OrientedRect((p.x, p.y), p.w, criteria.eval_height, p.theta)
            th = t.h if t.h is not None else criteria.eval_height
            tr = OrientedRect((t.x, t.y), t.w, th, t.theta)
            j = rotated_iou(pr, tr)
            best_j = max(best_j, j)
            best_a = a if best_a is None else min(best_a, a)
            if a <= criteria.max_angle_diff and j > criteria.min_jaccard:
                matched = True
    return matched, best_j, best_a


@pytest.mark.parametrize("profile", [CORNELL, AJD])
def test_image_stats_match_all_pairs_reference(profile):
    rng = np.random.default_rng(profile.num_classes + 1)
    crit = MatchCriteria(eval_height=profile.eval_height)
    predictions, truths = {}, {}
    for n in range(1, 10):
        bundle, grasps = clutter_bundle(rng, profile, n)
        predictions[str(n)] = group(bundle, profile.thresholds)
        truths[str(n)] = grasps
    # shifted copies of the truths overlap them partially or just miss them
    predictions["shifted"] = [
        Grasp(g.x + dx, g.y, g.theta, g.w)
        for g in truths["9"]
        for dx in np.linspace(0.0, 60.0, 13).tolist()
    ]
    truths["shifted"] = truths["9"]
    # 100 predictions x 5 truths: jittered copies, some overlapping, some not
    predictions["100x5"] = [
        Grasp(g.x + dx, g.y + dy, wrap_angle(g.theta + dt), g.w * scale)
        for g in truths["5"]
        for dx, dy, dt, scale in rng.normal((0.0, 0.0, 0.0, 1.0), (15.0, 15.0, 0.4, 0.2), (20, 4)).tolist()
    ]
    truths["100x5"] = truths["5"]
    predictions["empty"], truths["empty"] = [], truths["1"]
    report = evaluate_dataset(predictions, truths, crit, policy="topn")
    for result in report.per_image:
        expected = _image_stats_reference(predictions[result.image_id], truths[result.image_id], crit)
        assert (result.matched, result.best_jaccard, result.best_angle_diff) == expected
    assert 0 < report.correct < report.total
    assert len(predictions["100x5"]) == 100


_coord = st.floats(-1000.0, 1000.0, allow_nan=False)
_side = st.floats(0.01, 100.0, allow_nan=False)
_angle = st.floats(-math.pi / 2, math.pi / 2, allow_nan=False)


@settings(max_examples=500, deadline=None)
@given(
    center=st.tuples(_coord, _coord),
    size_a=st.tuples(_side, _side),
    size_b=st.tuples(_side, _side),
    thetas=st.tuples(_angle, _angle),
    direction=st.floats(0.0, 2 * math.pi),
    slack=st.floats(-0.1, 0.1),
)
def test_circle_pre_rejection_implies_zero_iou(center, size_a, size_b, thetas, direction, slack):
    """Whenever the circumscribed-circle test rejects a pair, the rotated IoU
    of that pair is exactly 0.0.  The second center sits near the distance
    where the two circles touch, the hardest case for the margin."""
    a = OrientedRect(center, *size_a, thetas[0])
    reach = (math.hypot(*size_a) + math.hypot(*size_b)) / 2
    offset = reach * (1.0 + slack)
    b_center = (center[0] + offset * math.cos(direction), center[1] + offset * math.sin(direction))
    b = OrientedRect(b_center, *size_b, thetas[1])
    if circles_apart_reference([a], [b])[0, 0]:
        assert rotated_iou(a, b) == 0.0
        assert rotated_iou(b, a) == 0.0


@settings(max_examples=1000, deadline=None)
@given(
    center=st.tuples(_coord, _coord),
    size_a=st.tuples(_side, _side),
    size_b=st.tuples(_side, _side),
    thetas=st.tuples(_angle, _angle),
    direction=st.floats(0.0, 2 * math.pi),
    reach_share=st.floats(0.3, 1.1),
)
def test_separating_axis_rejection_implies_zero_iou_and_covers_circle_test(
    center, size_a, size_b, thetas, direction, reach_share
):
    """A pair the separating-axis test rejects has a rotated IoU of exactly
    0.0, and every pair the circle test rejects is rejected.  The second
    center sits from well inside to just beyond the distance where the
    circumscribed circles touch: near misses and overlaps."""
    a = OrientedRect(center, *size_a, thetas[0])
    offset = (math.hypot(*size_a) + math.hypot(*size_b)) / 2 * reach_share
    b_center = (center[0] + offset * math.cos(direction), center[1] + offset * math.sin(direction))
    b = OrientedRect(b_center, *size_b, thetas[1])
    separated = _separated([a], [b])[0, 0]
    if circles_apart_reference([a], [b])[0, 0]:
        assert separated
    if separated:
        assert rotated_iou(a, b) == 0.0
        assert rotated_iou(b, a) == 0.0


def test_separating_axis_test_rejects_near_misses_the_circle_test_keeps():
    # side by side, 1 px apart: the circumscribed circles overlap by far
    a = OrientedRect((0.0, 0.0), 40.0, 10.0, 0.0)
    b = OrientedRect((0.0, 11.0), 40.0, 10.0, 0.0)
    tilted = OrientedRect((0.0, 12.0), 40.0, 10.0, 0.3)  # one corner dips into a
    assert not circles_apart_reference([a], [b, tilted]).any()
    assert _separated([a], [b, tilted]).tolist() == [[True, False]]
    assert rotated_iou(a, b) == 0.0 and rotated_iou(a, tilted) > 0.0


def test_prediction_on_a_truth_matches_at_the_profile_height():
    # same center, width and angle; the prediction's rectangle is taller, so
    # the short edges are collinear (this one once raised "areas overflow")
    truth = Grasp(36.52031583294033, 36.75912897579344, -0.6379087388378138, 29.05790484402766, 12.869723226770699)
    pred = Grasp(truth.x, truth.y, truth.theta, truth.w)
    assert is_match(pred, truth, AJD_CRIT)
    report = evaluate_dataset({"0": [pred]}, {"0": [truth]}, AJD_CRIT)
    assert report.per_image[0].best_jaccard == pytest.approx(12.869723226770699 / 20.0, rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_prediction_with_overflowing_area_raises():
    truth = Grasp(50.0, 50.0, 0.0, 20.0, 10.0)
    pred = Grasp(50.0, 50.0, 0.0, 1e308)  # finite width, infinite rectangle area
    with pytest.raises(ValueError, match="areas overflow"):
        is_match(pred, truth, CORNELL_CRIT)
    for policy in ("top1", "topn"):
        with pytest.raises(ValueError, match="areas overflow"):
            evaluate_dataset({"a": [pred]}, {"a": [truth]}, CORNELL_CRIT, policy=policy)


def test_image_result_to_dict_json():
    assert json.dumps(ImageResult("img", True, 0.75, None).to_dict()) == (
        '{"image_id": "img", "matched": true, "best_jaccard": 0.75, "best_angle_diff": null}'
    )
    assert json.dumps(ImageResult("b", False, 0.0, 0.25).to_dict()) == (
        '{"image_id": "b", "matched": false, "best_jaccard": 0.0, "best_angle_diff": 0.25}'
    )


def test_eval_report_json_keeps_its_key_order():
    truths = {"a": [Grasp(50.0, 50.0, 0.0, 20.0, 10.0)], "b": [Grasp(80.0, 80.0, 1.0, 20.0, 10.0)]}
    preds = {"a": [Grasp(50.0, 50.0, 0.0, 20.0)], "b": []}
    report = evaluate_dataset(preds, truths, CORNELL_CRIT)
    out = report.to_dict()
    assert list(out) == ["total", "correct", "accuracy", "fps", "per_image"]
    assert (out["total"], out["correct"], out["accuracy"], out["fps"]) == (2, 1, 0.5, None)
    assert out["per_image"] == [r.to_dict() for r in report.per_image]
    assert [r["image_id"] for r in out["per_image"]] == ["a", "b"]


@pytest.mark.parametrize("height", [0.0, -1.0, math.nan, math.inf])
def test_criteria_rejects_an_eval_height_that_is_not_finite_and_positive(height):
    with pytest.raises(ValueError, match="eval_height"):
        MatchCriteria(eval_height=height)


_grasps = st.builds(
    Grasp,
    x=st.floats(0.0, 200.0), y=st.floats(0.0, 200.0),
    theta=st.floats(-math.pi / 2, math.pi / 2, exclude_min=True),
    w=st.floats(0.5, 120.0), h=st.none() | st.floats(0.5, 60.0),
)
_criteria = st.builds(
    MatchCriteria,
    max_angle_diff=st.floats(0.0, math.pi / 2, exclude_min=True),
    min_jaccard=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    eval_height=st.floats(0.5, 60.0),
)


@settings(max_examples=500, deadline=None)
@given(pred=_grasps, truth=_grasps, near=st.booleans(), criteria=_criteria)
def test_is_match_is_the_dataset_metric_on_one_pair(pred, truth, near, criteria):
    if near:  # most random pairs are far apart; half of the draws share a center
        truth = Grasp(pred.x, pred.y, truth.theta, truth.w, truth.h)
    report = evaluate_dataset({"i": [pred]}, {"i": [truth]}, criteria)
    assert is_match(pred, truth, criteria) == (report.correct == 1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_angle_failing_pair_whose_areas_overflow_raises_as_the_dataset_metric_does():
    truth = Grasp(50.0, 50.0, 0.0, 20.0, 10.0)
    pred = Grasp(50.0, 50.0, 1.2, 1e308)  # 69 deg off, infinite rectangle area
    with pytest.raises(ValueError, match="areas overflow"):
        is_match(pred, truth, CORNELL_CRIT)
    with pytest.raises(ValueError, match="areas overflow"):
        evaluate_dataset({"a": [pred]}, {"a": [truth]}, CORNELL_CRIT)
