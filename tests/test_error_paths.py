"""Input checks across modules: each rejection of a malformed argument, and
each early return on empty input, run with an input that takes it."""

import dataclasses
import io
import math

import numpy as np
import pytest

from graspkit import (
    CORNELL,
    CORNELL_STATS,
    DepthImage,
    DimensionError,
    Grasp,
    GripperModel2D,
    HeaderError,
    KeypointPair,
    MatchCriteria,
    OrientedRect,
    detection_loss,
    evaluate_dataset,
    filter_pairs,
    ground_truth_offset,
    invert_rgd,
    make_scene,
    measure_fps,
    offset_loss,
    pipeline_detector,
    read_annotations,
    read_depth_gktb,
    read_gktb,
    score_grasps,
    write_annotations,
    write_gktb,
)
from helpers import random_bundle

# bundle


@pytest.mark.parametrize("shape", [(4,), (1, 2, 4, 4)], ids=["1-D", "4-D"])
def test_bundle_plane_that_is_not_2d_or_3d_is_a_dimension_error(shape):
    bundle = random_bundle(np.random.default_rng(0))
    with pytest.raises(DimensionError, match="plane center: expected 2-D or 3-D"):
        dataclasses.replace(bundle, center=np.zeros(shape, np.float32))


@pytest.mark.parametrize("field", ["num_classes", "downsample_ratio"])
def test_validate_rejects_counts_below_one(field):
    bundle = dataclasses.replace(random_bundle(np.random.default_rng(1)), **{field: 0})
    with pytest.raises(DimensionError, match=f"{field} must be >= 1, got 0"):
        bundle.validate()


@pytest.mark.parametrize("field", ["num_classes", "downsample_ratio"])
def test_bundles_that_differ_in_a_count_are_not_equal(field):
    bundle = random_bundle(np.random.default_rng(2))
    other = dataclasses.replace(bundle, **{field: getattr(bundle, field) + 1})
    assert bundle.equals(bundle)
    assert not bundle.equals(other) and not other.equals(bundle)


@pytest.mark.parametrize("tail", [b"", b"\x01", b"\x01\x00\x00\x00"])
def test_stream_ending_inside_the_fixed_header_is_a_header_error(tail):
    with pytest.raises(HeaderError, match="inside the fixed header"):
        read_gktb(io.BytesIO(b"GKTB" + tail))


# dataset


@pytest.mark.parametrize("shape", [(3, 4), (2, 4, 4), (4, 4, 4)])
def test_invert_rgd_rejects_a_stack_that_is_not_3_planes(shape):
    with pytest.raises(ValueError, match=r"whitened stack must be \(3, H, W\)"):
        invert_rgd(np.zeros(shape), CORNELL_STATS)


# depth


def test_depth_image_shapes_must_agree():
    with pytest.raises(ValueError, match="shapes differ"):
        DepthImage(np.full((4, 5), 900.0), np.full((5, 4), 1000.0))


def test_depth_image_must_be_2d():
    with pytest.raises(ValueError, match="must be 2-D, got ndim=3"):
        DepthImage(np.full((1, 4, 4), 900.0), np.full((1, 4, 4), 1000.0))


def test_score_grasps_rejects_an_empty_list():
    depth = DepthImage.flat_surface(np.full((60, 60), 1000.0), 1000.0)
    with pytest.raises(ValueError, match="empty grasp list"):
        score_grasps([], depth, GripperModel2D())
    with pytest.raises(ValueError, match="empty grasp list"):
        score_grasps(iter(()), depth, GripperModel2D())


def test_depth_file_without_a_depth_plane_is_rejected():
    buf = io.BytesIO()
    write_gktb(buf, [("surface", np.full((1, 4, 4), 1000.0))], num_classes=0, downsample_ratio=1)
    buf.seek(0)
    with pytest.raises(ValueError, match=r"no 'depth' plane in file \(found \['surface'\]\)"):
        read_depth_gktb(buf)


# evaluator


def test_unknown_policy_is_rejected():
    with pytest.raises(ValueError, match="unknown policy 'top5'"):
        evaluate_dataset({}, {}, MatchCriteria(), policy="top5")


def test_measure_fps_needs_a_repetition_and_inputs():
    calls = []
    with pytest.raises(ValueError, match=">= 1 repetition, got 0"):
        measure_fps(calls.append, [1], repeats=0)
    with pytest.raises(ValueError, match="no inputs to time"):
        measure_fps(calls.append, iter(()))
    assert calls == []


# geometry


@pytest.mark.parametrize(
    "left, right",
    [((5.0, 0.0), (1.0, 0.0)), ((1.0, 5.0), (1.0, 2.0))],
    ids=["x-descending", "equal-x-y-descending"],
)
def test_keypoint_pair_out_of_canonical_order_is_rejected(left, right):
    with pytest.raises(ValueError, match="not in canonical order"):
        KeypointPair(left, right)
    assert KeypointPair.of(left, right) == KeypointPair(right, left)


@pytest.mark.parametrize("field", ["x", "y", "theta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_grasp_with_a_non_finite_pose_is_rejected(field, value):
    pose = {"x": 10.0, "y": 20.0, "theta": 0.5, "w": 12.0}
    with pytest.raises(ValueError, match="non-finite grasp fields"):
        Grasp(**{**pose, field: value})


@pytest.mark.parametrize("width, height", [(0.0, 5.0), (5.0, 0.0), (-1.0, 5.0), (5.0, -2.0)])
def test_oriented_rect_needs_positive_sides(width, height):
    with pytest.raises(ValueError, match="degenerate rectangle"):
        OrientedRect((0.0, 0.0), width, height, 0.0)


def test_write_annotations_to_an_open_text_file():
    grasps = [Grasp(60.0, 60.0, 0.3, 30.0), Grasp(10.5, 20.25, -1.2, 24.0, h=12.0)]
    fh = io.StringIO()
    write_annotations(grasps, fh)
    assert not fh.closed
    assert fh.getvalue().count("\n") == 2
    back = read_annotations(io.StringIO(fh.getvalue()))
    assert [(g.x, g.y, g.w, g.h) for g in back] == [(g.x, g.y, g.w, g.h) for g in grasps]
    assert [g.theta for g in back] == pytest.approx([g.theta for g in grasps], abs=1e-12)


# losses


def test_detection_loss_rejects_a_negative_grasp_count():
    with pytest.raises(ValueError, match="negative grasp count -1"):
        detection_loss(np.full((2, 3), 0.5), np.zeros((2, 3)), -1)


def test_offset_loss_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="shape mismatch"):
        offset_loss(np.zeros((3, 2)), np.zeros((2, 2)))


@pytest.mark.parametrize("pixel", [(-1, 4), (4, -1)])
def test_ground_truth_offset_rejects_a_negative_pixel(pixel):
    with pytest.raises(ValueError, match="negative pixel"):
        ground_truth_offset(pixel, 4)


@pytest.mark.parametrize("ratio", [0, 0.5, -4])
def test_ground_truth_offset_rejects_a_ratio_below_one(ratio):
    with pytest.raises(ValueError, match="downsample ratio must be >= 1"):
        ground_truth_offset((5, 7), ratio)


# grouper and binpick


def test_filter_pairs_with_an_empty_keypoint_list_is_empty():
    scores = np.zeros((0, 0))
    assert filter_pairs([], [], scores, CORNELL.thresholds, CORNELL.num_classes) == []


def test_pipeline_detector_on_a_cleared_scene_proposes_nothing():
    scene = make_scene(3, 2)
    detect = pipeline_detector(scene, CORNELL.thresholds, num_classes=CORNELL.num_classes)
    assert len(detect(scene.render())) == 2
    for block in list(scene.blocks):
        scene.remove(block.block_id)
    assert detect(None) == []
