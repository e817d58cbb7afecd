"""Input checks across modules: each rejection of a malformed argument, and
each early return on empty input, run with an input that takes it."""

import dataclasses
import io
import math
import re

import numpy as np
import pytest

from graspkit import (
    CORNELL,
    CORNELL_STATS,
    ChannelStats,
    DepthImage,
    DimensionError,
    EncoderConfig,
    Grasp,
    GripperModel2D,
    GroupingThresholds,
    HeaderError,
    HeatmapBundle,
    KeypointPair,
    MatchCriteria,
    OrientedRect,
    classify_annotation,
    detection_loss,
    gradient_check,
    evaluate_dataset,
    filter_pairs,
    ground_truth_offset,
    ideal_bundle,
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
from graspkit import (
    angle_to_class,
    class_to_angle,
    decode_bundle,
    extract_center_scores,
    group,
    group_candidates,
    select_dynamic,
    select_grasp_keypoints,
)
from graspkit.checks import run_gradcheck_battery, run_selftest
from graspkit.geometry import grasp_from_record
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


def _bad_layouts():
    """An ideal two-grasp bundle with one layout fault each, and the message
    ``validate`` gives for it."""
    b = ideal_bundle([Grasp(60.0, 60.0, 0.3, 40.0), Grasp(150.0, 150.0, -0.5, 30.0)], EncoderConfig(228, 228, 18))
    h, w = b.center.shape
    return {
        "num_classes-0": (dataclasses.replace(b, num_classes=0), "num_classes must be >= 1, got 0"),
        "embedL-shape": (dataclasses.replace(b, embedL=b.embedL[:, :-1]), "plane embedL: shape"),
        "ratio-0": (dataclasses.replace(b, downsample_ratio=0), "downsample_ratio must be >= 1, got 0"),
        "ratio-minus-4": (dataclasses.replace(b, downsample_ratio=-4), "downsample_ratio must be >= 1, got -4"),
        "center-grid": (dataclasses.replace(b, center=np.zeros((h + 3, w), np.float32)), "plane left: shape"),
    }


@pytest.mark.parametrize(
    "call",
    [lambda b: b.validate(), decode_bundle, lambda b: group(b, CORNELL.thresholds),
     lambda b: group_candidates(b, CORNELL.thresholds)],
    ids=["validate", "decode_bundle", "group", "group_candidates"],
)
@pytest.mark.parametrize("fault", sorted(_bad_layouts()))
def test_bundle_entry_points_reject_a_layout_that_validate_rejects(fault, call):
    bundle, message = _bad_layouts()[fault]
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}"):
        call(bundle)


def test_validate_reports_a_shape_fault_before_a_value_fault_on_an_earlier_plane():
    b = random_bundle(np.random.default_rng(3))
    left = b.left.copy()
    left[0, 0, 0] = np.nan
    with pytest.raises(DimensionError, match="plane embedR: shape"):
        dataclasses.replace(b, left=left, embedR=b.embedR[:-1]).validate()


def _role_planes(**shapes):
    """A (2, 8, 8) heatmap stack with one peak, an (8, 8) embedding plane and a
    (2, 8, 8) offset stack, each replaced by zeros of the shape given for it."""
    planes = {"heatmaps": np.zeros((2, 8, 8)), "embeddings": np.zeros((8, 8)), "offsets": np.zeros((2, 8, 8))}
    planes["heatmaps"][1, 3, 3] = 0.9
    planes.update({name: np.zeros(shape) for name, shape in shapes.items()})
    return planes


@pytest.mark.parametrize("shapes, message", [
    ({"offsets": (1, 8, 8)}, "offsets: shape (1, 8, 8) does not match expected (2, 8, 8)"),  # was IndexError
    ({"offsets": (2, 2, 2)}, "offsets: shape (2, 2, 2) does not match expected (2, 8, 8)"),  # was IndexError
    ({"embeddings": (4, 4)}, "embeddings: shape (4, 4) does not match expected (8, 8)"),  # was read on a 4x4 grid
    ({"heatmaps": (1, 2, 8, 8)}, "heatmaps: expected a (C, H, W) stack or an (H, W) plane, got shape (1, 2, 8, 8)"),
], ids=["offsets-1-plane", "offsets-other-grid", "embeddings-other-grid", "heatmaps-4-d"])
def test_select_grasp_keypoints_rejects_planes_off_the_heatmap_grid(shapes, message):
    with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
        select_grasp_keypoints(**_role_planes(**shapes), k=3, ratio=4)


def test_extract_center_scores_rejects_a_center_map_that_is_not_2_d():
    left = select_grasp_keypoints(**_role_planes(), k=3, ratio=4)
    with pytest.raises(DimensionError, match=f"^{re.escape('center_map: expected an (H, W) plane, got shape (2, 2, 2)')}$"):
        extract_center_scores(left, left, np.zeros((2, 2, 2)), 4)  # was "too many values to unpack"


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


# every real-number setting (geometry._finite_number)


def _thresholds(name):
    return lambda v: GroupingThresholds(**{"rho_embed": 1.0, "rho_cen": 0.05, "tau_orient": 0.24, name: v})


def _gripper(name):
    return lambda v: GripperModel2D(**{name: v})


def _square(x):
    return float(x @ x), 2.0 * x


# Each setting: a builder that puts the value in that field, all others
# valid, and a valid value of the field, exact in float32.
_REAL_SETTINGS = {
    "Grasp.x": (lambda v: Grasp(v, 2.0, 0.5, 10.0), 1),
    "Grasp.y": (lambda v: Grasp(1.0, v, 0.5, 10.0), 2),
    "Grasp.theta": (lambda v: Grasp(1.0, 2.0, v, 10.0), 1),
    "Grasp.w": (lambda v: Grasp(1.0, 2.0, 0.5, v), 10),
    "Grasp.h": (lambda v: Grasp(1.0, 2.0, 0.5, 10.0, h=v), 5),
    "OrientedRect.width": (lambda v: OrientedRect((0.0, 0.0), v, 1.0, 0.0), 2),
    "OrientedRect.height": (lambda v: OrientedRect((0.0, 0.0), 2.0, v, 0.0), 1),
    "GroupingThresholds.rho_embed": (_thresholds("rho_embed"), 1),
    "GroupingThresholds.rho_cen": (_thresholds("rho_cen"), 0),
    "GroupingThresholds.tau_orient": (_thresholds("tau_orient"), 1),
    "MatchCriteria.max_angle_diff": (lambda v: MatchCriteria(max_angle_diff=v), 1),
    "MatchCriteria.min_jaccard": (lambda v: MatchCriteria(min_jaccard=v), 0.5),
    "MatchCriteria.eval_height": (lambda v: MatchCriteria(eval_height=v), 23),
    "GripperModel2D.finger_thickness_mm": (_gripper("finger_thickness_mm"), 17),
    "GripperModel2D.max_open_mm": (_gripper("max_open_mm"), 200),
    "GripperModel2D.finger_length_mm": (_gripper("finger_length_mm"), 40),
    "GripperModel2D.pixels_per_mm": (_gripper("pixels_per_mm"), 1),
    "ChannelStats.means": (lambda v: ChannelStats((v, 0.5, 0.5), (1.0, 1.0, 1.0), "x"), 0),
    "ChannelStats.stds": (lambda v: ChannelStats((0.5, 0.5, 0.5), (v, 1.0, 1.0), "x"), 1),
    "classify_annotation": (classify_annotation, 1),
    "gradient_check.step": (lambda v: gradient_check(_square, np.ones(2), step=v), 2.0**-14),
    "gradient_check.rel_tol": (lambda v: gradient_check(_square, np.ones(2), rel_tol=v), 1),
}
_NOT_REAL = {"bool": True, "str": "1", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
             "int-beyond-float": 10**400, "None": None}


@pytest.mark.parametrize("case", [*_NOT_REAL, "numpy"])
@pytest.mark.parametrize("setting", list(_REAL_SETTINGS))
def test_a_real_setting_takes_a_finite_real_number_only(setting, case):
    build, valid = _REAL_SETTINGS[setting]
    if case == "numpy":  # numpy's float32 form of a valid value, and its int64 form where one is valid
        for value in (np.float32(valid), np.int64(valid)):
            if value == valid:
                build(value)
    elif case == "None" and setting == "Grasp.h":  # a grasp's height is optional
        assert build(None).h is None
    else:  # a ValueError, never a TypeError or an OverflowError
        with pytest.raises(ValueError):
            build(_NOT_REAL[case])


# An integer of 5000 digits is beyond what int.__str__ prints (4300 digits by
# default); each setting still raises its own message, naming the integer by
# its bit count.
_LONG = "an integer of 16610 bits"
_OWN_MESSAGES = {
    "Grasp.x": f"non-finite grasp fields x={_LONG}, y=2.0, theta=0.5: x, y, theta must lie in the float range",
    "Grasp.y": f"non-finite grasp fields x=1.0, y={_LONG}, theta=0.5: x, y, theta must lie in the float range",
    "Grasp.theta": f"non-finite grasp fields x=1.0, y=2.0, theta={_LONG}: x, y, theta must lie in the float range",
    "Grasp.w": f"grasp width must be a positive number in the float range, got {_LONG}",
    "Grasp.h": f"grasp height must be a positive number in the float range, got {_LONG}",
    "OrientedRect.width": f"degenerate rectangle: width {_LONG}, height 1.0",
    "OrientedRect.height": f"degenerate rectangle: width 2.0, height {_LONG}",
    "GroupingThresholds.rho_embed": "thresholds must be finite nonnegative numbers, not NaN or a bool",
    "GroupingThresholds.rho_cen": "thresholds must be finite nonnegative numbers, not NaN or a bool",
    "GroupingThresholds.tau_orient": "thresholds must be finite nonnegative numbers, not NaN or a bool",
    "MatchCriteria.max_angle_diff": f"max_angle_diff must lie in (0, pi/2], got {_LONG}",
    "MatchCriteria.min_jaccard": f"min_jaccard must lie in (0, 1), got {_LONG}",
    "MatchCriteria.eval_height": f"eval_height must be a finite positive number, got {_LONG}",
    "GripperModel2D.finger_thickness_mm": f"finger_thickness_mm must be a finite positive number, got {_LONG}",
    "GripperModel2D.max_open_mm": f"max_open_mm must be a finite positive number, got {_LONG}",
    "GripperModel2D.finger_length_mm": f"finger_length_mm must be a finite positive number, got {_LONG}",
    "GripperModel2D.pixels_per_mm": f"pixels_per_mm must be a finite positive number, got {_LONG}",
    "ChannelStats.means": f"means must be finite numbers, got {_LONG}, 0.5, 0.5",
    "ChannelStats.stds": f"stds must be finite and positive, got {_LONG}, 1.0, 1.0",
    "classify_annotation": f"ratio {_LONG} outside [0, 1]",
    "gradient_check.step": f"step {_LONG} outside [1e-7, 1e-3]",
    "gradient_check.rel_tol": f"rel_tol must be finite and > 0, got {_LONG}",
}


@pytest.mark.parametrize("setting", list(_REAL_SETTINGS))
def test_an_integer_too_long_to_print_raises_the_settings_own_message(setting):
    build, _ = _REAL_SETTINGS[setting]
    with pytest.raises(ValueError, match=f"^{re.escape(_OWN_MESSAGES[setting])}$"):
        build(10**5000)


@pytest.mark.parametrize("build, message", [
    (lambda v: grasp_from_record({"x": v, "y": 2.0, "theta_deg": 10.0, "w": 8.0}),
     f"field 'x' must be a finite number, got {_LONG}"),
    (lambda v: EncoderConfig(-v, 64, 18), "image_height must be an integer >= 1, got a negative integer of 16610 bits"),
    (lambda v: GroupingThresholds(1.0, 0.05, 0.24, max_output=-v),
     "max_output must be an integer >= 1, got a negative integer of 16610 bits"),
], ids=["grasp_from_record", "EncoderConfig", "GroupingThresholds.max_output"])
def test_an_integer_too_long_to_print_is_named_by_its_bit_count(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(10**5000)


# every integer setting (geometry._integer)


def _keypoints(k=3, ratio=4):
    rng = np.random.default_rng(2)
    heat = rng.random((2, 5, 5), dtype=np.float32)
    return select_grasp_keypoints(heat, np.zeros((5, 5)), np.zeros((2, 5, 5)), k, ratio)


_BUNDLE = random_bundle(np.random.default_rng(3))
_TH = GroupingThresholds(1.0, 0.05, 0.24)


def _encoder(name):
    return lambda v: EncoderConfig(**{"image_height": 64, "image_width": 64, "num_classes": 18, name: v})


# Each setting: a builder that puts the value in that field, all others
# valid, and a valid value of the field.
_INTEGER_SETTINGS = {
    "decode_bundle.k": (lambda v: decode_bundle(_BUNDLE, k=v), 5),
    "group.k": (lambda v: group(_BUNDLE, _TH, k=v), 5),
    "group_candidates.k": (lambda v: group_candidates(_BUNDLE, _TH, k=v), 5),
    "select_grasp_keypoints.k": (lambda v: _keypoints(k=v), 3),
    "select_grasp_keypoints.ratio": (lambda v: _keypoints(ratio=v), 4),
    "extract_center_scores.ratio": (lambda v: extract_center_scores([], [], np.zeros((4, 4)), v), 4),
    "make_scene.n_objects": (lambda v: make_scene(0, v), 2),
    "run_gradcheck_battery.points": (lambda v: run_gradcheck_battery(points=v), 1),
    "measure_fps.warmup": (lambda v: measure_fps(len, ["x"], warmup=v, repeats=1), 5),
    "measure_fps.timed": (lambda v: measure_fps(len, ["x"], timed=v, repeats=1), 50),
    "measure_fps.repeats": (lambda v: measure_fps(len, ["x"], repeats=v), 1),
    "detection_loss.n_grasps": (lambda v: detection_loss(np.full((2, 3), 0.5), np.zeros((2, 3)), v), 2),
    "ground_truth_offset.ratio": (lambda v: ground_truth_offset((5, 7), v), 4),
    "angle_to_class.num_classes": (lambda v: angle_to_class(0.3, v), 18),
    "class_to_angle.num_classes": (lambda v: class_to_angle(2, v), 18),
    "class_to_angle.c": (lambda v: class_to_angle(v, 18), 3),
    "EncoderConfig.image_height": (_encoder("image_height"), 64),
    "EncoderConfig.downsample_ratio": (_encoder("downsample_ratio"), 4),
    "GroupingThresholds.max_output": (lambda v: GroupingThresholds(1.0, 0.05, 0.24, max_output=v), 10),
}
_NOT_INTEGER = {"bool": True, "float": 2.5, "str": "3", "None": None}


@pytest.mark.parametrize("case", [*_NOT_INTEGER, "numpy"])
@pytest.mark.parametrize("setting", list(_INTEGER_SETTINGS))
def test_an_integer_setting_takes_an_integer_only(setting, case):
    build, valid = _INTEGER_SETTINGS[setting]
    if case == "numpy":  # numpy's int64 form of a valid value
        build(np.int64(valid))
    else:  # a ValueError, never a TypeError
        with pytest.raises(ValueError):
            build(_NOT_INTEGER[case])


@pytest.mark.parametrize("build, message", [
    (lambda: _keypoints(ratio=0), "ratio must be an integer >= 1, got 0"),
    (lambda: _keypoints(ratio=math.nan), "ratio must be an integer >= 1, got nan"),
    (lambda: extract_center_scores([], [], np.zeros((4, 4)), 0), "ratio must be an integer >= 1, got 0"),
    (lambda: angle_to_class(0.3, 0), "num_classes must be an integer >= 1, got 0"),
    (lambda: class_to_angle(2, 0), "num_classes must be an integer >= 1, got 0"),
    (lambda: class_to_angle(2.5, 18), "class indices must be integers, got 2.5"),
    (lambda: class_to_angle(np.array([1.0, 2.0]), 18), r"class indices must be integers, got array\(\[1., 2.\]\)"),
    (lambda: make_scene(0, 0), "n_objects must be an integer >= 1, got 0"),
    (lambda: group(_BUNDLE, _TH, k=2.5), "k must be >= 1, got 2.5"),
], ids=["keypoint-ratio-0", "keypoint-ratio-nan", "center-ratio-0", "angle_to_class-0", "class_to_angle-0",
        "class-2.5", "class-float-array", "make_scene-0", "group-k-2.5"])
def test_a_count_that_gave_a_wrong_result_raises_its_own_message(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_class_to_angle_still_takes_integer_arrays_and_rejects_out_of_range_classes():
    assert class_to_angle(np.array([0, 9], dtype=np.uint8), 18).tolist() == [-math.pi / 2, 0.0]
    with pytest.raises(IndexError, match="out of range"):
        class_to_angle(np.array([0, 18]), 18)


_OUTSIDE_INT64 = {"2**63": 2**63, "-2**63-1": -(2**63) - 1, "10**400": 10**400, "10**5000": 10**5000,
                  "-10**5000": -(10**5000)}


@pytest.mark.parametrize("case", list(_OUTSIDE_INT64))
@pytest.mark.parametrize("setting", list(_INTEGER_SETTINGS))
def test_an_integer_setting_outside_int64s_range_raises_value_error(setting, case):
    build, _ = _INTEGER_SETTINGS[setting]
    # numpy holds 2**63 as a uint64, so as a class index it is out of range
    error = IndexError if (setting, case) == ("class_to_angle.c", "2**63") else ValueError
    with pytest.raises(error):  # never an OverflowError, and never a run without end
        build(_OUTSIDE_INT64[case])


# every seed (geometry._rng)


def _first_detection(seed):
    scene = make_scene(0, 2)
    return pipeline_detector(scene, CORNELL.thresholds, seed=seed)(scene.render())


_SEEDED = {
    "ideal_bundle": lambda s: ideal_bundle([Grasp(30.0, 30.0, 0.3, 20.0)], EncoderConfig(64, 64, 18), seed=s),
    "make_scene": lambda s: make_scene(s, 3),
    "run_gradcheck_battery": lambda s: run_gradcheck_battery(seed=s, points=2),
    "run_selftest": lambda s: run_selftest(seed=s),
    "pipeline_detector": _first_detection,
}
_BAD_SEEDS = {"None": None, "bool": True, "float": 1.5, "str": "3", "negative": -1, "2**63": 2**63}


@pytest.mark.parametrize("case", list(_BAD_SEEDS))
@pytest.mark.parametrize("name", list(_SEEDED))
def test_a_seed_is_an_integer_from_0_to_2_63_minus_1(name, case):
    seed = _BAD_SEEDS[case]
    message = f"seed must be an integer from 0 to 2**63 - 1, got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _SEEDED[name](seed)


@pytest.mark.parametrize("name", list(_SEEDED))
def test_a_numpy_integer_seed_gives_the_output_of_the_same_int(name):
    got, expected = _SEEDED[name](np.int64(3)), _SEEDED[name](3)
    assert got.equals(expected) if isinstance(expected, HeatmapBundle) else got == expected


# the real settings of dynamic selection and flat surfaces


def _flat(v):
    return DepthImage.flat_surface(np.full((4, 5), 900.0), v)


def _depth_file(v):
    buf = io.BytesIO()
    write_gktb(buf, [("depth", np.full((1, 4, 5), 900.0))], num_classes=0, downsample_ratio=1)
    buf.seek(0)
    return read_depth_gktb(buf, surface_mm=v)


_PREV = Grasp(100.0, 100.0, 0.0, 30.0)
_MORE_REAL_SETTINGS = {
    "select_dynamic.tau_close": (lambda v: select_dynamic(_PREV, [Grasp(103.0, 100.0, 0.0, 30.0)], v), 5),
    "DepthImage.flat_surface": (_flat, 1000),
    "read_depth_gktb.surface_mm": (_depth_file, 1000),
}


@pytest.mark.parametrize("case", [*_NOT_REAL, "numpy", "out-of-range"])
@pytest.mark.parametrize("setting", list(_MORE_REAL_SETTINGS))
def test_dynamic_and_surface_settings_take_a_finite_real_number_only(setting, case):
    build, valid = _MORE_REAL_SETTINGS[setting]
    if case == "numpy":
        for value in (np.float32(valid), np.int64(valid)):
            build(value)
    elif case == "None" and setting == "read_depth_gktb.surface_mm":  # the deepest pixel then
        assert np.all(build(None).surface == np.float32(900.0))
    elif case == "out-of-range":  # tau_close below 0; a surface at 0
        with pytest.raises(ValueError, match="must be a finite number >= 0|finite, strictly positive"):
            build(-1 if setting == "select_dynamic.tau_close" else 0)
    else:  # a ValueError, never a TypeError or an OverflowError
        with pytest.raises(ValueError):
            build(_NOT_REAL[case])


def test_tau_close_still_selects_and_a_surface_message_names_the_value():
    assert select_dynamic(_PREV, [Grasp(103.0, 100.0, 0.0, 30.0)], np.float64(5.0)).x == 103.0
    assert select_dynamic(_PREV, [Grasp(103.0, 100.0, 0.0, 30.0)], 0) is _PREV
    with pytest.raises(ValueError, match="^surface level must be finite, strictly positive, got '900'$"):
        _flat("900")
    with pytest.raises(ValueError, match="^tau_close must be a finite number >= 0, got '5'$"):
        select_dynamic(_PREV, [], "5")
