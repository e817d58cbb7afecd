"""The public API: every name the package exports resolves on ``graspkit``.

The list is written out, not read from ``graspkit/__init__.py``, so that a
name dropped there fails here.  It checks attribute access only, so it holds
for an eager or a lazy (``__getattr__``) package module alike.
"""

import importlib
import inspect

import pytest

import graspkit

PUBLIC_NAMES = {
    "bundle": [
        "BadMagicError", "DimensionError", "GKTBError", "HeaderError", "HeatmapBundle",
        "PayloadError", "ValueRangeError", "read_bundle", "read_gktb", "write_bundle",
        "write_gktb",
    ],
    "geometry": [
        "DegenerateGraspError", "Grasp", "KeypointPair", "OrientedRect", "angle_diff",
        "angle_to_class", "class_to_angle", "grasp_to_pair", "pair_to_grasp",
        "read_annotation_groups", "read_annotations", "rect_from_grasp", "rotated_iou",
        "wrap_angle", "write_annotations",
    ],
    "losses": [
        "FocalParams", "GradCheckReport", "GradientError", "LossWeights", "detection_loss",
        "gradient_check", "ground_truth_offset", "offset_loss", "pull_loss", "push_loss",
        "smooth_l1", "total_loss",
    ],
    "encoder": [
        "AnnotationError", "CapacityError", "EncodedGrasp", "EncoderConfig", "encode_targets",
        "ideal_bundle",
    ],
    "decoder": ["DetectedKeypoint", "decode_bundle", "select_grasp_keypoints", "suppress_non_maxima"],
    "grouper": [
        "GraspCandidate", "GroupingThresholds", "extract_center_scores", "filter_pairs", "group",
        "group_candidates", "orientation_filter",
    ],
    "evaluator": [
        "EvalReport", "ImageResult", "MatchCriteria", "PairingError", "evaluate_dataset",
        "is_match", "measure_fps",
    ],
    "depth": [
        "DegenerateRegionError", "DepthImage", "GraspScore", "GripperCapacityError",
        "GripperModel2D", "collision_score", "gripper_regions", "height_score", "occupancy_score",
        "read_depth_gktb", "score_grasp", "score_grasps", "select_dynamic", "write_depth_gktb",
    ],
    "binpick": [
        "BinPickLog", "Block", "SyntheticScene", "make_scene", "oracle_detector",
        "pipeline_detector", "run_bin_picking",
    ],
    "dataset": [
        "AJD_STATS", "CORNELL_STATS", "ChannelStats", "CoverageDecision", "DegenerateMaskError",
        "classify_annotation", "compose_rgd", "coverage_ratio", "invert_rgd",
    ],
    "profiles": ["AJD", "CORNELL", "PROFILES", "Profile", "get_profile"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC_NAMES))
def test_public_names_resolve_to_their_module(module):
    source = importlib.import_module(f"graspkit.{module}")
    for name in PUBLIC_NAMES[module]:
        assert getattr(graspkit, name) is getattr(source, name), name



# The decode and grouping stages run on one array core; these public
# wrappers keep their signatures.
SIGNATURES = {
    "select_grasp_keypoints": "(heatmaps, embeddings, offsets, k, ratio, role='left', suppress=True)",
    "decode_bundle": "(bundle, k=100)",
    "extract_center_scores": "(left_kps, right_kps, center_map, ratio)",
    "filter_pairs": "(left_kps, right_kps, center_scores, thresholds, num_classes)",
    "orientation_filter": "(candidates, tau_orient, num_classes)",
    "group_candidates": "(bundle, thresholds, k=100)",
    "group": "(bundle, thresholds, k=100)",
}


@pytest.mark.parametrize("name", sorted(SIGNATURES))
def test_decode_and_grouping_signatures_stay(name):
    assert str(inspect.signature(getattr(graspkit, name))) == SIGNATURES[name]


@pytest.mark.parametrize("call", ["group", "group_candidates", "decode_bundle"])
def test_k_below_one_raises(call):
    bundle = graspkit.ideal_bundle([graspkit.Grasp(60.0, 60.0, 0.0, 30.0)], graspkit.EncoderConfig(128, 128, 18))
    args = (bundle,) if call == "decode_bundle" else (bundle, graspkit.CORNELL.thresholds)
    with pytest.raises(ValueError, match=r"k must be >= 1, got 0"):
        getattr(graspkit, call)(*args, k=0)
