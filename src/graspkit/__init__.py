"""graspkit: a grasp-keypoint detection pipeline without the backbone.

Library surface: ground-truth target encoding, the full loss suite with
analytic gradients, heatmap decoding and keypoint grouping into ranked
grasps, the rectangle evaluation metric, depth-image grasp scoring, a
seeded bin-picking simulator, dataset filtering tools and the GKTB tensor
file format that stands in for a trained network.

``import graspkit`` loads no submodule: the first use of an exported name
imports the module that defines it (PEP 562), so a short-lived process
pays only for the modules it touches.
"""

import importlib

__version__ = "0.1.0"

# the names the package exports, by the module that defines them
_EXPORTS = {
    "bundle": (
        "BadMagicError", "DimensionError", "GKTBError", "HeaderError", "HeatmapBundle",
        "PayloadError", "ValueRangeError", "read_bundle", "read_gktb", "write_bundle",
        "write_gktb",
    ),
    "geometry": (
        "DegenerateGraspError", "Grasp", "KeypointPair", "OrientedRect", "angle_diff",
        "angle_to_class", "class_to_angle", "grasp_to_pair", "pair_to_grasp",
        "read_annotation_groups", "read_annotations", "rect_from_grasp", "rotated_iou",
        "wrap_angle", "write_annotations",
    ),
    "losses": (
        "FocalParams", "GradCheckReport", "GradientError", "LossWeights", "detection_loss",
        "gradient_check", "ground_truth_offset", "offset_loss", "pull_loss", "push_loss",
        "smooth_l1", "total_loss",
    ),
    "encoder": (
        "AnnotationError", "CapacityError", "EncodedGrasp", "EncoderConfig", "encode_targets",
        "ideal_bundle",
    ),
    "decoder": ("DetectedKeypoint", "decode_bundle", "select_grasp_keypoints", "suppress_non_maxima"),
    "grouper": (
        "GraspCandidate", "GroupingThresholds", "extract_center_scores", "filter_pairs", "group",
        "group_candidates", "orientation_filter",
    ),
    "evaluator": (
        "EvalReport", "ImageResult", "MatchCriteria", "PairingError", "evaluate_dataset",
        "is_match", "measure_fps",
    ),
    "depth": (
        "DegenerateRegionError", "DepthImage", "GraspScore", "GripperCapacityError",
        "GripperModel2D", "collision_score", "gripper_regions", "height_score", "occupancy_score",
        "read_depth_gktb", "score_grasp", "score_grasps", "select_dynamic", "write_depth_gktb",
    ),
    "binpick": (
        "BinPickLog", "Block", "SyntheticScene", "make_scene", "oracle_detector",
        "pipeline_detector", "run_bin_picking",
    ),
    "dataset": (
        "AJD_STATS", "CORNELL_STATS", "ChannelStats", "CoverageDecision", "DegenerateMaskError",
        "classify_annotation", "compose_rgd", "coverage_ratio", "invert_rgd",
    ),
    "profiles": ("AJD", "CORNELL", "PROFILES", "Profile", "get_profile"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    try:
        module = _OWNER[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
