"""The public API: every name the package exports resolves on ``graspkit``.

The list is written out, not read from ``graspkit/__init__.py``, so that a
name dropped there fails here.  The package module is lazy (a PEP 562
``__getattr__``), so the import-footprint tests below pin which submodules
``import graspkit``, ``import graspkit.cli`` and each CLI command load.
"""

import ast
import importlib
import inspect
import subprocess
import sys

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


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from graspkit import *", namespace)
    expected = {name for names in PUBLIC_NAMES.values() for name in names}
    assert len(expected) == 97
    assert set(namespace) - {"__builtins__"} == expected
    assert expected <= set(dir(graspkit))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        graspkit.no_such_name
    assert not hasattr(graspkit, "no_such_name")


# The import footprint, each in a fresh interpreter: the package module loads
# no submodule, the CLI loads what its parser and every command need, and a
# command adds only the modules it runs.
CLI_MODULES = {"graspkit", "bundle", "cli", "dataset", "decoder", "geometry", "grouper", "profiles"}
COMMAND_MODULES = {"group": set(), "decode": set(), "encode": {"encoder", "losses"}, "evaluate": {"evaluator"}}


def _loaded_after(code):
    """The graspkit modules loaded once ``code`` has run in a fresh interpreter."""
    report = "import sys; print(sorted(m.partition('.')[2] or m for m in sys.modules if m.split('.')[0] == 'graspkit'))"
    proc = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_import_graspkit_loads_no_submodule():
    assert _loaded_after("import graspkit") == {"graspkit"}


def test_import_cli_loads_only_what_every_command_needs():
    assert _loaded_after("import graspkit.cli") == CLI_MODULES


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command):
    annotations, bundle = tmp_path / "a.jsonl", tmp_path / "b.gktb"
    graspkit.write_annotations([graspkit.Grasp(60.0, 60.0, 0.3, 30.0)], annotations)
    graspkit.write_bundle(graspkit.ideal_bundle(graspkit.read_annotations(annotations),
                                                graspkit.EncoderConfig(128, 128, 18)), bundle)
    argv = {
        "group": ["group", "--bundle", str(bundle), "--profile", "cornell"],
        "decode": ["decode", "--bundle", str(bundle), "--profile", "cornell"],
        "encode": ["encode", "--annotations", str(annotations), "--profile", "cornell",
                   "--image-size", "128x128", "--out", str(tmp_path / "out.gktb")],
        "evaluate": ["evaluate", "--pred", str(annotations), "--truth", str(annotations), "--profile", "cornell"],
    }[command]
    code = ("import contextlib, io\nfrom graspkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")
    assert _loaded_after(code) == CLI_MODULES | COMMAND_MODULES[command]



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
