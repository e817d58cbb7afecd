"""End-to-end CLI behavior: subcommands, JSON output, exit codes."""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from graspkit import (
    CORNELL,
    DepthImage,
    EncoderConfig,
    Grasp,
    ideal_bundle,
    write_annotations,
    write_bundle,
    write_depth_gktb,
    write_gktb,
)
from graspkit.cli import build_parser, main
from helpers import annotation_texts


def run_cli(*args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-m", "graspkit", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )
    return proc


def assert_data_error(proc):
    """Exit 2, empty stdout, and one stderr line: the CLI's own ``error:`` line."""
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def jsonl(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


@pytest.fixture
def annotations(tmp_path):
    path = tmp_path / "truth.jsonl"
    write_annotations(
        [Grasp(60.0, 60.0, 0.3, 30.0), Grasp(160.0, 150.0, -1.2, 24.0)], path
    )
    return path


def test_encode_decode_group_evaluate_pipeline(tmp_path, annotations):
    bundle_path = tmp_path / "b.gktb"
    proc = run_cli(
        "encode", "--annotations", str(annotations), "--profile", "cornell",
        "--image-size", "228x228", "--out", str(bundle_path), "--seed", "4",
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads(proc.stdout)
    assert meta["grasps"] == 2 and meta["planes"] == [18, 57, 57]
    assert bundle_path.exists()

    proc = run_cli("decode", "--bundle", str(bundle_path), "--profile", "cornell", "--k", "10")
    assert proc.returncode == 0, proc.stderr
    kps = jsonl(proc.stdout)
    assert {k["role"] for k in kps} == {"left", "right"}
    assert len(kps) == 4

    proc = run_cli("group", "--bundle", str(bundle_path), "--profile", "cornell")
    assert proc.returncode == 0, proc.stderr
    grasps = jsonl(proc.stdout)
    assert len(grasps) == 2
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(proc.stdout)

    proc = run_cli(
        "evaluate", "--pred", str(pred_path), "--truth", str(annotations),
        "--profile", "cornell", "--policy", "topn",
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["accuracy"] == 1.0 and report["total"] == 1


def test_group_deterministic_across_runs(tmp_path, annotations):
    bundle_path = tmp_path / "b.gktb"
    run_cli("encode", "--annotations", str(annotations), "--profile", "cornell",
            "--image-size", "228x228", "--out", str(bundle_path))
    outputs = {run_cli("group", "--bundle", str(bundle_path), "--profile", "cornell").stdout
               for _ in range(3)}
    assert len(outputs) == 1


def test_group_threshold_override_echoed(tmp_path, annotations):
    bundle_path = tmp_path / "b.gktb"
    run_cli("encode", "--annotations", str(annotations), "--profile", "cornell",
            "--image-size", "228x228", "--out", str(bundle_path))
    proc = run_cli("group", "--bundle", str(bundle_path), "--profile", "cornell",
                   "--rho-cen", "0.2", "--top", "1")
    assert proc.returncode == 0
    meta = json.loads(proc.stderr.splitlines()[-1])
    assert meta["overrides"] == {"rho_cen": 0.2, "max_output": 1}
    assert len(jsonl(proc.stdout)) == 1


def test_evaluate_missing_file_is_data_error(tmp_path, annotations):
    proc = run_cli("evaluate", "--pred", str(annotations), "--truth",
                   str(tmp_path / "missing.jsonl"), "--profile", "cornell")
    assert_data_error(proc)


def test_unknown_flag_is_usage_error():
    proc = run_cli("group", "--no-such-flag")
    assert proc.returncode == 1
    assert "usage" in proc.stderr.lower()


def test_profile_mismatch_is_data_error(tmp_path, annotations):
    bundle_path = tmp_path / "b.gktb"
    run_cli("encode", "--annotations", str(annotations), "--profile", "cornell",
            "--image-size", "228x228", "--out", str(bundle_path))
    proc = run_cli("decode", "--bundle", str(bundle_path), "--profile", "ajd")
    assert_data_error(proc)


@pytest.mark.parametrize(
    "header",
    [
        ["num_classes", "height", "width", "downsample_ratio", "planes"],
        {"num_classes": 18, "height": 57, "width": 57, "downsample_ratio": 4, "planes": 5},
    ],
    ids=["list-header", "planes-not-list"],
)
def test_group_malformed_header_is_data_error(tmp_path, header):
    blob = json.dumps(header).encode("utf-8")
    path = tmp_path / "bad.gktb"
    path.write_bytes(b"GKTB" + bytes([1]) + len(blob).to_bytes(4, "little") + blob)
    proc = run_cli("group", "--bundle", str(path), "--profile", "cornell")
    assert_data_error(proc)


def test_group_oversized_declared_plane_is_data_error(tmp_path):
    header = {"num_classes": 18, "height": 10**6, "width": 10**6, "downsample_ratio": 4,
              "planes": [{"name": "left", "count": 1000}]}
    blob = json.dumps(header).encode("utf-8")
    path = tmp_path / "huge.gktb"
    path.write_bytes(b"GKTB" + bytes([1]) + len(blob).to_bytes(4, "little") + blob + b"\0" * 64)
    proc = run_cli("group", "--bundle", str(path), "--profile", "cornell")
    assert_data_error(proc)
    assert "truncated" in proc.stderr


def _score_inputs(tmp_path):
    depth_path = tmp_path / "d.gktb"
    write_depth_gktb(DepthImage.flat_surface(np.full((60, 60), 1000.0, np.float32), 1000.0), depth_path)
    grasps_path = tmp_path / "g.jsonl"
    write_annotations([Grasp(30.0, 30.0, 0.0, 20.0)], grasps_path)
    return grasps_path, depth_path


@pytest.mark.parametrize(
    "spec",
    [
        '{"finger_thickness_mm": "x"}',
        '{"pixels_per_mm": null}',
        "[1, 2]",
        '{"finger_length_mm": Infinity}',
        '{"pixels_per_mm": NaN}',
        '{"finger_thickness_mm": true}',
        '{"finger_lenght_mm": 5}',
    ],
    ids=["text", "null", "list", "infinity", "nan", "bool", "unknown-key"],
)
def test_score_bad_gripper_spec_is_data_error(tmp_path, spec):
    grasps_path, depth_path = _score_inputs(tmp_path)
    gripper_path = tmp_path / "gripper.json"
    gripper_path.write_text(spec)
    proc = run_cli("score", "--grasps", str(grasps_path), "--depth", str(depth_path),
                   "--gripper", str(gripper_path))
    assert_data_error(proc)


@pytest.mark.parametrize(
    "record",
    [
        "[1, 2]",
        '"str"',
        '{"x": null, "y": 30, "theta_deg": 0, "w": 20}',
        '{"x": 30, "y": [30], "theta_deg": 0, "w": 20}',
        '{"x": true, "y": 30, "theta_deg": 0, "w": 20}',
        '{"x": 30, "y": 30, "theta_deg": 0, "w": 1e400}',
    ],
    ids=["list-record", "string-record", "null-field", "list-field", "bool-field", "infinite-width"],
)
def test_bad_annotation_record_is_data_error(tmp_path, annotations, record):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(record + "\n")
    _, depth_path = _score_inputs(tmp_path)
    commands = [
        ["encode", "--annotations", str(bad), "--profile", "cornell", "--image-size", "228x228",
         "--out", str(tmp_path / "b.gktb")],
        ["evaluate", "--pred", str(bad), "--truth", str(annotations), "--profile", "cornell"],
        ["score", "--grasps", str(bad), "--depth", str(depth_path)],
    ]
    for argv in commands:
        proc = run_cli(*argv)
        assert_data_error(proc)
        assert "line 1" in proc.stderr, argv[0]


def test_score_command(tmp_path):
    depth = np.full((300, 300), 1000.0, np.float32)
    depth[130:170, 130:170] = 960.0
    di = DepthImage.flat_surface(depth, 1000.0)
    depth_path = tmp_path / "d.gktb"
    write_depth_gktb(di, depth_path)
    grasps_path = tmp_path / "g.jsonl"
    write_annotations([Grasp(150.0, 150.0, 0.0, 52.0), Grasp(40.0, 40.0, 0.0, 30.0)], grasps_path)
    gripper_path = tmp_path / "gripper.json"
    gripper_path.write_text(json.dumps({"finger_thickness_mm": 17, "max_open_mm": 200,
                                        "finger_length_mm": 40, "pixels_per_mm": 1.0}))
    proc = run_cli("score", "--grasps", str(grasps_path), "--depth", str(depth_path),
                   "--gripper", str(gripper_path))
    assert proc.returncode == 0, proc.stderr
    recs = jsonl(proc.stdout)
    assert len(recs) == 2
    assert recs[0]["x"] == 150.0  # the on-block grasp outranks the empty-table one
    assert recs[0]["scores"]["collision"] == 1.0
    assert recs[0]["scores"]["total"] > recs[1]["scores"]["total"]


def test_simulate_binpick_oracle_and_determinism():
    a = run_cli("simulate-binpick", "--seed", "5", "--objects", "5", "--trials", "3")
    assert a.returncode == 0, a.stderr
    logs = jsonl(a.stdout)
    assert len(logs) == 3
    assert all(log["percent_cleared"] == 100.0 for log in logs)
    b = run_cli("simulate-binpick", "--seed", "5", "--objects", "5", "--trials", "3")
    assert a.stdout == b.stdout


def test_simulate_binpick_pipeline_detector():
    proc = run_cli("simulate-binpick", "--seed", "2", "--objects", "4", "--trials", "1",
                   "--detector", "pipeline")
    assert proc.returncode == 0, proc.stderr
    (log,) = jsonl(proc.stdout)
    assert log["percent_cleared"] == 100.0


def test_filter_jacquard(tmp_path):
    ann_dir = tmp_path / "ann"
    mask_dir = tmp_path / "masks"
    ann_dir.mkdir()
    mask_dir.mkdir()
    # image "full": grasps covering the whole mask; image "none": tiny coverage
    write_annotations([Grasp(30, 30, 0.0, 50, h=50)], ann_dir / "full.jsonl")
    write_annotations([Grasp(30, 30, 0.0, 3, h=3)], ann_dir / "none.jsonl")
    mask = np.zeros((1, 60, 60), np.float32)
    mask[0, 20:40, 20:40] = 1.0
    for name in ("full", "none"):
        write_gktb(mask_dir / f"{name}.gktb", [("mask", mask)], num_classes=0, downsample_ratio=1)
    report_path = tmp_path / "report.json"
    proc = run_cli("filter-jacquard", "--annotations", str(ann_dir), "--masks", str(mask_dir),
                   "--out", str(report_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(report_path.read_text())
    by_id = {r["imageId"]: r for r in report}
    assert by_id["full"]["decision"] == "keep"
    assert by_id["none"]["decision"] == "remove"


def test_filter_jacquard_missing_mask(tmp_path):
    ann_dir = tmp_path / "ann"
    mask_dir = tmp_path / "masks"
    ann_dir.mkdir()
    mask_dir.mkdir()
    write_annotations([Grasp(30, 30, 0.0, 10, h=10)], ann_dir / "orphan.jsonl")
    proc = run_cli("filter-jacquard", "--annotations", str(ann_dir), "--masks", str(mask_dir),
                   "--out", str(tmp_path / "r.json"))
    assert_data_error(proc)
    assert "orphan" in proc.stderr


def test_gradcheck_command():
    proc = run_cli("gradcheck", "--points", "5", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True
    assert set(report["losses"]) == {"detection", "detection_center", "offset", "pull", "push"}
    for entry in report["losses"].values():
        assert entry["max_error"] < 1e-4


def test_selftest_command():
    proc = run_cli("selftest", "--seed", "2")
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["passed"] is True


def test_filter_jacquard_non_finite_width_is_data_error(tmp_path):
    ann_dir = tmp_path / "ann"
    mask_dir = tmp_path / "masks"
    ann_dir.mkdir()
    mask_dir.mkdir()
    (ann_dir / "img.jsonl").write_text('{"x": 30, "y": 30, "theta_deg": 0, "w": 1e400, "h": 10}\n')
    mask = np.zeros((1, 60, 60), np.float32)
    mask[0, 20:40, 20:40] = 1.0
    write_gktb(mask_dir / "img.gktb", [("mask", mask)], num_classes=0, downsample_ratio=1)
    proc = run_cli("filter-jacquard", "--annotations", str(ann_dir), "--masks", str(mask_dir),
                   "--out", str(tmp_path / "r.json"))
    assert_data_error(proc)


def test_evaluate_overflowing_prediction_is_data_error(tmp_path):
    pred_path, truth_path = tmp_path / "pred.jsonl", tmp_path / "truth.jsonl"
    write_annotations([Grasp(50.0, 50.0, 0.0, 1e308)], pred_path)
    write_annotations([Grasp(50.0, 50.0, 0.0, 20.0, 10.0)], truth_path)
    proc = run_cli("evaluate", "--pred", str(pred_path), "--truth", str(truth_path),
                   "--profile", "cornell")
    assert_data_error(proc)
    assert "areas overflow" in proc.stderr


@pytest.mark.parametrize("surface", ["inf", "1e39", "nan"])
def test_score_non_finite_surface_depth_is_data_error(tmp_path, surface):
    # 1e39 is a finite double that overflows to inf in the float32 surface map
    depth_path = tmp_path / "d.gktb"
    write_depth_gktb(DepthImage.flat_surface(np.full((60, 60), 1000.0, np.float32), 1000.0), depth_path,
                     include_surface=False)
    grasps_path = tmp_path / "g.jsonl"
    write_annotations([Grasp(30.0, 30.0, 0.0, 20.0)], grasps_path)
    proc = run_cli("score", "--grasps", str(grasps_path), "--depth", str(depth_path),
                   "--surface-depth", surface)
    assert_data_error(proc)
    assert "finite" in proc.stderr


def test_evaluate_overflowing_prediction_prints_one_error_line(tmp_path):
    pred_path, truth_path = tmp_path / "pred.jsonl", tmp_path / "truth.jsonl"
    write_annotations([Grasp(50.0, 50.0, 0.0, 1e308)], pred_path)
    write_annotations([Grasp(50.0, 50.0, 0.0, 20.0, 10.0)], truth_path)
    proc = run_cli("evaluate", "--pred", str(pred_path), "--truth", str(truth_path),
                   "--profile", "cornell")
    assert_data_error(proc)


def test_over_long_integer_annotation_is_data_error(tmp_path, annotations):
    bad = tmp_path / "long.jsonl"
    bad.write_text('{"x": 1' + "0" * 5000 + ', "y": 30, "theta_deg": 0, "w": 20}\n')
    proc = run_cli("evaluate", "--pred", str(bad), "--truth", str(annotations), "--profile", "cornell")
    assert_data_error(proc)
    assert "line 1" in proc.stderr


_DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_json_is_data_error(tmp_path, annotations):
    deep_bundle = tmp_path / "deep.gktb"
    deep_bundle.write_bytes(b"GKTB" + bytes([1]) + len(_DEEP_JSON).to_bytes(4, "little")
                            + _DEEP_JSON.encode())
    deep_lines = tmp_path / "deep.jsonl"
    deep_lines.write_text(_DEEP_JSON + "\n")
    grasps_path, depth_path = _score_inputs(tmp_path)
    deep_gripper = tmp_path / "gripper.json"
    deep_gripper.write_text(_DEEP_JSON)
    commands = [
        ["group", "--bundle", str(deep_bundle), "--profile", "cornell"],
        ["evaluate", "--pred", str(deep_lines), "--truth", str(annotations), "--profile", "cornell"],
        ["score", "--grasps", str(grasps_path), "--depth", str(depth_path),
         "--gripper", str(deep_gripper)],
    ]
    for argv in commands:
        proc = run_cli(*argv)
        assert_data_error(proc)


@pytest.mark.parametrize("size", ["0x0", "0x228"])
def test_encode_zero_size_image_is_data_error(tmp_path, size):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "b.gktb"
    proc = run_cli("encode", "--annotations", str(empty), "--profile", "cornell",
                   "--image-size", size, "--out", str(out))
    assert_data_error(proc)
    assert not out.exists()


@settings(max_examples=150, deadline=None)
@given(pred=annotation_texts, truth=annotation_texts)
def test_evaluate_on_fuzzed_annotation_files_exits_cleanly(pred, truth):
    """In process: exit 0 with a JSON report, or exit 2 with one ``error:``
    line; never an uncaught exception or a warning."""
    with tempfile.TemporaryDirectory() as tmp:
        pred_path, truth_path = Path(tmp) / "pred.jsonl", Path(tmp) / "truth.jsonl"
        pred_path.write_text(pred, encoding="utf-8")
        truth_path.write_text(truth, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["evaluate", "--pred", str(pred_path), "--truth", str(truth_path), "--profile", "cornell"])
    if code == 0:
        assert err.getvalue() == ""
        assert set(json.loads(out.getvalue())) == {"total", "correct", "accuracy", "fps", "per_image"}
    else:
        assert code == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()


def test_evaluate_on_a_non_utf8_annotation_file_names_the_line(tmp_path, annotations):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(annotations.read_bytes().splitlines(keepends=True)[0] + b'{"x": 1\xff}\n')
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--pred", str(bad), "--truth", str(annotations), "--profile", "cornell"])
    assert code == 2
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: line 2: "), err.getvalue()


def run_in_process(*argv):
    """``main(argv)`` with stdout and stderr captured, as ``run_cli`` returns them."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("flag", ["--rho-embed", "--rho-cen", "--tau-orient"])
def test_group_nan_threshold_is_data_error(tmp_path, annotations, flag):
    bundle = tmp_path / "b.gktb"
    proc = run_in_process("encode", "--annotations", str(annotations), "--profile", "cornell",
                          "--image-size", "228x228", "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    proc = run_in_process("group", "--bundle", str(bundle), "--profile", "cornell", flag, "nan")
    assert_data_error(proc)
    assert "NaN" in proc.stderr


@pytest.mark.parametrize("value", ["inf", "-inf", "1e400"])
@pytest.mark.parametrize("flag", ["--rho-embed", "--rho-cen", "--tau-orient"])
def test_group_infinite_threshold_is_data_error(tmp_path, annotations, flag, value):
    bundle = tmp_path / "b.gktb"
    proc = run_in_process("encode", "--annotations", str(annotations), "--profile", "cornell",
                          "--image-size", "228x228", "--out", str(bundle))
    assert proc.returncode == 0, proc.stderr
    proc = run_in_process("group", "--bundle", str(bundle), "--profile", "cornell", f"{flag}={value}")
    assert_data_error(proc)
    assert "finite" in proc.stderr


@pytest.mark.parametrize("points", ["0", "-2"])
def test_gradcheck_without_points_is_data_error(points):
    assert_data_error(run_in_process("gradcheck", "--points", points))


@pytest.mark.parametrize("tolerance", ["0", "nan", "-1", "inf"])
def test_gradcheck_without_a_finite_positive_tolerance_is_data_error(tolerance):
    proc = run_in_process("gradcheck", "--points", "2", "--tolerance", tolerance)
    assert_data_error(proc)
    assert "rel_tol must be finite and > 0" in proc.stderr


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_simulate_binpick_without_trials_is_data_error(trials):
    proc = run_in_process("simulate-binpick", "--trials", trials)
    assert_data_error(proc)
    assert f"trials must be >= 1, got {trials}" in proc.stderr


@pytest.mark.parametrize("size", ["228", "228x", "axb", "228x228x3"])
def test_encode_malformed_image_size_is_usage_error(tmp_path, annotations, size):
    out = tmp_path / "b.gktb"
    proc = run_in_process("encode", "--annotations", str(annotations), "--profile", "cornell",
                          "--image-size", size, "--out", str(out))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"usage error: --image-size must look like 256x256, got {size!r}"]
    assert not out.exists()


def test_group_overrides_follow_the_thresholds_field_order(tmp_path, annotations):
    bundle = tmp_path / "b.gktb"
    assert run_in_process("encode", "--annotations", str(annotations), "--profile", "cornell",
                          "--image-size", "228x228", "--out", str(bundle)).returncode == 0
    proc = run_in_process("group", "--bundle", str(bundle), "--profile", "cornell", "--top", "1",
                          "--tau-orient", "0.3", "--rho-cen", "0.01", "--rho-embed", "0.5")
    assert proc.returncode == 0, proc.stderr
    overrides = json.loads(proc.stderr.splitlines()[-1])["overrides"]
    assert list(overrides.items()) == [
        ("rho_embed", 0.5), ("rho_cen", 0.01), ("tau_orient", 0.3), ("max_output", 1)
    ]
    assert len(jsonl(proc.stdout)) == 1


def test_group_help_names_the_cap_option_top():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        main(["group", "--help"])
    assert "[--top TOP]" in out.getvalue() and "--top TOP" in out.getvalue()
    assert "MAX_OUTPUT" not in out.getvalue()


def test_score_empty_grasp_file_is_data_error(tmp_path):
    _, depth_path = _score_inputs(tmp_path)
    empty = tmp_path / "none.jsonl"
    empty.write_text("\n")
    proc = run_in_process("score", "--grasps", str(empty), "--depth", str(depth_path))
    assert_data_error(proc)
    assert "no grasps in" in proc.stderr


def _jacquard_dirs(tmp_path, mask_values):
    ann_dir, mask_dir = tmp_path / "ann", tmp_path / "masks"
    ann_dir.mkdir()
    mask_dir.mkdir()
    write_annotations([Grasp(30, 30, 0.0, 50, h=50)], ann_dir / "img.jsonl")
    mask = np.zeros((1, 60, 60), np.float32)
    mask[0, 20:40, 20:40] = mask_values
    write_gktb(mask_dir / "img.gktb", [("mask", mask)], num_classes=0, downsample_ratio=1)
    return ann_dir, mask_dir


@pytest.mark.parametrize("missing", ["annotations", "masks"])
def test_filter_jacquard_missing_directory_is_data_error(tmp_path, missing):
    ann_dir, mask_dir = _jacquard_dirs(tmp_path, 1.0)
    dirs = {"annotations": ann_dir, "masks": mask_dir}
    dirs[missing] = tmp_path / "absent"
    out = tmp_path / "r.json"
    proc = run_in_process("filter-jacquard", "--annotations", str(dirs["annotations"]),
                          "--masks", str(dirs["masks"]), "--out", str(out))
    assert_data_error(proc)
    assert "absent does not exist" in proc.stderr
    assert not out.exists()


def test_filter_jacquard_non_binary_mask_is_data_error(tmp_path):
    ann_dir, mask_dir = _jacquard_dirs(tmp_path, 0.5)
    proc = run_in_process("filter-jacquard", "--annotations", str(ann_dir), "--masks", str(mask_dir),
                          "--out", str(tmp_path / "r.json"))
    assert_data_error(proc)
    assert "non-binary values [0.5]" in proc.stderr


def test_filter_jacquard_record_is_the_id_then_the_decision_fields(tmp_path):
    ann_dir, mask_dir = _jacquard_dirs(tmp_path, 1.0)
    out = tmp_path / "r.json"
    proc = run_in_process("filter-jacquard", "--annotations", str(ann_dir), "--masks", str(mask_dir),
                          "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (rec,) = json.loads(out.read_text())
    assert list(rec.items()) == [("imageId", "img"), ("ratio", 1.0), ("decision", "keep")]
    assert jsonl(proc.stdout) == [rec]


def test_gradcheck_tolerance_that_overflows_the_floor_is_data_error():
    proc = run_in_process("gradcheck", "--points", "2", "--tolerance", "1e-320")
    assert_data_error(proc)
    assert "rel_tol 1e-320 is too small" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("gradcheck", "--points", "1", "--step", "1e-5"),
    ("group", "--bundle", "b.gktb", "--profile", "cornell", "--k", "10"),
])
def test_removed_flags_are_usage_errors(argv):
    proc = run_in_process(*argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"usage error: unrecognized arguments: {' '.join(argv[-2:])}"]


def test_removed_flags_keep_their_reported_values(tmp_path, annotations):
    bundle = tmp_path / "b.gktb"
    assert run_in_process("encode", "--annotations", str(annotations), "--profile", "cornell",
                          "--image-size", "228x228", "--out", str(bundle)).returncode == 0
    proc = run_in_process("group", "--bundle", str(bundle), "--profile", "cornell")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.splitlines()[-1])["k"] == 100
    report = json.loads(run_in_process("gradcheck", "--points", "1").stdout)
    assert report["step"] == 1e-05


@pytest.mark.parametrize("planes", [(("mask", 2),), (("mask", 1), ("other", 1))],
                         ids=["one-plane-of-count-2", "two-planes"])
def test_filter_jacquard_mask_must_be_one_plane_of_count_one(tmp_path, planes):
    ann_dir, mask_dir = _jacquard_dirs(tmp_path, 1.0)
    mask = np.zeros((1, 60, 60), np.float32)
    mask[0, 20:40, 20:40] = 1.0
    write_gktb(mask_dir / "img.gktb", [(name, np.repeat(mask, count, axis=0)) for name, count in planes],
               num_classes=0, downsample_ratio=1)
    out = tmp_path / "r.json"
    proc = run_in_process("filter-jacquard", "--annotations", str(ann_dir), "--masks", str(mask_dir),
                          "--out", str(out))
    assert_data_error(proc)
    assert "must hold one plane of count 1" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("planes", [(("depth", 2),), (("depth", 1), ("surface", 2)), (("depth", 1), ("mask", 1))],
                         ids=["depth-count-2", "surface-count-2", "extra-plane"])
def test_score_depth_file_must_hold_depth_and_surface_of_count_one(tmp_path, planes):
    grasps_path, depth_path = _score_inputs(tmp_path)
    write_gktb(depth_path, [(name, np.full((count, 60, 60), 1000.0)) for name, count in planes],
               num_classes=0, downsample_ratio=1)
    proc = run_in_process("score", "--grasps", str(grasps_path), "--depth", str(depth_path))
    assert_data_error(proc)
    assert "plane" in proc.stderr


# The exit-code contract in one table.  Each case starts from a valid argv
# per subcommand ({in} and {out} are the case's input and output
# directories) and changes one thing: an option's value, or one file it
# names.  Every case must exit 0, 1 or 2 without a traceback; an error
# prints one "usage error:" (exit 1) or "error:" (exit 2) line and nothing
# on stdout, and a success prints only JSON lines.
_VALID_ARGV = {
    "encode": {"--annotations": "{in}/truth.jsonl", "--profile": "cornell", "--image-size": "64x64",
               "--out": "{out}/b.gktb", "--seed": "0"},
    "decode": {"--bundle": "{in}/b.gktb", "--profile": "cornell", "--k": "10"},
    "group": {"--bundle": "{in}/b.gktb", "--profile": "cornell", "--top": "5", "--rho-embed": "0.5",
              "--rho-cen": "0.1", "--tau-orient": "0.3", "--image-id": "img"},
    "evaluate": {"--pred": "{in}/pred.jsonl", "--truth": "{in}/truth.jsonl", "--profile": "cornell",
                 "--policy": "topn"},
    "score": {"--grasps": "{in}/truth.jsonl", "--depth": "{in}/d.gktb", "--gripper": "{in}/gripper.json",
              "--surface-depth": "1000"},
    "simulate-binpick": {"--seed": "0", "--objects": "1", "--trials": "1", "--detector": "oracle",
                         "--profile": "cornell"},
    "filter-jacquard": {"--annotations": "{in}/ann", "--masks": "{in}/masks", "--out": "{out}/r.json"},
    "gradcheck": {"--seed": "0", "--points": "1", "--tolerance": "1e-4"},
    "selftest": {"--seed": "0"},
}
_HOSTILE_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e-320", "1e308", str(2**70)]
# each unit of these is work, so they get only the values that fail at once
_WORK_COUNTS = {"--points", "--objects", "--trials"}
_SIZES = ["1x1", "512x512", "0x0", "0x64", "-1x64", "64", "64x64x64", "axb", "nanx64", "1e3x64",
          "64.5x64", "x", ""]
# (subcommand, a file it reads or writes, what is done to that file)
_DAMAGED_FILES = [
    *((cmd, path, how)
      for cmd, path in [("encode", "{in}/truth.jsonl"), ("decode", "{in}/b.gktb"), ("group", "{in}/b.gktb"),
                        ("evaluate", "{in}/pred.jsonl"), ("evaluate", "{in}/truth.jsonl"),
                        ("score", "{in}/truth.jsonl"), ("score", "{in}/d.gktb"),
                        ("score", "{in}/gripper.json"), ("filter-jacquard", "{in}/ann/img.jsonl"),
                        ("filter-jacquard", "{in}/masks/img.gktb")]
      for how in ["truncated", "empty", "non-utf8", "directory"]),
    ("encode", "{out}/b.gktb", "directory"),
    ("filter-jacquard", "{out}/r.json", "directory"),
    ("filter-jacquard", "{in}/ann", "file"),
    ("filter-jacquard", "{in}/masks", "file"),
]
_OPTION_CASES = [
    *((cmd, opt, value) for cmd, argv in _VALID_ARGV.items() for opt in argv for value in _HOSTILE_NUMBERS
      if not (opt in _WORK_COUNTS and value == str(2**70))),
    *(("encode", "--image-size", size) for size in _SIZES),
]


@pytest.fixture
def contract_dirs(tmp_path, monkeypatch):
    """Valid inputs for every subcommand in ``in``; ``out`` is the working directory."""
    src, out = tmp_path / "in", tmp_path / "out"
    (src / "ann").mkdir(parents=True)
    (src / "masks").mkdir()
    out.mkdir()
    grasps = [Grasp(20.0, 20.0, 0.3, 12.0, 8.0), Grasp(44.0, 40.0, -1.2, 10.0, 8.0)]
    for name in ("truth.jsonl", "pred.jsonl", "ann/img.jsonl"):
        write_annotations(grasps, src / name)
    write_bundle(ideal_bundle(grasps, EncoderConfig(64, 64, CORNELL.num_classes)), src / "b.gktb")
    flat = np.full((60, 60), 1000.0, np.float32)
    write_depth_gktb(DepthImage.flat_surface(flat, 1000.0), src / "d.gktb", include_surface=False)
    (src / "gripper.json").write_text('{"finger_thickness_mm": 5}\n')
    mask = np.zeros((1, 64, 64), np.float32)
    mask[0, 10:50, 10:50] = 1.0
    write_gktb(src / "masks/img.gktb", [("mask", mask)], num_classes=0, downsample_ratio=1)
    monkeypatch.chdir(out)
    return {"in": str(src), "out": str(out)}


def _run_contract_case(cmd, dirs, **changed):
    argv = {opt: value.format(**dirs) for opt, value in _VALID_ARGV[cmd].items()}
    argv.update(changed)
    proc = run_in_process(cmd, *(word for pair in argv.items() for word in pair))
    assert proc.returncode in (0, 1, 2), proc
    assert "Traceback" not in proc.stderr
    if proc.returncode:
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()], proc.stderr
        assert proc.stderr.startswith("usage error:" if proc.returncode == 1 else "error:"), proc.stderr
    else:
        for line in proc.stdout.splitlines():
            json.loads(line)
    return proc


def _damage(path, how):
    data = path.read_bytes() if path.is_file() else b""
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()
    if how == "directory":
        path.mkdir()
    elif how == "truncated":
        path.write_bytes(data[: len(data) // 2])
    elif how == "non-utf8":  # bytes 9 and 10 are in a GKTB header or a JSON text
        path.write_bytes(data[:9] + b"\xff\xfe" + data[11:])
    else:  # "empty", or "file" where a directory belongs
        path.write_bytes(b"")


def test_contract_table_covers_every_option_of_every_subcommand():
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        cmd: {opt for action in parser._actions for opt in action.option_strings if opt != "-h" and opt != "--help"}
        for cmd, parser in commands.choices.items()
    }
    assert options == {cmd: set(argv) for cmd, argv in _VALID_ARGV.items()}


@pytest.mark.parametrize("cmd", list(_VALID_ARGV))
def test_contract_valid_argv_succeeds(contract_dirs, cmd):
    assert _run_contract_case(cmd, contract_dirs).returncode == 0


@pytest.mark.parametrize("cmd, option, value", _OPTION_CASES,
                         ids=[f"{cmd} {opt}={value}" for cmd, opt, value in _OPTION_CASES])
def test_contract_hostile_option_values(contract_dirs, cmd, option, value):
    _run_contract_case(cmd, contract_dirs, **{option: value})


@pytest.mark.parametrize("cmd, path, how", _DAMAGED_FILES,
                         ids=[f"{cmd} {path}={how}" for cmd, path, how in _DAMAGED_FILES])
def test_contract_damaged_files(contract_dirs, cmd, path, how):
    _damage(Path(path.format(**contract_dirs)), how)
    _run_contract_case(cmd, contract_dirs)


def test_a_key_error_inside_a_command_propagates(monkeypatch, annotations):
    # no input raises KeyError, so one is a library fault and is not turned
    # into an "error:" line and exit code 2
    def missing(name):
        raise KeyError(name)

    monkeypatch.setattr("graspkit.cli.get_profile", missing)
    with pytest.raises(KeyError, match="cornell"):
        main(["evaluate", "--pred", str(annotations), "--truth", str(annotations), "--profile", "cornell"])


# An input that passes every rule can still ask for more memory than exists
# (`simulate-binpick --objects 1000000000000`, `encode --image-size
# 1000000x1000000`); the callee is made to raise, so no test allocates it.
@pytest.mark.parametrize("callee, argv, exc, line", [
    ("graspkit.binpick.make_scene", ["simulate-binpick", "--objects", "1000000000000"],
     MemoryError("Unable to allocate 7.28 TiB"), "error: Unable to allocate 7.28 TiB"),
    ("graspkit.encoder.ideal_bundle", ["encode", "--profile", "cornell", "--image-size", "1000000x1000000"],
     MemoryError(), "error: MemoryError"),
], ids=["simulate-binpick", "encode"])
def test_running_out_of_memory_is_a_data_error(monkeypatch, capsys, tmp_path, annotations, callee, argv, exc, line):
    def allocate(*args, **kwargs):
        raise exc

    monkeypatch.setattr(callee, allocate)
    if argv[0] == "encode":
        argv = [*argv, "--annotations", str(annotations), "--out", str(tmp_path / "b.gktb")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [line]


@pytest.mark.parametrize("cmd", ["group", "decode"])
def test_a_header_ratio_outside_int64_is_data_error(tmp_path, cmd):
    path = tmp_path / "b.gktb"
    write_bundle(ideal_bundle([Grasp(30.0, 30.0, 0.3, 20.0)], EncoderConfig(64, 64, CORNELL.num_classes)), path)
    data = path.read_bytes()
    size = int.from_bytes(data[5:9], "little")
    header = json.loads(data[9:9 + size])
    header["downsample_ratio"] = 10**400
    blob = json.dumps(header).encode("utf-8")
    path.write_bytes(data[:5] + len(blob).to_bytes(4, "little") + blob + data[9 + size:])
    proc = run_cli(cmd, "--bundle", str(path), "--profile", "cornell")
    assert_data_error(proc)
    assert "Traceback" not in proc.stderr

