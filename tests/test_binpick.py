"""Seeded bin-picking simulation: protocol, determinism, pipeline detector."""

import json
from dataclasses import fields

import numpy as np
import pytest

from graspkit import (
    CORNELL,
    BinPickLog,
    Block,
    Grasp,
    GripperModel2D,
    SyntheticScene,
    make_scene,
    oracle_detector,
    pipeline_detector,
    run_bin_picking,
    score_grasps,
)

MODEL = GripperModel2D()


def test_scene_rendering_and_lookup():
    scene = make_scene(7, 4)
    depth = scene.render()
    assert depth.shape == (scene.image_height, scene.image_width)
    for b in scene.blocks:
        cx, cy = b.center
        assert scene.block_at(cx, cy) is b
        assert depth.depth[int(cy), int(cx)] == np.float32(scene.surface_mm - b.height_mm)
    assert scene.block_at(0.5, 0.5) is None
    assert depth.depth[0, 0] == np.float32(scene.surface_mm)


def test_scene_is_deterministic():
    a = make_scene(123, 5)
    b = make_scene(123, 5)
    assert a.blocks == b.blocks
    c = make_scene(124, 5)
    assert c.blocks != a.blocks


def test_oracle_detector_clears_bin():
    scene = make_scene(42, 5)
    log = run_bin_picking(scene, oracle_detector(scene), MODEL)
    assert len(log.attempts) == 5
    assert log.successes == 5
    assert log.success_rate == 100.0
    assert log.percent_cleared == 100.0
    assert scene.blocks == []


def test_always_fail_detector_stops_after_five():
    scene = make_scene(42, 5)
    stubborn = lambda depth: [Grasp(5.0, 5.0, 0.0, 30.0)]  # empty corner, occupancy 0
    log = run_bin_picking(scene, stubborn, MODEL)
    assert len(log.attempts) == 5
    assert log.successes == 0
    assert log.percent_cleared == 0.0
    assert all(not a["success"] for a in log.attempts)


def test_logs_bit_identical_per_seed():
    for seed in (0, 9, 77):
        logs = []
        for _ in range(2):
            scene = make_scene(seed, 5)
            logs.append(run_bin_picking(scene, oracle_detector(scene), MODEL).to_dict())
        assert json.dumps(logs[0], sort_keys=True) == json.dumps(logs[1], sort_keys=True)


def test_pipeline_detector_clears_bin():
    scene = make_scene(11, 5)
    detector = pipeline_detector(scene, CORNELL.thresholds, num_classes=18, seed=11)
    log = run_bin_picking(scene, detector, MODEL)
    assert log.percent_cleared == 100.0
    assert log.success_rate == 100.0


def test_attempt_log_records_scores():
    scene = make_scene(3, 2)
    log = run_bin_picking(scene, oracle_detector(scene), MODEL)
    for a in log.attempts:
        assert set(a) >= {"attempt", "grasp", "scores", "success", "block"}
        assert a["scores"]["collision"] == 1.0
        assert a["scores"]["occupancy"] > 0.5


def test_best_scored_grasp_is_attempted_first():
    scene = make_scene(5, 3)
    depth = scene.render()
    grasps = [b.oracle_grasp() for b in scene.blocks]
    ranked = score_grasps(grasps, depth, MODEL)
    log = run_bin_picking(scene, oracle_detector(scene), MODEL)
    first = log.attempts[0]["grasp"]
    assert first["x"] == ranked[0][0].x and first["y"] == ranked[0][0].y


def test_larger_object_counts_supported():
    scene = make_scene(1, 10)
    assert len(scene.blocks) == 10
    assert scene.image_width >= 4 * 120
    log = run_bin_picking(scene, oracle_detector(scene), MODEL)
    assert log.percent_cleared == 100.0


def test_make_scene_validates_count():
    with pytest.raises(ValueError):
        make_scene(0, 0)


def _scene(*blocks):
    return SyntheticScene(0, 100, 100, 1000.0, list(blocks))


def test_nearest_block_takes_the_first_of_equidistant_blocks():
    a, b = Block(0, 10, 40, 10, 10, 30.0), Block(1, 70, 40, 10, 10, 30.0)  # centers (15, 45), (75, 45)
    assert _scene(a, b).nearest_block(45.0, 45.0) is a
    assert _scene(b, a).nearest_block(45.0, 45.0) is b
    assert _scene(a, b).nearest_block(46.0, 45.0) is b
    assert _scene().nearest_block(45.0, 45.0) is None


def test_block_at_takes_the_first_of_overlapping_blocks():
    a, b = Block(0, 10, 10, 30, 30, 30.0), Block(1, 20, 20, 30, 30, 50.0)
    assert _scene(a, b).block_at(25, 25) is a
    assert _scene(b, a).block_at(25, 25) is b
    assert _scene(a, b).block_at(45, 45) is b
    assert _scene(a, b).block_at(5, 5) is None


def test_a_change_of_nearest_block_restarts_the_failure_run():
    scene = make_scene(42, 5)
    near_block_0, near_block_4 = Grasp(5.0, 5.0, 0.0, 30.0), Grasp(180.0, 350.0, 0.0, 30.0)
    calls = []

    def alternating(depth):
        calls.append(None)
        return [near_block_4 if len(calls) <= 4 and len(calls) % 2 == 0 else near_block_0]

    assert scene.nearest_block(5.0, 5.0).block_id == 0
    assert scene.nearest_block(180.0, 350.0).block_id == 4
    log = run_bin_picking(scene, alternating, MODEL)
    assert len(log.attempts) == 9
    assert not any(a["success"] for a in log.attempts)


def test_no_grasp_stops_after_five_attempts():
    scene = make_scene(42, 5)
    log = run_bin_picking(scene, lambda depth: [], MODEL)
    assert len(log.attempts) == 5
    assert all(a == {"attempt": n, "success": False, "block": None}
               for n, a in enumerate(log.attempts, 1))


def test_log_counts_come_from_its_attempts():
    scene = make_scene(42, 5)
    oracle = oracle_detector(scene)
    calls = []

    def miss_once(depth):
        calls.append(None)
        return [Grasp(5.0, 5.0, 0.0, 30.0)] if len(calls) == 1 else oracle(depth)

    log = run_bin_picking(scene, miss_once, MODEL)
    d = log.to_dict()
    assert list(d) == ["seed", "n_objects", "attempts", "successes", "cleared",
                       "success_rate", "percent_cleared"]
    assert len(log.attempts) == 6
    assert d["successes"] == d["cleared"] == sum(a["success"] for a in log.attempts) == 5
    assert (d["success_rate"], d["percent_cleared"]) == (100.0 * 5 / 6, 100.0)


def test_log_holds_no_count_besides_its_attempts():
    assert [f.name for f in fields(BinPickLog)] == ["seed", "n_objects", "attempts"]
    log = BinPickLog(seed=0, n_objects=2, attempts=[{"success": True}, {"success": False}])
    assert (log.successes, log.cleared) == (1, 1)
