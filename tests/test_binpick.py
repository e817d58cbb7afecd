"""Seeded bin-picking simulation: protocol, determinism, pipeline detector."""

import hashlib
import json
import math
import pickle
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import (
    CORNELL,
    AnnotationError,
    BinPickLog,
    Block,
    DepthImage,
    EncoderConfig,
    Grasp,
    GripperModel2D,
    SyntheticScene,
    encode_targets,
    make_scene,
    oracle_detector,
    pipeline_detector,
    run_bin_picking,
    score_grasps,
)
from graspkit import binpick, depth
from graspkit.geometry import grasp_to_record
from helpers import assert_flat_plane, run_bin_picking_reference

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


# sha256 of the sorted-key JSON log of one 25-object trial per seed; the
# oracle and the pipeline detector give the same log on these seeds.
GOLDEN_LOGS = {
    0: "1cd1f1b2c7362dfbf9fad72225c75b0dbf7bc990a80cf535bd62cd46888e4efb",
    1: "91d4e9ca7e7a43e3b9d0bf4df9bdae650cb7595d68d263a2cca8694fbee4674d",
    2: "3c433bcd9f1cf4e41ecc50d79f4f20dc0343afedb1b53e9fc40c8fe00e5f230f",
    3: "b6f9f8919d5ba2b2df0fea148296bf5644368a790cfd1611ea71a61ed275c5a1",
    4: "552b8a4a72392bca3236b947709410c2265d505ef32259e7acfdc6a79916943c",
    5: "8ce7f854a08083899eed3f767b1463c2ee5199c8e88ae848ba1a8d4e51316d35",
    6: "836435acaed979bcdb0f8f69f8cd51fa3c18c7df060b6938ffcf92bd8fea933d",
    7: "d9873be6678f25267c9801fb9f18a6f18228a91b171f2eb50858e8247685d41c",
}


@pytest.mark.parametrize("seed", list(GOLDEN_LOGS))
@pytest.mark.parametrize("detector", ["oracle", "pipeline"])
def test_bin_pick_logs_match_their_golden_digests(detector, seed):
    scene = make_scene(seed, 25)
    if detector == "oracle":
        detect = oracle_detector(scene)
    else:
        detect = pipeline_detector(scene, CORNELL.thresholds, seed=seed)
    log = run_bin_picking(scene, detect, MODEL).to_dict()
    assert hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest() == GOLDEN_LOGS[seed]


def _reference_render(scene):
    """A fresh plane painted pixel set by pixel set: each block covers the
    image pixels its ``contains`` test admits, later blocks over earlier."""
    shape = (scene.image_height, scene.image_width)
    rows, cols = np.indices(shape)
    depth = np.full(shape, np.float32(scene.surface_mm))
    for b in scene.blocks:
        inside = (b.x0 <= cols) & (cols < b.x0 + b.size_x) & (b.y0 <= rows) & (rows < b.y0 + b.size_y)
        depth[inside] = np.float32(scene.surface_mm - b.height_mm)
    return depth


@st.composite
def _scenes(draw):
    """Scenes of up to 8 blocks that may overlap each other or reach past
    any image edge, or lie wholly off the image; every block is lower than
    the surface."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    surface = draw(st.floats(1.0, 5000.0))
    blocks = [
        Block(i, draw(st.integers(-50, 60)), draw(st.integers(-50, 60)),
              draw(st.integers(0, 50)), draw(st.integers(0, 50)),
              surface * draw(st.floats(0.0, 0.99)))
        for i in range(draw(st.integers(0, 8)))
    ]
    return SyntheticScene(0, height, width, surface, blocks)


@settings(max_examples=300, deadline=None)
@given(_scenes())
def test_render_matches_the_reference_painting_bit_for_bit(scene):
    image = scene.render()
    reference = _reference_render(scene)
    assert image.depth.dtype == np.float32 and image.depth.tobytes() == reference.tobytes()
    assert image.surface.tobytes() == np.full(image.shape, np.float32(scene.surface_mm)).tobytes()


def test_renders_give_a_read_only_surface_plane_and_paint_a_fresh_depth_plane():
    scene = make_scene(0, 4)
    first, second = scene.render(), scene.render()
    for image in (first, second):
        assert_flat_plane(image.surface, image.shape, scene.surface_mm)
    with pytest.raises(ValueError, match="read-only"):
        first.surface[0, 0] = 1.0
    assert first.depth is not second.depth
    first.depth[0, 0] = 1.0  # each depth plane is the image's own
    assert second.depth[0, 0] == scene.render().depth[0, 0] == np.float32(scene.surface_mm)


def test_a_new_surface_level_or_image_size_renders_a_new_plane():
    scene = _scene(Block(0, 10, 10, 20, 20, 30.0))
    assert np.all(scene.render().surface == np.float32(1000.0))
    scene.surface_mm = 800.0
    image = scene.render()
    assert image.surface.shape == (100, 100) and np.all(image.surface == np.float32(800.0))
    assert image.depth[20, 20] == np.float32(770.0)
    scene.image_width = 60
    image = scene.render()
    assert image.surface.shape == image.depth.shape == (100, 60)
    assert np.all(image.surface == np.float32(800.0))


@pytest.mark.parametrize("surface, height", [
    (0.0, 30.0), (-1.0, 30.0), (math.nan, 30.0), (math.inf, 30.0), (1000.0, 1000.0), (1000.0, 1500.0),
], ids=["surface-0", "surface--1", "surface-nan", "surface-inf", "block-as-tall", "block-taller"])
def test_a_bad_surface_or_block_raises_on_every_render(surface, height):
    scene = _scene(Block(0, 10, 10, 20, 20, height))
    scene.surface_mm = surface
    for _ in range(3):
        with pytest.raises(ValueError, match="finite, strictly positive"):
            scene.render()


@pytest.mark.parametrize("height", ["30", None, True, math.nan])
def test_a_block_whose_height_is_not_a_finite_number_raises_value_error_when_built(height):
    with pytest.raises(ValueError, match=rf"^height_mm must be a finite number, got {re.escape(repr(height))}$"):
        Block(0, 10, 10, 20, 20, height)


@pytest.mark.parametrize("surface", [None, "1000"])
def test_a_surface_level_that_is_not_a_number_raises_value_error_on_every_render(surface):
    scene = SyntheticScene(0, 100, 100, surface, [Block(0, 10, 10, 20, 20, 30.0)])
    for _ in range(2):
        with pytest.raises(ValueError, match=rf"^surface level must be finite, strictly positive, got {surface!r}$"):
            scene.render()


@pytest.mark.parametrize("height", [2.5, True])
def test_a_non_integer_image_height_raises_value_error_on_render(height):
    with pytest.raises(ValueError, match=rf"^image_height must be an integer, got {height}$"):
        SyntheticScene(0, height, 100, 1000.0, []).render()


def test_a_non_integer_image_width_set_after_construction_raises_value_error_on_render():
    scene = _scene(Block(0, 10, 10, 20, 20, 30.0))
    scene.image_width = 60.0
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^image_width must be an integer, got 60\.0$"):
            scene.render()


@pytest.mark.parametrize("name", ["x0", "y0", "size_x", "size_y"])
def test_a_block_with_a_non_integer_corner_or_extent_raises_value_error(name):
    values = {"block_id": 0, "x0": 10, "y0": 10, "size_x": 20, "size_y": 20, "height_mm": 30.0, name: 10.5}
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got 10\.5$"):
        Block(**values)
    assert Block(**{**values, name: np.int64(10)}).contains(15, 15)


def test_a_block_builds_its_oracle_grasp_once_and_keeps_its_value_semantics():
    block, twin = Block(3, 10, 20, 30, 40, 25.0), Block(3, 10, 20, 30, 40, 25.0)
    values, digest, shown = [getattr(block, f.name) for f in fields(Block)], hash(block), repr(block)
    grasp = block.oracle_grasp()
    assert grasp is block.oracle_grasp() and grasp == twin.oracle_grasp()
    assert [f.name for f in fields(block)] == ["block_id", "x0", "y0", "size_x", "size_y", "height_mm"]
    assert [getattr(block, f.name) for f in fields(Block)] == values
    assert block == twin and hash(block) == hash(twin) == digest and repr(block) == repr(twin) == shown
    back = pickle.loads(pickle.dumps(block))
    assert back == block and hash(back) == digest and repr(back) == shown
    assert back.oracle_grasp() == grasp and back.oracle_grasp() is back.oracle_grasp()


def _scene_on_cells(seed, n_objects, cell_px):
    """make_scene's rule with ``cell_px`` cells in place of its 120 px ones."""
    rng = np.random.default_rng(seed)
    grid = max(3, math.ceil(math.sqrt(n_objects)))
    cells = rng.permutation(grid * grid)[:n_objects]
    blocks = []
    for bid, cell in enumerate(sorted(int(c) for c in cells)):
        crow, ccol = divmod(cell, grid)
        cy = crow * cell_px + cell_px // 2 + int(rng.integers(-6, 7))
        cx = ccol * cell_px + cell_px // 2 + int(rng.integers(-6, 7))
        size_x, size_y = 2 * int(rng.integers(14, 23)), 2 * int(rng.integers(14, 23))
        height = float(rng.uniform(20.0, 60.0))
        blocks.append(Block(bid, cx - size_x // 2, cy - size_y // 2, size_x, size_y, height))
    return SyntheticScene(seed, grid * cell_px, grid * cell_px, 1000.0, blocks)


@pytest.mark.parametrize("seed", [0, 1])
def test_the_cell_scene_helper_is_make_scenes_rule(seed):
    assert _scene_on_cells(seed, 25, 120) == make_scene(seed, 25)


@pytest.mark.parametrize("cell_px, seed", [(96, 1), (80, 0)])
def test_feasible_first_clears_a_scene_whose_top_grasp_grazes_a_neighbour(cell_px, seed):
    # The plain-sum ranking puts a grasp whose finger grazes a taller
    # neighbour first (collision < 1): attempting it cleared 15 of 25 blocks
    # in 20 attempts on 96 px cells, seed 1, and 12 of 25 in 17 on 80 px
    # cells, seed 0.
    scene = _scene_on_cells(seed, 25, cell_px)
    log = run_bin_picking(scene, oracle_detector(scene), MODEL)
    assert (log.cleared, len(log.attempts)) == (25, 25)
    assert not scene.blocks


def test_an_attempt_takes_the_first_feasible_grasp_else_the_top_one():
    block = Block(0, 40, 40, 20, 20, 30.0)
    crushing = Grasp(50.0, 50.0, 0.0, 8.0)  # fingers on the block: collision 0.84, total 1.87
    clear = Grasp(50.0, 50.0, 0.0, 32.0)  # collision 1, occupancy 0.65, total 1.68
    off_block = Grasp(20.0, 20.0, 0.0, 32.0)  # total 0
    scene = _scene(block)
    ranked = [g for g, _ in score_grasps([off_block, clear, crushing], scene.render(), MODEL)]
    assert ranked == [crushing, clear, off_block]
    log = run_bin_picking(scene, lambda _: [off_block, clear, crushing], MODEL)
    assert log.to_dict()["attempts"] == [
        {"attempt": 1, "grasp": grasp_to_record(clear), "scores": log.attempts[0]["scores"],
         "success": True, "block": 0}]
    assert log.attempts[0]["scores"]["collision"] == 1.0
    scene = _scene(block)  # nothing feasible: the top-scored grasp, five times
    log = run_bin_picking(scene, lambda _: [off_block, crushing], MODEL)
    assert [a["grasp"] for a in log.attempts] == [grasp_to_record(crushing)] * 5
    assert log.cleared == 0


def _accepts(scene):
    """Whether encode_targets takes the scene's oracle annotations, as the
    pipeline detector encodes them (no keypoint off the image)."""
    config = EncoderConfig(scene.image_height, scene.image_width, CORNELL.num_classes)
    try:
        encode_targets([b.oracle_grasp() for b in scene.blocks], config)
    except AnnotationError:
        return False
    return True


def _detector(name, scene, seed):
    if name == "oracle":
        return oracle_detector(scene)
    return pipeline_detector(scene, CORNELL.thresholds, seed=seed)


# The pipeline detector runs where encode_targets takes the scene: on 48 and
# 40 px cells some block's oracle grasp puts a keypoint off the image.
@pytest.mark.parametrize("cell_px, detectors", [
    (120, ("oracle", "pipeline")), (96, ("oracle", "pipeline")), (80, ("oracle", "pipeline")),
    (64, ("oracle", "pipeline")), (48, ("oracle",)), (40, ("oracle",)),
])
def test_bin_pick_logs_equal_the_memo_free_reference_loop(cell_px, detectors):
    # score_grasps reuses a grasp's score while its window is unchanged; on
    # small cells a block's removal changes its neighbours' windows
    for seed in range(8):
        assert _accepts(_scene_on_cells(seed, 25, cell_px)) == ("pipeline" in detectors)
        for name in detectors:
            scene, reference = _scene_on_cells(seed, 25, cell_px), _scene_on_cells(seed, 25, cell_px)
            got = run_bin_picking(scene, _detector(name, scene, seed), MODEL).to_dict()
            want = run_bin_picking_reference(reference, _detector(name, reference, seed), MODEL).to_dict()
            assert got == want, (name, seed)


def _rasterizations(monkeypatch, scene):
    """``_gripper_masks`` calls of an oracle trial on ``scene``, with a memo
    that holds only one grasp on a 2x2 image when the trial starts."""
    score_grasps([Grasp(0.5, 0.5, 0.0, 1.0)], DepthImage(np.full((2, 2), 990.0), np.full((2, 2), 1000.0)), MODEL)
    calls = []
    masks = depth._gripper_masks
    monkeypatch.setattr(depth, "_gripper_masks", lambda *args: calls.append(None) or masks(*args))
    log = run_bin_picking(scene, oracle_detector(scene), MODEL)
    return len(calls), log


@pytest.mark.parametrize("seed", range(8))
def test_a_25_object_trial_rasterizes_each_grasp_once(monkeypatch, seed):
    # 25 attempts score 25 + 24 + ... + 1 grasps; only the first attempt's
    # 25 are rasterized, since no block's removal reaches another's window
    calls, log = _rasterizations(monkeypatch, make_scene(seed, 25))
    assert (calls, len(log.attempts), log.cleared) == (25, 25, 25)


def test_a_trial_on_40_px_cells_rasterizes_again_where_a_removal_changed_a_window(monkeypatch):
    calls, log = _rasterizations(monkeypatch, _scene_on_cells(0, 25, 40))
    assert calls > 25


@pytest.mark.parametrize("detector", ["oracle", "pipeline"])
@pytest.mark.parametrize("seed, cell_px", [(0, 120), (3, 64)])
def test_each_attempt_renders_once_and_scores_at_most_once(monkeypatch, detector, seed, cell_px):
    # bench/workload.py splits a trial into ops at its renders
    scene = _scene_on_cells(seed, 25, cell_px)
    renders, scorings = [], []
    render = scene.render
    scene.render = lambda: renders.append(None) or render()
    score = binpick.score_grasps
    monkeypatch.setattr(binpick, "score_grasps", lambda *args: scorings.append(None) or score(*args))
    log = run_bin_picking(scene, _detector(detector, scene, seed), MODEL)
    assert len(renders) == len(log.attempts) >= 1
    assert len(scorings) == sum("grasp" in a for a in log.attempts) <= len(log.attempts)


def test_a_detector_with_no_grasp_renders_each_attempt_and_scores_none(monkeypatch):
    scene = make_scene(0, 3)
    renders = []
    render = scene.render
    scene.render = lambda: renders.append(None) or render()
    monkeypatch.setattr(binpick, "score_grasps", lambda *args: pytest.fail("nothing to score"))
    log = run_bin_picking(scene, lambda depth_image: [], MODEL)
    assert len(renders) == len(log.attempts) == 5


def test_the_oracle_detector_builds_each_blocks_grasp_once():
    scene = make_scene(5, 9)
    detect = oracle_detector(scene)
    first = detect(None)
    assert first == [b.oracle_grasp() for b in scene.blocks]
    assert all(a is b for a, b in zip(first, detect(None)))
    removed = scene.blocks[4]
    scene.remove(removed.block_id)
    later = detect(None)
    assert len(later) == 8 and all(g is h for g, h in zip(later, first[:4] + first[5:]))
    # another block object, even one equal to a removed block, gets its own grasp
    twin = Block(*(getattr(removed, f.name) for f in fields(Block)))
    scene.blocks.append(twin)
    (grasp,) = detect(None)[-1:]
    assert grasp == first[4] and grasp is not first[4]
