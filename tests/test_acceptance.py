"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
in captured output).  Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import math
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

import graspkit as gk
from helpers import (
    grasp_key,
    grouping_bundle,
    iou_rasterized,
    naive_detection_loss,
    random_bundle,
    random_rect,
    random_separated_grasps,
    recovered_fraction,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS  {description}")


def test_criterion_01_round_trip_recovery():
    with criterion(1, "encode->decode->group recovers 200 seeded annotation sets"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for trial in range(200):
            profile = gk.CORNELL if trial % 2 == 0 else gk.AJD
            config = gk.EncoderConfig(
                image_height=228, image_width=228,
                num_classes=profile.num_classes,
                downsample_ratio=profile.downsample_ratio,
            )
            truths = random_separated_grasps(rng, int(rng.integers(1, 6)))
            bundle = gk.ideal_bundle(truths, config, seed=int(rng.integers(0, 2**31)))
            found = gk.group(bundle, profile.thresholds, k=100)
            max_angle = math.pi / (2 * profile.num_classes)
            frac = recovered_fraction(truths, found, profile.eval_height, max_angle)
            assert frac == 1.0, f"trial {trial}: recovered {frac:.3f} of {len(truths)}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_gradient_checks():
    with criterion(2, "all five losses pass central finite differences at 100 points"):
        t0 = time.perf_counter()
        from graspkit.checks import run_gradcheck_battery

        report = run_gradcheck_battery(seed=7, points=100, step=1e-5, tolerance=1e-4)
        for name, entry in report["losses"].items():
            assert entry["passed"], f"{name}: max rel error {entry['max_error']:.3e}"
            assert entry["max_error"] < 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_03_detection_loss_oracle_equivalence():
    with criterion(3, "detection loss matches naive double-loop on 1000 instances"):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            pred = rng.uniform(1e-6, 1 - 1e-6, size=(2, 4, 4))
            truth = rng.uniform(0.0, 0.95, size=(2, 4, 4))
            truth[rng.random(size=truth.shape) < 0.15] = 1.0
            n = int(rng.integers(0, 7))
            fast, _ = gk.detection_loss(pred, truth, n)
            assert abs(fast - naive_detection_loss(pred, truth, n)) < 1e-9


def test_criterion_04_rotated_iou_vs_rasterization():
    with criterion(4, "rotated IoU within 0.01 of the 1000x rasterization oracle"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(44)
        for _ in range(500):
            a, b = random_rect(rng), random_rect(rng)
            assert abs(gk.rotated_iou(a, b) - iou_rasterized(a, b)) < 0.01
        ident = random_rect(rng)
        assert gk.rotated_iou(ident, ident) == 1.0
        left = gk.OrientedRect((0, 0), 2, 1, 0.3)
        right = gk.OrientedRect((50, 0), 2, 1, -0.8)
        assert gk.rotated_iou(left, right) == 0.0
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_05_evaluation_metric_fixtures():
    with criterion(5, "rectangle metric reproduces the 30deg / 0.25 Jaccard semantics"):
        for eval_h in (23.33, 20.0):
            crit = gk.MatchCriteria(eval_height=eval_h)
            truth = gk.Grasp(100, 100, 0.0, 40, h=eval_h)
            assert not gk.is_match(gk.Grasp(100, 100, math.radians(31), 40), truth, crit)
            assert gk.is_match(gk.Grasp(100, 100, math.radians(29), 40), truth, crit)
            half = gk.Grasp(100, 100, 0.0, 20)  # contained rect, IoU exactly 0.5
            assert gk.is_match(half, truth, crit)


def test_criterion_06_filter_monotonicity():
    with criterion(6, "tightening any threshold yields a subset on 50 random bundles"):
        rng = np.random.default_rng(66)
        base = gk.GroupingThresholds(rho_embed=1.0, rho_cen=0.05, tau_orient=0.4, max_output=100000)
        for _ in range(50):
            bundle = grouping_bundle(rng)
            loose = {grasp_key(g) for g in gk.group(bundle, base, k=60)}
            for tight in (
                gk.GroupingThresholds(0.5, 0.05, 0.4, 100000),
                gk.GroupingThresholds(1.0, 0.30, 0.4, 100000),
                gk.GroupingThresholds(1.0, 0.05, 0.15, 100000),
            ):
                subset = {grasp_key(g) for g in gk.group(bundle, tight, k=60)}
                assert subset <= loose


def test_criterion_07_scoring_bounds_and_monotonicity():
    with criterion(7, "depth scores bounded, additive and collision-monotone"):
        rng = np.random.default_rng(77)
        model = gk.GripperModel2D()
        surface = 1000.0
        for case in range(1000):
            depth = np.full((300, 300), surface, np.float32)
            for _ in range(int(rng.integers(1, 4))):
                r0, c0 = rng.integers(40, 200, size=2)
                h_px, w_px = rng.integers(20, 60, size=2)
                depth[r0 : r0 + h_px, c0 : c0 + w_px] = surface - float(rng.uniform(5, 80))
            scene = gk.DepthImage.flat_surface(depth, surface)
            g = gk.Grasp(
                float(rng.uniform(80, 220)), float(rng.uniform(80, 220)),
                float(rng.uniform(-math.pi / 2 + 1e-9, math.pi / 2)),
                float(rng.uniform(10, 60)),
            )
            sc = gk.score_grasp(g, scene, model)
            assert 0.0 <= sc.collision <= 1.0
            assert 0.0 <= sc.occupancy <= 1.0
            assert 0.0 <= sc.height <= 1.0
            assert sc.total == sc.collision + sc.occupancy + sc.height
            if case < 100:  # monotonicity: deepening finger pixels never lowers s_c
                regions = gk.gripper_regions(g, model, scene.shape)
                (fr, fc), _ = regions
                deeper = depth.copy()
                pick = rng.random(fr.size) < 0.5
                deeper[fr[pick], fc[pick]] += float(rng.uniform(1, 100))
                after = gk.collision_score(
                    g, gk.DepthImage.flat_surface(deeper, surface), model, regions
                )
                assert after >= sc.collision
        # worked height-score example
        di = gk.DepthImage(np.full((4, 4), 8.0, np.float32), np.full((4, 4), 10.0, np.float32))
        assert gk.height_score(gk.Grasp(2, 2, 0.0, 1.0), di) == pytest.approx(0.2)


def test_criterion_08_bin_picking_simulation():
    with criterion(8, "oracle detector clears 20 seeded N=5 trials; fail-stop after 5"):
        model = gk.GripperModel2D()
        for seed in range(20):
            scene = gk.make_scene(seed, 5)
            log = gk.run_bin_picking(scene, gk.oracle_detector(scene), model)
            assert log.success_rate == 100.0, f"seed {seed}: SR {log.success_rate}"
            assert log.percent_cleared == 100.0, f"seed {seed}: PC {log.percent_cleared}"
        # condition (b): same failing grasp five consecutive times
        scene = gk.make_scene(99, 5)
        stubborn = lambda depth: [gk.Grasp(5.0, 5.0, 0.0, 30.0)]
        log = gk.run_bin_picking(scene, stubborn, model)
        assert len(log.attempts) == 5 and log.successes == 0
        # bit-identical logs for identical seeds
        dumps = []
        for _ in range(2):
            scene = gk.make_scene(7, 5)
            dumps.append(json.dumps(gk.run_bin_picking(scene, gk.oracle_detector(scene), model).to_dict()))
        assert dumps[0] == dumps[1]


def test_criterion_09_dataset_rules():
    with criterion(9, "coverage rules exact on the 0.1 grid; whitening round-trips"):
        expected = ["remove", "remove", "flag-for-review", "flag-for-review",
                    "flag-for-review", "flag-for-review", "flag-for-review",
                    "flag-for-review", "flag-for-review", "keep", "keep"]
        grid = [round(0.1 * i, 1) for i in range(11)]
        assert [gk.classify_annotation(r).decision for r in grid] == expected
        rng = np.random.default_rng(9)
        for stats in (gk.CORNELL_STATS, gk.AJD_STATS):
            rgb = rng.uniform(0, 255, size=(3, 8, 8))
            depth = rng.uniform(0, 255, size=(8, 8))
            back = gk.invert_rgd(gk.compose_rgd(rgb, depth, stats), stats)
            assert np.abs(back[:2] - rgb[:2]).max() < 1e-6
            assert np.abs(back[2] - depth).max() < 1e-6


def test_criterion_10_gktb_format():
    with criterion(10, "GKTB byte-identical on 100 bundles; violations rejected by class"):
        rng = np.random.default_rng(10)
        for _ in range(100):
            bundle = random_bundle(rng)
            buf = io.BytesIO()
            gk.write_bundle(bundle, buf)
            blob = buf.getvalue()
            back = gk.read_bundle(io.BytesIO(blob))
            assert back.equals(bundle)
            buf2 = io.BytesIO()
            gk.write_bundle(back, buf2)
            assert buf2.getvalue() == blob

        base = io.BytesIO()
        gk.write_bundle(random_bundle(np.random.default_rng(1)), base)
        blob = base.getvalue()
        (hlen,) = struct.unpack("<I", blob[5:9])

        def patched_payload(value):
            start = 9 + hlen
            return blob[:start] + struct.pack("<f", value) + blob[start + 4 :]

        with pytest.raises(gk.BadMagicError):
            gk.read_bundle(io.BytesIO(b"XKTB" + blob[4:]))
        with pytest.raises(gk.HeaderError):
            gk.read_bundle(io.BytesIO(blob[:4] + b"\x02" + blob[5:]))
        with pytest.raises(gk.DimensionError):
            gk.read_bundle(io.BytesIO(blob[:-4]))
        with pytest.raises(gk.PayloadError):
            gk.read_bundle(io.BytesIO(patched_payload(float("inf"))))
        with pytest.raises(gk.ValueRangeError):
            gk.read_bundle(io.BytesIO(patched_payload(1.5)))
        with pytest.raises(gk.ValueRangeError):
            gk.read_bundle(io.BytesIO(patched_payload(-0.1)))
        bad_offset = random_bundle(np.random.default_rng(2))
        bad_offset.offsetR[1, 0, 0] = 1.0
        with pytest.raises(gk.ValueRangeError):
            gk.write_bundle(bad_offset, io.BytesIO())
        bad_planes = random_bundle(np.random.default_rng(3))
        bad_planes.num_classes += 1
        with pytest.raises(gk.DimensionError):
            gk.write_bundle(bad_planes, io.BytesIO())


def test_criterion_11_determinism_and_throughput():
    with criterion(11, "group() deterministic over 10 runs and < 50 ms on 57x57x18"):
        config = gk.EncoderConfig(228, 228, 18, 4)
        rng = np.random.default_rng(11)
        grasps = random_separated_grasps(rng, 5)
        bundle = gk.ideal_bundle(grasps, config, seed=11)
        assert bundle.left.shape == (18, 57, 57)
        outputs = []
        timings = []
        for _ in range(10):
            t0 = time.perf_counter()
            out = gk.group(bundle, gk.CORNELL.thresholds, k=100)
            timings.append(time.perf_counter() - t0)
            outputs.append([grasp_key(g) for g in out])
        assert all(o == outputs[0] for o in outputs)
        median = sorted(timings)[len(timings) // 2]
        assert median < 0.050, f"median {median * 1e3:.1f} ms"
