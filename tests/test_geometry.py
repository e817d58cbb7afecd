"""Grasp representation conversions, orientation classes and rotated IoU."""

import io
import math
import warnings

import numpy as np
import pytest

from graspkit import (
    DegenerateGraspError,
    Grasp,
    KeypointPair,
    OrientedRect,
    angle_diff,
    angle_to_class,
    class_to_angle,
    grasp_to_pair,
    pair_to_grasp,
    read_annotation_groups,
    read_annotations,
    rotated_iou,
    wrap_angle,
    write_annotations,
)
from helpers import iou_rasterized, random_rect


def test_pair_to_grasp_axis_aligned():
    g = pair_to_grasp(KeypointPair.of((0, 0), (4, 0)))
    assert (g.x, g.y, g.theta, g.w) == (2, 0, 0, 4)


def test_pair_to_grasp_45deg():
    g = pair_to_grasp(KeypointPair.of((0, 0), (2, 2)))
    assert (g.x, g.y) == (1, 1)
    assert g.theta == pytest.approx(math.pi / 4, abs=1e-12)
    assert g.w == pytest.approx(2.8284271247461903, abs=1e-12)


def test_pair_to_grasp_hand_computed():
    g = pair_to_grasp(KeypointPair.of((3, 7), (9, 4)))
    assert (g.x, g.y) == (6, 5.5)
    assert g.w == pytest.approx(6.708203932499369, abs=1e-12)
    assert g.theta == pytest.approx(-0.4636476090008061, abs=1e-12)


def test_coincident_points_rejected():
    with pytest.raises(DegenerateGraspError):
        KeypointPair.of((1.0, 2.0), (1.0, 2.0))


def test_grasp_to_pair_inverses():
    p = grasp_to_pair(Grasp(2, 0, 0.0, 4))
    assert p.left == (0, 0) and p.right == (4, 0)
    p = grasp_to_pair(Grasp(1, 1, math.pi / 4, 2 * math.sqrt(2)))
    assert p.left == pytest.approx((0, 0), abs=1e-12)
    assert p.right == pytest.approx((2, 2), abs=1e-12)


def test_pair_grasp_roundtrip_500_random():
    rng = np.random.default_rng(11)
    for _ in range(500):
        g = Grasp(
            x=float(rng.uniform(-50, 50)),
            y=float(rng.uniform(-50, 50)),
            theta=wrap_angle(float(rng.uniform(-math.pi / 2, math.pi / 2))),
            w=float(rng.uniform(0.1, 80)),
        )
        back = pair_to_grasp(grasp_to_pair(g))
        assert abs(back.x - g.x) < 1e-9
        assert abs(back.y - g.y) < 1e-9
        assert abs(back.w - g.w) < 1e-9
        assert angle_diff(back.theta, g.theta) < 1e-9


def test_angle_class_representatives():
    assert angle_to_class(0.0, 18) == 9
    assert angle_to_class(-math.pi / 2, 18) == 0
    assert angle_to_class(0.52, 18) == 12  # nearest representative is 30 deg
    assert class_to_angle(9, 18) == 0.0
    assert class_to_angle(0, 18) == -math.pi / 2
    assert class_to_angle(11, 18) == pytest.approx(0.3490658503988659, abs=1e-12)


def test_class_to_angle_bounds():
    with pytest.raises(IndexError):
        class_to_angle(18, 18)
    with pytest.raises(IndexError):
        class_to_angle(-1, 18)


@pytest.mark.parametrize("n", [18, 36])
def test_angle_class_roundtrip(n):
    for c in range(n):
        assert angle_to_class(class_to_angle(c, n), n) == c


@pytest.mark.parametrize("n", [18, 36])
def test_quantization_error_bound(n):
    rng = np.random.default_rng(7)
    for theta in rng.uniform(-10, 10, size=300):
        c = angle_to_class(float(theta), n)
        assert angle_diff(class_to_angle(c, n), theta) <= math.pi / (2 * n) + 1e-12


@pytest.mark.parametrize("n", [18, 36])
def test_angle_to_class_matches_enumeration(n):
    # independent oracle: literal nearest-representative search
    rng = np.random.default_rng(13)
    reps = [class_to_angle(c, n) for c in range(n)]
    for theta in rng.uniform(-7, 7, size=400):
        dists = [angle_diff(theta, rep) for rep in reps]
        assert angle_to_class(float(theta), n) == int(np.argmin(dists))


def test_wrap_angle():
    assert wrap_angle(math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(-math.pi / 2) == pytest.approx(math.pi / 2)
    assert wrap_angle(math.pi) == pytest.approx(0.0, abs=1e-12)
    assert wrap_angle(0.3 + 5 * math.pi) == pytest.approx(0.3, abs=1e-12)
    assert angle_diff(math.radians(-89), math.radians(89)) == pytest.approx(
        math.radians(2), abs=1e-12
    )


def test_rect_corners_ccw_and_area():
    rng = np.random.default_rng(3)
    for _ in range(50):
        r = random_rect(rng)
        corners = r.corners()
        assert corners.shape == (4, 2)
        x, y = corners[:, 0], corners[:, 1]
        signed = 0.5 * (np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        assert signed > 0  # counterclockwise
        assert signed == pytest.approx(r.area, rel=1e-9)


def test_iou_identical_and_disjoint():
    r = OrientedRect((3, 4), 2, 1, 0.7)
    assert rotated_iou(r, r) == 1.0
    far = OrientedRect((100, 100), 2, 1, -0.2)
    assert rotated_iou(r, far) == 0.0


def test_iou_half_offset_squares():
    a = OrientedRect((0, 0), 1, 1, 0.0)
    b = OrientedRect((0.5, 0), 1, 1, 0.0)
    assert rotated_iou(a, b) == pytest.approx(1 / 3, abs=1e-12)
    assert abs(rotated_iou(a, b) - iou_rasterized(a, b)) < 0.01


def test_iou_symmetric_and_matches_oracle():
    rng = np.random.default_rng(21)
    for _ in range(60):
        a, b = random_rect(rng), random_rect(rng)
        iou = rotated_iou(a, b)
        assert iou == rotated_iou(b, a)
        assert 0.0 <= iou <= 1.0
        assert abs(iou - iou_rasterized(a, b)) < 0.01


def test_iou_rigid_transform_invariant():
    rng = np.random.default_rng(5)
    for _ in range(40):
        a, b = random_rect(rng), random_rect(rng)
        base = rotated_iou(a, b)
        phi = float(rng.uniform(-math.pi, math.pi))
        tx, ty = rng.uniform(-10, 10, size=2)
        c, s = math.cos(phi), math.sin(phi)

        def moved(r):
            cx, cy = r.center
            return OrientedRect(
                (c * cx - s * cy + tx, s * cx + c * cy + ty), r.width, r.height, r.theta + phi
            )

        assert abs(rotated_iou(moved(a), moved(b)) - base) < 1e-6


def test_iou_theta_plus_pi_is_same_rect():
    r = OrientedRect((1, 2), 3, 1.5, 0.4)
    flipped = OrientedRect((1, 2), 3, 1.5, 0.4 + math.pi)
    assert rotated_iou(r, flipped) == pytest.approx(1.0, abs=1e-12)


def test_grasp_validation():
    with pytest.raises(ValueError):
        Grasp(0, 0, math.pi, 1.0)  # angle outside (-pi/2, pi/2]
    with pytest.raises(ValueError):
        Grasp(0, 0, 0.0, -1.0)
    with pytest.raises(ValueError):
        Grasp(0, 0, 0.0, 1.0, h=0.0)


def test_annotation_file_roundtrip(tmp_path):
    grasps = [Grasp(1.5, 2.5, 0.3, 10.0, 5.0), Grasp(7.0, 8.0, -1.2, 4.0, None)]
    path = tmp_path / "ann.jsonl"
    write_annotations(grasps, path)
    text = path.read_text()
    assert '"theta_deg"' in text  # degrees on disk
    back = read_annotations(path)
    assert len(back) == 2
    for g, b in zip(grasps, back):
        assert (b.x, b.y, b.w, b.h) == (g.x, g.y, g.w, g.h)
        assert angle_diff(b.theta, g.theta) < 1e-12


def test_grasp_rejects_infinite_size():
    with pytest.raises(ValueError, match="width"):
        Grasp(1.0, 2.0, 0.3, math.inf)
    with pytest.raises(ValueError, match="height"):
        Grasp(1.0, 2.0, 0.3, 10.0, h=math.inf)


GOOD_RECORD = '{"x": 1.0, "y": 2.0, "theta_deg": 10.0, "w": 8.0, "h": null}'


@pytest.mark.parametrize(
    "record, field",
    [
        ("[1, 2]", "JSON object"),
        ('"str"', "JSON object"),
        ("3.5", "JSON object"),
        ('{"x": null, "y": 2, "theta_deg": 0, "w": 8}', "'x'"),
        ('{"x": 1, "y": [2], "theta_deg": 0, "w": 8}', "'y'"),
        ('{"x": 1, "y": 2, "theta_deg": true, "w": 8}', "'theta_deg'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": "8"}', "'w'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": 1e400}', "'w'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": 8, "h": false}', "'h'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": 8, "h": NaN}', "'h'"),
        ('{"x": 1' + "0" * 400 + ', "y": 2, "theta_deg": 0, "w": 8}', "'x'"),
        ('{"y": 2, "theta_deg": 0, "w": 8}', "'x'"),
        ('{"x": 1, "y": 2, "theta_deg": 0, "w": -8}', "width"),
    ],
    ids=["list", "string", "number", "null", "list-field", "bool", "text", "inf", "bool-h",
         "nan-h", "int-beyond-float", "missing", "negative-width"],
)
def test_annotation_readers_reject_bad_records(tmp_path, record, field):
    path = tmp_path / "ann.jsonl"
    path.write_text(GOOD_RECORD + "\n\n" + record + "\n")
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="line 3") as info:
            reader(path)
        assert field in str(info.value)


def test_iou_overflow_raises_value_error_without_numpy_warnings():
    truth = OrientedRect((50.0, 50.0), 20.0, 10.0, 0.0)
    huge = OrientedRect((50.0, 50.0), 1e308, 23.33, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((huge, truth), (truth, huge)):
            with pytest.raises(ValueError, match="areas overflow"):
                rotated_iou(a, b)


def test_deeply_nested_annotation_line_is_invalid_json():
    text = "[" * 100_000 + "]" * 100_000 + "\n"
    for reader in (read_annotations, read_annotation_groups):
        with pytest.raises(ValueError, match="line 1: invalid JSON"):
            reader(io.StringIO(text))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_iou_rejects_areas_beyond_the_float_range():
    truth = OrientedRect((50.0, 50.0), 20.0, 10.0, 0.0)
    huge = OrientedRect((50.0, 50.0), 1e308, 23.33, 0.0)  # shoelace area overflows
    for a, b in ((huge, truth), (truth, huge)):
        with pytest.raises(ValueError, match="areas overflow"):
            rotated_iou(a, b)
    big = OrientedRect((50.0, 50.0), 1e200, 23.33, 0.0)
    assert rotated_iou(big, truth) == pytest.approx(200.0 / (1e200 * 23.33), rel=1e-12)  # 8.57e-200
