"""Target encoding: peaks, offsets, dedup and the ideal-bundle oracle."""

import hashlib
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from graspkit import (
    AJD,
    AnnotationError,
    CapacityError,
    CORNELL,
    EncoderConfig,
    Grasp,
    encode_targets,
    encoder,
    group,
    ideal_bundle,
    write_bundle,
)
from graspkit.geometry import _cell
from helpers import random_separated_grasps, recovered_fraction


CFG = EncoderConfig(image_height=228, image_width=228, num_classes=18, downsample_ratio=4)


def test_heatmap_dims_are_ceil():
    assert CFG.heatmap_shape == (57, 57)
    assert EncoderConfig(230, 229, 18, 4).heatmap_shape == (58, 58)


def test_exact_multiple_keypoints_land_on_grid():
    # keypoints at (40,60) and (80,60): both exact multiples of R=4
    g = Grasp(60.0, 60.0, 0.0, 40.0)
    bundle, index = encode_targets([g], CFG)
    (enc,) = index
    assert enc.left_pixel == (15, 10) and enc.right_pixel == (15, 20)
    assert enc.left_offset == (0.0, 0.0) and enc.right_offset == (0.0, 0.0)
    cls = enc.class_index
    assert bundle.left[cls, 15, 10] == 1.0
    assert bundle.right[cls, 15, 20] == 1.0
    assert bundle.center[15, 15] == 1.0


def test_floor_quantization_and_offsets():
    # left keypoint at image pixel (10, 7) -> heatmap (2, 1), offset (0.5, 0.75)
    g = Grasp(20.0, 7.0, 0.0, 20.0)
    _, index = encode_targets([g], CFG)
    (enc,) = index
    assert enc.left_pixel == (1, 2)  # (row, col) for keypoint (x=10, y=7)
    assert enc.left_offset == (0.5, 0.75)


@pytest.mark.parametrize("w, sigma", [(30.0, 2.5), (6.0, 1.0)], ids=["w-over-3R", "floor-1"])
def test_gaussian_sigma_is_w_over_3r_floored_at_1(w, sigma):
    bundle, (enc,) = encode_targets([Grasp(100.0, 100.0, 0.0, w)], CFG)
    row, col = enc.left_pixel
    plane = bundle.left[enc.class_index]
    assert plane[row, col] == 1.0
    assert plane[row, col - 1] == np.float32(np.exp(-1 / (2 * sigma**2)))


def test_dedup_first_wins():
    a = Grasp(60.0, 60.0, 0.0, 40.0)
    b = Grasp(61.0, 60.5, 0.0, 42.0)  # same left heatmap pixel as a
    bundle, index = encode_targets([a, b], CFG)
    assert [e.index for e in index] == [0]
    # reversed order keeps the other grasp instead
    _, index_rev = encode_targets([b, a], CFG)
    assert [e.index for e in index_rev] == [0]


def test_keypoint_outside_image_names_grasp():
    bad = Grasp(226.0, 10.0, 0.0, 20.0)  # right keypoint at x=236
    with pytest.raises(AnnotationError, match="grasp 1"):
        encode_targets([Grasp(60, 60, 0.0, 20.0), bad], CFG)


def test_target_values_in_range_single_unit_peak_per_role():
    rng = np.random.default_rng(2)
    grasps = random_separated_grasps(rng, 5)
    bundle, index = encode_targets(grasps, CFG)
    assert len(index) == 5
    for arr in (bundle.left, bundle.right, bundle.center):
        assert arr.min() >= 0.0 and arr.max() <= 1.0
    for enc in index:
        assert bundle.left[enc.class_index][enc.left_pixel] == 1.0
        assert bundle.right[enc.class_index][enc.right_pixel] == 1.0
    # each surviving grasp contributes exactly one unit pixel per role plane
    for role_stack in (bundle.left, bundle.right):
        per_class_units = (role_stack == 1.0).sum(axis=(1, 2))
        classes = [e.class_index for e in index]
        for cls in set(classes):
            assert per_class_units[cls] == classes.count(cls)
    assert (bundle.offsetL >= 0).all() and (bundle.offsetL < 1).all()
    assert (bundle.offsetR >= 0).all() and (bundle.offsetR < 1).all()


def test_heatmaps_order_independent_without_collisions():
    rng = np.random.default_rng(9)
    grasps = random_separated_grasps(rng, 4)
    fwd, _ = encode_targets(grasps, CFG)
    rev, _ = encode_targets(list(reversed(grasps)), CFG)
    assert fwd.equals(rev)


def test_ideal_bundle_empty_and_single():
    empty = ideal_bundle([], CFG)
    assert empty.left.max() == 0.0 and empty.center.max() == 0.0
    single = ideal_bundle([Grasp(100, 100, 0.5, 30)], CFG)
    assert (single.left == 1.0).sum() == 1
    assert (single.right == 1.0).sum() == 1
    assert (single.center == 1.0).sum() == 1
    single.validate()


def test_ideal_bundle_capacity():
    grasps = [Grasp(10 + i * 0.01, 10, 0.0, 5) for i in range(101)]
    with pytest.raises(CapacityError):
        ideal_bundle(grasps, CFG)


def test_ideal_bundle_embedding_separation():
    rng = np.random.default_rng(4)
    grasps = random_separated_grasps(rng, 5)
    bundle = ideal_bundle(grasps, CFG, seed=123)
    _, index = encode_targets(grasps, CFG)
    values = sorted(float(bundle.embedL[e.left_pixel]) for e in index)
    for e in index:  # left and right agree per grasp
        assert bundle.embedL[e.left_pixel] == bundle.embedR[e.right_pixel]
    gaps = np.diff(values)
    assert (gaps >= 1.0).all()
    # deterministic per seed
    again = ideal_bundle(grasps, CFG, seed=123)
    assert again.equals(bundle)
    other = ideal_bundle(grasps, CFG, seed=124)
    assert not other.equals(bundle)


def test_ideal_bundle_decodes_back_to_annotations():
    rng = np.random.default_rng(17)
    grasps = random_separated_grasps(rng, 5)
    bundle = ideal_bundle(grasps, CFG, seed=5)
    found = group(bundle, CORNELL.thresholds)
    assert recovered_fraction(grasps, found, 23.33, np.pi / 36) == 1.0


@pytest.mark.parametrize(
    "name, value",
    [("downsample_ratio", 0), ("downsample_ratio", -4), ("downsample_ratio", 2.5), ("num_classes", 0),
     ("image_height", 0), ("image_width", -1), ("image_height", 228.0), ("num_classes", "18")],
)
def test_config_rejects_sizes_the_encoder_cannot_use(name, value):
    sizes = {"image_height": 228, "image_width": 228, "num_classes": 18, "downsample_ratio": 4, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1"):
        EncoderConfig(**sizes)


def test_config_accepts_numpy_integers():
    config = EncoderConfig(np.int64(228), np.int32(229), np.int64(18), np.int64(4))
    assert config.heatmap_shape == (57, 58)


@pytest.mark.parametrize("role", ["left", "right"])
def test_dedup_first_wins_per_role_across_classes(role):
    a = Grasp(60.0, 60.0, 0.0, 40.0)  # keypoints (40, 60) and (80, 60), class 9
    # b, in class 12, puts only its `role` keypoint on a's pixel of that role
    theta, half = 0.6, 20.0
    sign = 1.0 if role == "left" else -1.0
    sx, sy = (40.5, 60.5) if role == "left" else (80.5, 60.5)
    b = Grasp(sx + sign * half * math.cos(theta), sy + sign * half * math.sin(theta), theta, 2 * half)
    (enc_a,), (enc_b,) = encode_targets([a], CFG)[1], encode_targets([b], CFG)[1]
    assert (enc_a.class_index, enc_b.class_index) == (9, 12)
    same = (enc_a.left_pixel == enc_b.left_pixel, enc_a.right_pixel == enc_b.right_pixel)
    assert same == ((True, False) if role == "left" else (False, True))
    for first, second in ((a, b), (b, a)):
        bundle, index = encode_targets([first, second], CFG)
        assert [e.index for e in index] == [0]
        assert bundle.equals(encode_targets([first], CFG)[0])  # the second grasp wrote nothing


@pytest.mark.parametrize("name", ["image_height", "image_width", "num_classes", "downsample_ratio"])
def test_config_rejects_booleans(name):
    sizes = {"image_height": 228, "image_width": 228, "num_classes": 18, "downsample_ratio": 4, name: True}
    with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got True"):
        EncoderConfig(**sizes)


# Fixed grasp sets whose GKTB bytes pin the encoder.  Between them: splats
# clipped at every image edge, sigma > 1 (w > 3R), a grasp dropped by
# first-wins in each set, image sizes that are not multiples of R, and
# Grasp fields given as int and as np.float32.
_F32 = np.float32
PINNED_SETS = {
    "cornell": (
        EncoderConfig(226, 229, CORNELL.num_classes, CORNELL.downsample_ratio),
        [
            Grasp(12.0, 6.0, 0.0, 20.0),  # clipped at the top and left edges
            Grasp(100.0, 120.0, 0.0, 60.0),
            Grasp(100.5, 120.5, 0.0, 61.0),  # dropped: the same pixels as the grasp before it
            Grasp(_F32(150.3), _F32(80.7), _F32(0.4), _F32(44.5)),
            Grasp(210, 215, 0, 36),  # clipped at the bottom and right edges
            Grasp(60.25, 180.75, -1.2, 7.5),
        ],
        [0, 1, 3, 4, 5],
        "1f85482bb9077190765abb9758f1dac13fe402f7248ba903833c300cc673965b",
    ),
    "ajd": (
        EncoderConfig(301, 258, AJD.num_classes, AJD.downsample_ratio),
        [
            Grasp(_F32(240.5), _F32(30.25), _F32(-0.7), _F32(33.0)),
            Grasp(40, 290, 0, 70),
            Grasp(128.0, 150.0, 1.5, 150.0),  # sigma 12.5
            Grasp(41, 291, 0, 71),  # dropped
            Grasp(_F32(200.0), _F32(200.0), _F32(0.9), _F32(12.0)),
            Grasp(3.5, 150.0, 0.0, 6.0),  # left keypoint at x = 0.5
        ],
        [0, 1, 2, 4, 5],
        "00d9dd1e1b6c6b68099d1076abc9a7f9d338cc9d0b9cb1aa8fd0209436e196e4",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SETS))
def test_ideal_bundle_bytes_are_pinned(name):
    config, grasps, kept, digest = PINNED_SETS[name]
    assert [e.index for e in encode_targets(grasps, config)[1]] == kept
    buf = io.BytesIO()
    write_bundle(ideal_bundle(grasps, config), buf)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(PINNED_SETS))
def test_each_kept_grasp_builds_one_gaussian(name, monkeypatch):
    config, grasps, kept, _ = PINNED_SETS[name]
    built = []

    def counted(*args):
        built.append(args)
        return gaussian(*args)

    gaussian = encoder._gaussian
    monkeypatch.setattr(encoder, "_gaussian", counted)
    encode_targets(grasps, config)
    assert len(built) == len(kept)


@given(
    ratio=st.integers(1, 64),
    k=st.integers(0, 2**20),
    step=st.sampled_from([-1, 0, 1]),
    as_float32=st.booleans(),
)
def test_cell_is_floor_division_at_and_beside_cell_edges(ratio, k, step, as_float32):
    edge = _F32(k * ratio) if as_float32 else float(k * ratio)
    v = type(edge)(np.nextafter(edge, step * math.inf)) if step else edge
    assume(v >= 0)
    assert _cell(v, ratio) == (int(v // ratio), v / ratio - math.floor(v / ratio))
