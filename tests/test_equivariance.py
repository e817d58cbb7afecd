"""Equivariance of the pipeline under rigid motions of the scene.

Grasps are drawn with ``checks.separated_grasps`` on a 456x456 image (grid
3, so every keypoint lies at least 54 px inside the border), encoded into an
ideal bundle and grouped with each dataset profile.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graspkit import AJD, CORNELL, EncoderConfig, Grasp, OrientedRect, group, ideal_bundle, rotated_iou, wrap_angle
from graspkit.checks import separated_grasps

IMAGE = 456
# Translations up to 13 R = 52 px keep every keypoint inside the image.
MAX_STEPS = 13


def _grouped(profile, grasps, seed):
    config = EncoderConfig(IMAGE, IMAGE, profile.num_classes, profile.downsample_ratio)
    return group(ideal_bundle(grasps, config, seed=seed), profile.thresholds)


def _scene(seed, n):
    return separated_grasps(np.random.default_rng(seed), n, image=IMAGE)


@pytest.mark.parametrize("profile", [CORNELL, AJD], ids=["cornell", "ajd"])
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 9),
    steps=st.tuples(st.integers(-MAX_STEPS, MAX_STEPS), st.integers(-MAX_STEPS, MAX_STEPS)),
)
def test_translation_by_whole_heatmap_pixels_moves_every_grasp_exactly(profile, seed, n, steps):
    # A shift by whole multiples of R moves every heatmap pixel by whole
    # pixels and leaves every offset, embedding and score unchanged, so the
    # grasps, their order and their digits follow exactly (tolerance 0.0).
    grasps = _scene(seed, n)
    dx, dy = (s * profile.downsample_ratio for s in steps)
    moved = [Grasp(g.x + dx, g.y + dy, g.theta, g.w) for g in grasps]
    want = [Grasp(g.x + dx, g.y + dy, g.theta, g.w) for g in _grouped(profile, grasps, seed)]
    assert len(want) == n
    assert _grouped(profile, moved, seed) == want


@pytest.mark.parametrize("profile", [CORNELL, AJD], ids=["cornell", "ajd"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9))
def test_mirror_image_gives_mirrored_grasps(profile, seed, n):
    # x -> W - x with theta -> -theta.  Quantization floors the mirrored
    # keypoints into other pixels, so positions agree to float32 offset
    # precision (1.2e-7 px at worst on 400 scenes), not bit for bit.
    grasps = _scene(seed, n)
    mirrored = [Grasp(IMAGE - g.x, g.y, wrap_angle(-g.theta), g.w) for g in grasps]
    want = sorted((IMAGE - g.x, g.y) for g in _grouped(profile, grasps, seed))
    got = sorted((g.x, g.y) for g in _grouped(profile, mirrored, seed))
    assert len(got) == len(want) == n
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-3)


# Centers within 20 px of the origin, so most pairs overlap.
_near = st.floats(-20.0, 20.0)
_coords = st.floats(-100.0, 100.0)
_sizes = st.floats(0.5, 60.0)
_angles = st.floats(-math.pi, math.pi)
_rects = st.builds(lambda x, y, w, h, t: OrientedRect((x, y), w, h, t), _near, _near, _sizes, _sizes, _angles)

# A rigid motion changes how the corner coordinates round, so the IoU moves
# by rounding error only: at most 1.1e-13 over 20 000 overlapping pairs of
# these sizes.  The tolerance leaves four orders of magnitude above that.
IOU_TOLERANCE = 1e-9


def _moved(rect, phi, tx, ty):
    """``rect`` turned by ``phi`` about the origin, then shifted by (tx, ty)."""
    c, s = math.cos(phi), math.sin(phi)
    x, y = rect.center
    return OrientedRect((c * x - s * y + tx, s * x + c * y + ty), rect.width, rect.height, rect.theta + phi)


@settings(max_examples=500, deadline=None)
@given(a=_rects, b=_rects, phi=_angles, tx=_coords, ty=_coords)
def test_rotated_iou_is_invariant_under_a_common_rigid_motion(a, b, phi, tx, ty):
    moved = rotated_iou(_moved(a, phi, tx, ty), _moved(b, phi, tx, ty))
    assert moved == pytest.approx(rotated_iou(a, b), rel=0.0, abs=IOU_TOLERANCE)


@settings(max_examples=300, deadline=None)
@given(a=_rects, b=_rects, turns=st.tuples(st.sampled_from([-1, 0, 1]), st.sampled_from([-1, 0, 1])))
def test_rotated_iou_does_not_see_theta_plus_or_minus_pi(a, b, turns):
    # theta +- pi is the same rectangle, turned by pi about its own center.
    # A Grasp holds theta only in (-pi/2, pi/2], so this is where the swap
    # can reach the metric.
    flipped = [OrientedRect(r.center, r.width, r.height, r.theta + t * math.pi) for r, t in zip((a, b), turns)]
    assert rotated_iou(*flipped) == pytest.approx(rotated_iou(a, b), rel=0.0, abs=IOU_TOLERANCE)
