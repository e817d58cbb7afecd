"""Top-k keypoint extraction: NMS, refinement, ordering, determinism."""

import subprocess
import sys

import numpy as np
import pytest

from graspkit import (
    EncoderConfig,
    Grasp,
    decode_bundle,
    encode_targets,
    ideal_bundle,
    select_grasp_keypoints,
    suppress_non_maxima,
)
from helpers import random_separated_grasps

CFG = EncoderConfig(image_height=228, image_width=228, num_classes=18, downsample_ratio=4)


def _planes(h=8, w=8):
    return np.zeros((1, h, w), np.float32), np.zeros((h, w), np.float32), np.zeros((2, h, w), np.float32)


def test_single_peak_offset_refinement():
    heat, embed, off = _planes()
    heat[0, 1, 2] = 1.0  # row 1, col 2
    off[0, 1, 2] = 0.5
    off[1, 1, 2] = 0.75
    embed[1, 2] = 3.25
    (kp,) = select_grasp_keypoints(heat, embed, off, k=5, ratio=4)
    assert (kp.x, kp.y) == (10.0, 7.0)
    assert kp.score == 1.0 and kp.embedding == 3.25 and kp.class_index == 0


def test_zero_heatmaps_give_empty_list():
    heat, embed, off = _planes()
    assert select_grasp_keypoints(heat, embed, off, k=100, ratio=4) == []


def test_nms_suppresses_blurred_peak():
    heat, embed, off = _planes()
    heat[0, 3, 3] = 1.0
    heat[0, 3, 4] = 0.8
    heat[0, 4, 3] = 0.7
    kps = select_grasp_keypoints(heat, embed, off, k=10, ratio=4)
    assert len(kps) == 1
    kps_raw = select_grasp_keypoints(heat, embed, off, k=10, ratio=4, suppress=False)
    assert len(kps_raw) == 3  # switchable NMS keeps all without it


def test_top_k_matches_sort_oracle():
    rng = np.random.default_rng(33)
    heat = np.zeros((2, 40, 40), np.float32)
    scores = rng.permutation(np.linspace(0.01, 0.99, 150)).astype(np.float32)
    spots = rng.permutation(2 * 13 * 13)[:150]  # isolated on a stride-3 grid
    for s, flat in zip(scores, spots):
        c, rem = divmod(int(flat), 13 * 13)
        r, col = divmod(rem, 13)
        heat[c, 3 * r + 1, 3 * col + 1] = s
    embed = np.zeros((40, 40), np.float32)
    off = np.zeros((2, 40, 40), np.float32)
    kps = select_grasp_keypoints(heat, embed, off, k=100, ratio=4)
    assert len(kps) == 100
    expected = sorted(scores.tolist(), reverse=True)[:100]
    got = [kp.score for kp in kps]
    assert got == pytest.approx(expected)
    assert got == sorted(got, reverse=True)


def test_tie_break_is_class_row_col():
    heat = np.zeros((2, 9, 9), np.float32)
    for c, r, col in [(1, 4, 4), (0, 7, 1), (0, 4, 4)]:
        heat[c, r, col] = 0.5
    embed = np.zeros((9, 9), np.float32)
    off = np.zeros((2, 9, 9), np.float32)
    kps = select_grasp_keypoints(heat, embed, off, k=3, ratio=1)
    order = [(kp.class_index, int(kp.y), int(kp.x)) for kp in kps]
    assert order == [(0, 4, 4), (0, 7, 1), (1, 4, 4)]


def test_k_1_returns_global_max():
    heat = np.zeros((3, 10, 10), np.float32)
    heat[0, 2, 2] = 0.4
    heat[2, 8, 8] = 0.9
    embed = np.zeros((10, 10), np.float32)
    off = np.zeros((2, 10, 10), np.float32)
    (kp,) = select_grasp_keypoints(heat, embed, off, k=1, ratio=4)
    assert kp.class_index == 2 and kp.score == pytest.approx(0.9, abs=1e-7)


def test_k_must_be_positive():
    heat, embed, off = _planes()
    with pytest.raises(ValueError):
        select_grasp_keypoints(heat, embed, off, k=0, ratio=4)


def test_ideal_single_grasp_roundtrip():
    g = Grasp(100.25, 60.75, 0.4, 30.0)
    bundle = ideal_bundle([g], CFG, seed=1)
    left, right = decode_bundle(bundle, k=100)
    assert len(left) == 1 and len(right) == 1
    assert left[0].score == 1.0 and right[0].score == 1.0
    assert left[0].role == "left" and right[0].role == "right"


def test_ideal_five_grasps_roundtrip_coords():
    rng = np.random.default_rng(8)
    grasps = random_separated_grasps(rng, 5)
    bundle = ideal_bundle(grasps, CFG, seed=2)
    _, index = encode_targets(grasps, CFG)
    left, right = decode_bundle(bundle, k=100)
    assert len(left) == 5 and len(right) == 5
    from graspkit import grasp_to_pair

    truth_left = sorted(grasp_to_pair(g).left for g in grasps)
    got_left = sorted((kp.x, kp.y) for kp in left)
    for (tx, ty), (gx, gy) in zip(truth_left, got_left):
        assert abs(tx - gx) < 1e-6 and abs(ty - gy) < 1e-6


def test_offset_refinement_inverts_encoding():
    rng = np.random.default_rng(77)
    for _ in range(200):
        x = float(rng.uniform(0, 227))
        y = float(rng.uniform(0, 227))
        r = 4
        row, col = int(y // r), int(x // r)
        ox = np.float32(x / r - col)
        oy = np.float32(y / r - row)
        assert abs((col + float(ox)) * r - x) < 1e-6
        assert abs((row + float(oy)) * r - y) < 1e-6


def test_decode_deterministic():
    rng = np.random.default_rng(5)
    bundle = ideal_bundle(random_separated_grasps(rng, 4), CFG, seed=9)
    a = decode_bundle(bundle, k=50)
    b = decode_bundle(bundle, k=50)
    assert a == b


def test_suppress_keeps_plateau_maxima_only():
    plane = np.array([[0.2, 0.2, 0.0], [0.2, 0.9, 0.0], [0.0, 0.0, 0.5]], np.float32)
    out = suppress_non_maxima(plane)
    assert out[1, 1] == np.float32(0.9)
    assert out[2, 2] == 0.0  # 0.5 is adjacent to 0.9
    assert out[0, 0] == 0.0


def _suppress_reference(stack):
    """Brute-force 3x3 suppression: pixels outside the plane count as 0.0."""
    arr = np.asarray(stack, dtype=np.float32)
    planes = arr.reshape(-1, *arr.shape[-2:])
    out = np.zeros_like(planes)
    _, h, w = planes.shape
    for c, plane in enumerate(planes):
        for i in range(h):
            for j in range(w):
                neighbours = [
                    plane[r, q] if 0 <= r < h and 0 <= q < w else np.float32(0.0)
                    for r in (i - 1, i, i + 1)
                    for q in (j - 1, j, j + 1)
                ]
                if plane[i, j] == max(neighbours):
                    out[c, i, j] = plane[i, j]
    return out.reshape(arr.shape)


@pytest.mark.parametrize(
    "shape", [(1, 1), (1, 9), (9, 1), (1, 1, 1), (3, 1, 7), (4, 6, 5), (18, 57, 57)]
)
def test_suppress_matches_brute_force_bytes(shape):
    rng = np.random.default_rng(sum(shape))
    # coarse levels make plateaus; negatives and -0.0 test the zero padding
    arr = rng.integers(-3, 4, size=shape).astype(np.float32) / np.float32(4.0)
    arr[rng.random(shape) < 0.15] = np.float32(-0.0)
    out = suppress_non_maxima(arr)
    assert out.dtype == np.float32 and out.shape == arr.shape
    assert out.tobytes() == _suppress_reference(arr).tobytes()


def test_suppress_keeps_negative_zero_and_zeroes_negative_border():
    plane = np.array([[-0.0, -1.0], [-2.0, -0.5]], np.float32)
    out = suppress_non_maxima(plane)
    assert out.tobytes() == np.array([[-0.0, 0.0], [0.0, 0.0]], np.float32).tobytes()


def test_top_k_cut_keeps_class_row_col_order_among_ties():
    heat = np.zeros((3, 12, 12), np.float32)
    heat[2, 1, 1] = 0.9
    heat[0, 7, 7] = 0.8
    # five isolated entries tie with the 4th-largest score
    for c, r, col in [(2, 4, 4), (1, 10, 1), (0, 1, 10), (1, 1, 4), (0, 10, 4)]:
        heat[c, r, col] = 0.5
    embed = np.zeros((12, 12), np.float32)
    off = np.zeros((2, 12, 12), np.float32)
    kps = select_grasp_keypoints(heat, embed, off, k=4, ratio=1)
    order = [(kp.class_index, int(kp.y), int(kp.x)) for kp in kps]
    assert order == [(2, 1, 1), (0, 7, 7), (0, 1, 10), (0, 10, 4)]


def _select_reference(heatmaps, embeddings, offsets, k, ratio):
    """Full-sort top-k of the positive entries, without the partition cut."""
    stack = suppress_non_maxima(heatmaps)
    n_cls, h, w = stack.shape
    flat = stack.reshape(-1)
    nz = np.flatnonzero(flat > 0)
    top = nz[np.lexsort((nz, -flat[nz]))[:k]]
    cls, rem = top // (h * w), top % (h * w)
    rows, cols = rem // w, rem % w
    xs = np.clip((cols + offsets[0, rows, cols]) * ratio, 0.0, w * ratio)
    ys = np.clip((rows + offsets[1, rows, cols]) * ratio, 0.0, h * ratio)
    return [
        (float(xs[i]), float(ys[i]), int(cls[i]), float(flat[top[i]]), float(embeddings[rows[i], cols[i]]))
        for i in range(top.size)
    ]


@pytest.mark.parametrize("k", [1, 7, 40, 100, 5000])
def test_select_matches_full_sort_reference_with_ties(k):
    rng = np.random.default_rng(k)
    # few score levels, so many entries tie with the k-th score
    heat = rng.integers(0, 6, size=(5, 20, 20)).astype(np.float32) / np.float32(5.0)
    embed = rng.normal(size=(20, 20)).astype(np.float32)
    off = rng.random((2, 20, 20), dtype=np.float32)
    kps = select_grasp_keypoints(heat, embed, off, k=k, ratio=4)
    got = [(kp.x, kp.y, kp.class_index, kp.score, kp.embedding) for kp in kps]
    assert got == _select_reference(heat, embed, off, k, 4)


def test_import_does_not_load_scipy():
    code = "import sys, graspkit; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
