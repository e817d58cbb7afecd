"""Top-k keypoint extraction: NMS, refinement, ordering, determinism."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from graspkit import decoder
from graspkit import (
    EncoderConfig,
    Grasp,
    decode_bundle,
    encode_targets,
    ideal_bundle,
    select_grasp_keypoints,
    suppress_non_maxima,
)
from helpers import random_separated_grasps, select_reference

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


@pytest.mark.parametrize("k", [1, 7, 40, 100, 5000])
def test_select_matches_full_sort_reference_with_ties(k):
    rng = np.random.default_rng(k)
    # few score levels, so many entries tie with the k-th score
    heat = rng.integers(0, 6, size=(5, 20, 20)).astype(np.float32) / np.float32(5.0)
    embed = rng.normal(size=(20, 20)).astype(np.float32)
    off = rng.random((2, 20, 20), dtype=np.float32)
    kps = select_grasp_keypoints(heat, embed, off, k=k, ratio=4)
    got = [(kp.x, kp.y, kp.class_index, kp.score, kp.embedding) for kp in kps]
    assert got == select_reference(heat, embed, off, k, 4)


def _keypoints(heat, k):
    """select_grasp_keypoints on ``heat`` with seeded embeddings and offsets,
    as tuples comparable with :func:`select_reference`."""
    h, w = heat.shape[-2:]
    rng = np.random.default_rng(h * 100 + w)
    embed = rng.normal(size=(h, w)).astype(np.float32)
    off = rng.random((2, h, w), dtype=np.float32)
    kps = select_grasp_keypoints(heat, embed, off, k=k, ratio=4)
    got = [(kp.x, kp.y, kp.class_index, kp.score, kp.embedding) for kp in kps]
    return got, select_reference(heat, embed, off, k, 4)


# Few levels make ties and plateaus; zeros, -0.0, negatives, NaN and +-inf
# test the positive-only candidates and the peak test's NaN rule.
_LEVELS = st.sampled_from([0.0, -0.0, -1.0, 0.25, 0.5, 1.0, np.nan, np.inf, -np.inf])
_VALUES = st.one_of(_LEVELS, st.floats(-1.0, 1.0, width=32))
_SHAPES = st.one_of(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=16),
                    hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=12))


@st.composite
def _dense_stacks(draw):
    """Mostly positive stacks with coarse levels, so the top 4k ties and
    plateaus, with a sprinkling of the special values."""
    shape = draw(hnp.array_shapes(min_dims=3, max_dims=3, min_side=4, max_side=24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.integers(2, 64))
    heat = (rng.integers(1, levels + 1, size=shape) / levels).astype(np.float32)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.01, 0.1]))
    heat[special] = rng.choice(np.array([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf], np.float32), special.sum())
    return heat


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_select_equals_whole_stack_suppression_then_sort(data):
    heat = data.draw(st.one_of(hnp.arrays(np.float32, _SHAPES, elements=_VALUES), _dense_stacks()))
    # small k against the pixel count reaches the top-4k candidate branch
    k = data.draw(st.one_of(st.integers(1, 4), st.integers(1, heat.size + 3)))
    got, expected = _keypoints(heat, k)
    assert got == expected


@pytest.fixture
def suppress_calls(monkeypatch):
    """Counts the whole-stack suppressions select_grasp_keypoints runs."""
    calls = []
    whole = decoder.suppress_non_maxima
    monkeypatch.setattr(decoder, "suppress_non_maxima", lambda stack: calls.append(1) or whole(stack))
    return calls


def _isolated_peaks(rng, shape, n):
    heat = np.zeros(shape, np.float32)
    flat = heat.reshape(-1)
    flat[rng.choice(flat.size, size=n, replace=False)] = rng.random(n, dtype=np.float32) + np.float32(0.01)
    return heat


def test_few_positives_are_all_tested(suppress_calls):
    heat = _isolated_peaks(np.random.default_rng(1), (18, 57, 57), 600)  # 600 > 4k, far under the bound
    got, expected = _keypoints(heat, 100)
    assert got == expected and len(got) == 100
    assert suppress_calls == []


def test_dense_plane_top_4k_candidates_suffice(suppress_calls):
    heat = np.random.default_rng(2).random((18, 57, 57), dtype=np.float32)
    got, expected = _keypoints(heat, 100)
    assert got == expected and len(got) == 100
    assert suppress_calls == []


def test_top_4k_candidates_without_k_peaks_fall_back(suppress_calls):
    # one broad bump per plane: 4k candidates on its slopes, 1 peak each
    yy, xx = np.mgrid[0:57, 0:57]
    bump = np.exp(-((yy - 28.0) ** 2 + (xx - 20.0) ** 2) / 400.0)
    heat = np.stack([bump * (c + 1) / 18 for c in range(18)]).astype(np.float32)
    got, expected = _keypoints(heat, 100)
    assert got == expected and len(got) == 18
    assert suppress_calls == [1]


@pytest.mark.parametrize("shape", [(18, 57, 57), (1, 1), (3, 4, 4)])
def test_constant_plane_falls_back(suppress_calls, shape):
    heat = np.full(shape, 0.5, np.float32)  # every pixel is a peak
    got, expected = _keypoints(heat, 100)
    assert got == expected and len(got) == min(100, heat.size)
    assert suppress_calls == [1]


@pytest.mark.parametrize("n_cls", [18, 36])
def test_plateau_below_spikes_falls_back_without_a_partition(monkeypatch, suppress_calls, n_cls):
    # the (4k)-th highest score lies on a plateau of the whole stack below
    # 50 spikes: the candidates are too many, which the sample shows first
    heat = np.full((n_cls, 57, 57), 0.5, np.float32)
    heat.reshape(-1)[np.random.default_rng(n_cls).choice(heat.size, 50, replace=False)] = 0.9
    flat = heat.reshape(-1)
    sizes = []
    partition = np.partition
    monkeypatch.setattr(np, "partition", lambda a, kth: sizes.append(a.size) or partition(a, kth))
    assert decoder._high_candidates(flat, flat > 0, flat.size, 100, flat.size // 8) is None
    assert sizes == []
    got, expected = _keypoints(heat, 100)
    assert got == expected and len(got) == 100
    assert suppress_calls == [1]


def test_sampled_guess_above_the_threshold_partitions_all_positives(suppress_calls):
    # the strided sample (stride 57 = w) sees only column 0, which holds the
    # highest scores: its guess leaves fewer than 4k pixels above it
    rng = np.random.default_rng(5)
    heat = rng.uniform(0.01, 0.5, (18, 57, 57)).astype(np.float32)
    heat[:, :, 0] = rng.permutation(np.linspace(0.9, 0.99, 18 * 57)).reshape(18, 57)
    flat = heat.reshape(-1)
    assert np.count_nonzero(flat >= np.sort(flat[::57])[-22]) < 400
    got, expected = _keypoints(heat, 100)
    assert got == expected and len(got) == 100
    assert suppress_calls == []


# Both tests resolve every exported name first, so the lazy package module
# loads the whole library before they look at sys.modules.
def test_import_does_not_load_scipy():
    code = "import sys, graspkit; [getattr(graspkit, n) for n in graspkit.__all__]; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_numpy_is_the_only_runtime_dependency():
    # The interpreter's own start-up (site and .pth files) is the baseline:
    # importing the library, its CLI and its checks may add only graspkit and
    # numpy outside the standard library.
    code = (
        "import sys\n"
        "before = {m.partition('.')[0] for m in sys.modules}\n"
        "import graspkit, graspkit.checks, graspkit.cli\n"
        "[getattr(graspkit, name) for name in graspkit.__all__]\n"
        "after = {m.partition('.')[0] for m in sys.modules}\n"
        "print(' '.join(sorted(after - before - set(sys.stdlib_module_names))))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) <= {"graspkit", "numpy"}
    assert "graspkit" in proc.stdout.split()


# A float64 value beyond the float32 range becomes inf without numpy's cast
# warning, which the suite turns into an error.
def test_suppress_non_maxima_float64_beyond_float32_is_inf_without_warning():
    stack = np.zeros((2, 5, 5))
    stack[1, 2, 2] = 1e39
    out = suppress_non_maxima(stack)
    assert out[1, 2, 2] == np.inf and np.count_nonzero(out) == 1


@pytest.mark.parametrize("plane", ["heatmap", "offset", "embedding"])
def test_select_float64_beyond_float32_without_warning(plane):
    heat, off, emb = np.zeros((2, 5, 5)), np.zeros((2, 5, 5)), np.zeros((5, 5))
    heat[1, 2, 2] = 0.5
    {"heatmap": heat[1], "offset": off[0], "embedding": emb}[plane][2, 2] = 1e39
    if plane == "heatmap":
        (kp,) = select_grasp_keypoints(heat, emb, off, 3, 4)
        assert (kp.x, kp.y, kp.class_index, kp.score) == (8.0, 8.0, 1, np.inf)
    else:
        with pytest.raises(decoder.PayloadError, match="non-finite offset or embedding"):
            select_grasp_keypoints(heat, emb, off, 3, 4)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_high_candidates_are_the_pixels_reaching_the_4k_th_positive_score(data):
    # ties, non-positive values and NaN mixed into stacks large enough that
    # the (4k)-th score and the candidate bound both matter
    values = st.one_of(
        st.sampled_from([0.0, -1.0, 0.25, 0.5, 0.75, np.inf, np.nan]),
        st.floats(0.0, 1.0, width=32),
    )
    flat = data.draw(hnp.arrays(np.float32, st.integers(256, 4096), elements=values))
    k = data.draw(st.integers(1, max(1, flat.size // 64)))
    positive = flat > 0
    n_positive = np.count_nonzero(positive)
    high = decoder._high_candidates(flat, positive, n_positive, k, flat.size // 8)
    if high is not None:
        t = np.sort(flat[positive])[-4 * k]
        assert np.array_equal(high, np.flatnonzero(flat >= t))


def test_a_numpy_integer_ratio_scales_keypoints_as_its_int_does():
    rng = np.random.default_rng(5)
    args = (rng.random((2, 5, 5), dtype=np.float32), np.zeros((5, 5)), rng.random((2, 5, 5), dtype=np.float32), 3)
    # no int64 wraparound in the clip bounds width * ratio and height * ratio
    assert select_grasp_keypoints(*args, np.int64(2**62)) == select_grasp_keypoints(*args, 2**62)
