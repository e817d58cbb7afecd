"""Top-k keypoint extraction from heatmap bundles.

Per class plane, a 3x3 local-maximum suppression zeroes non-maxima (the
usual center/corner-decoder trick).  The 3x3 maximum is a numpy
slice max over the plane zero-padded by one pixel: a max over three row
shifts, then over three column shifts.  Then the k highest-scoring (class,
pixel) entries survive with ties broken by ascending (class, row, col).
Coordinates are refined to input-image resolution with the offset planes:
(pixel + offset) * R, the exact inverse of ``geometry._cell``, the
encoder's one quantization rule.
Embeddings are read at the winning integer pixel.

Top-k selection runs that rule without suppressing every pixel.  Only
candidate pixels get the 3x3 test, by eight lookups each: every positive
pixel when there are few, else the positive pixels scoring at least the
(4k)-th highest positive score.  This is exact.  A peak outside the
candidate set scores below every candidate, so when the candidates hold at
least k peaks, those k are the top k of the whole stack.  When they hold
fewer, or when ties make them too many to test for less than a whole-stack
suppression (a plateau), the whole stack is suppressed instead.  A strided
sample of the positive scores bounds the (4k)-th score from below; when more
pixels reach that bound than can be tested, no partition runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import DimensionError, PayloadError, _float32
from .geometry import _integer, _require_count, _shown

TOP_K = 100  # the keypoint budget: top-k keypoints decoded per role


@dataclass(frozen=True)
class DetectedKeypoint:
    """One decoded keypoint in input-image coordinates."""

    x: float
    y: float
    class_index: int
    score: float
    embedding: float
    role: str


def suppress_non_maxima(stack):
    """Zero every pixel that is not a 3x3 local maximum of its plane.

    Pixels outside the plane count as 0.0, so on a plane with negative
    values the border pixels are suppressed.
    """
    arr = _float32(stack)
    padded = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(1, 1), (1, 1)])
    rows = np.maximum(padded[..., :-2, :], padded[..., 1:-1, :])
    np.maximum(rows, padded[..., 2:, :], out=rows)
    peaks = np.maximum(rows[..., :-2], rows[..., 1:-1])
    np.maximum(peaks, rows[..., 2:], out=peaks)
    return np.where(arr == peaks, arr, np.float32(0.0))


def _top_k(flat, nz, k):
    """The k indices of ``nz`` with the highest ``flat`` values, ties broken
    by ascending flat index, which is (class, row, col) order."""
    values = flat[nz]
    if nz.size > k:
        # keep everything scoring at least the k-th largest score, ties
        # included, so the sort below still breaks ties by flat index
        kth = np.partition(values, nz.size - k)[nz.size - k]
        keep = values >= kth
        nz, values = nz[keep], values[keep]
    return nz[np.lexsort((nz, -values))[:k]]


def _peaks_among(flat, cand, h, w):
    """The pixels of ``cand`` (flat indices of positive pixels of a
    (classes, h, w) stack) that :func:`suppress_non_maxima` keeps.

    A positive pixel is kept iff no neighbour in its plane is greater or NaN;
    the 0.0 outside the plane never is.  So a step that would leave the plane
    is not taken, which only repeats a pixel of the window.
    """
    row, col = np.divmod(cand % (h * w), w)
    zero = np.zeros_like(cand)
    row_steps = (np.where(row > 0, -w, 0), zero, np.where(row < h - 1, w, 0))
    col_steps = (np.where(col > 0, -1, 0), zero, np.where(col < w - 1, 1, 0))
    value = flat[cand]
    keep = np.ones(cand.shape, dtype=bool)
    for dr in row_steps:
        shifted = cand + dr
        for dc in col_steps:
            keep &= flat[shifted + dc] <= value
    return cand[keep]


# Candidates per top-k slot, the share of a stack beyond which testing
# candidates costs more than suppressing the whole stack (testing one
# candidate costs about as much as suppressing eight pixels), and the size
# of the sample that bounds the partition.
_CANDIDATES_PER_K = 4
_MAX_CANDIDATE_SHARE = 8
_SAMPLE = 1024


def _high_candidates(flat, positive, n_positive, k, bound):
    """Flat indices of the pixels scoring at least the (4k)-th highest
    positive score, or None when more than ``bound`` pixels reach it or reach
    a sampled lower bound."""
    n_high = _CANDIDATES_PER_K * k
    if n_positive <= n_high:
        return None
    # The partition runs on the pixels scoring at least a sampled positive
    # score about twice as far down as the threshold, so below it as a rule.
    # More such pixels than ``bound`` (a plateau) end the search before any
    # partition; fewer than 4k widen it to all positives.
    values = flat if n_positive == flat.size else flat[positive]
    sample = np.sort(values[:: max(1, n_positive // _SAMPLE)])
    above = sample.size * n_high // n_positive  # sampled values above the threshold
    pixels = np.flatnonzero(flat >= sample[max(0, sample.size - 2 * above - 8)])
    if pixels.size > bound:
        return None
    if pixels.size < n_high:
        pixels = np.flatnonzero(positive)
    scores = flat[pixels]
    high = pixels[scores >= np.partition(scores, scores.size - n_high)[scores.size - n_high]]
    return high if high.size <= bound else None


def _top_peaks(stack, k):
    """Flat indices of the top-k positive peaks of ``suppress_non_maxima(stack)``,
    by the candidate test the module docstring describes."""
    _, h, w = stack.shape
    flat = stack.reshape(-1)
    bound = flat.size // _MAX_CANDIDATE_SHARE
    positive = flat > 0
    n_positive = np.count_nonzero(positive)
    if n_positive <= bound:
        return _top_k(flat, _peaks_among(flat, np.flatnonzero(positive), h, w), k)
    cand = _high_candidates(flat, positive, n_positive, k, bound)
    if cand is not None:
        peaks = _peaks_among(flat, cand, h, w)
        if peaks.size >= k:
            return _top_k(flat, peaks, k)
    suppressed = suppress_non_maxima(stack).reshape(-1)
    return _top_k(suppressed, np.flatnonzero(suppressed > 0), k)


def _keypoint_arrays(heatmaps, embeddings, offsets, k, ratio, suppress=True):
    """One role's top-k keypoints, best first, as arrays ``(x, y, class, score,
    embedding)``: class int, the rest float64 (widened as ``tolist()`` widens).
    A selected keypoint's non-finite offset or embedding raises PayloadError."""
    if not _integer(k) or k < 1:
        raise ValueError(f"k must be >= 1, got {_shown(k)}")
    stack, offsets, embeddings = (_float32(a) for a in (heatmaps, offsets, embeddings))
    if stack.ndim == 2:
        stack = stack[None]
    _, h, w = stack.shape
    flat = stack.reshape(-1)
    top = _top_peaks(stack, k) if suppress else _top_k(flat, np.flatnonzero(flat > 0), k)
    cls, rem = np.divmod(top, h * w)
    rows, cols = np.divmod(rem, w)
    off = offsets[:, rows, cols]
    emb = embeddings[rows, cols]
    if not (np.isfinite(off).all() and np.isfinite(emb).all()):
        raise PayloadError("non-finite offset or embedding at a selected keypoint")
    xs = np.clip((cols + off[0]) * ratio, 0.0, w * int(ratio))
    ys = np.clip((rows + off[1]) * ratio, 0.0, h * int(ratio))
    return xs, ys, cls, flat[top].astype(float), emb.astype(float)


def _detected(arrays, role):
    """:class:`DetectedKeypoint` objects for keypoint arrays."""
    return [DetectedKeypoint(*values, role=role) for values in zip(*(a.tolist() for a in arrays))]


def select_grasp_keypoints(heatmaps, embeddings, offsets, k, ratio, role="left", suppress=True):
    """Top-k keypoints of one role; shorter list when fewer pixels score > 0.

    ``suppress=False`` ranks raw pixels, without the 3x3 suppression that
    :func:`decode_bundle` always applies.  ``ratio`` must be an integer >= 1.
    ``heatmaps`` is a (C, H, W) stack or one (H, W) plane, ``embeddings`` an
    (H, W) plane and ``offsets`` a (2, H, W) stack, else DimensionError.
    """
    _require_count("ratio", ratio)
    grid = np.shape(heatmaps)
    if len(grid) not in (2, 3):
        raise DimensionError(f"heatmaps: expected a (C, H, W) stack or an (H, W) plane, got shape {grid}")
    for name, plane, expected in (("embeddings", embeddings, grid[-2:]), ("offsets", offsets, (2, *grid[-2:]))):
        if np.shape(plane) != expected:
            raise DimensionError(f"{name}: shape {np.shape(plane)} does not match expected {expected}")
    return _detected(_keypoint_arrays(heatmaps, embeddings, offsets, k, ratio, suppress), role)


def _decode(bundle, k):
    """Keypoint arrays of the left and right roles, 3x3 suppression included."""
    bundle._check_layout()
    roles = ((bundle.left, bundle.embedL, bundle.offsetL), (bundle.right, bundle.embedR, bundle.offsetR))
    return [_keypoint_arrays(*planes, k, bundle.downsample_ratio) for planes in roles]


def decode_bundle(bundle, k=TOP_K):
    """Decode both keypoint roles of a bundle with identical rules, 3x3
    suppression included."""
    left, right = _decode(bundle, k)
    return _detected(left, "left"), _detected(right, "right")
